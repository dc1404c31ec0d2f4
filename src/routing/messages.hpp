#pragma once

#include <cstdint>
#include <memory>

#include "agg/summary.hpp"
#include "common/ids.hpp"
#include "event/event.hpp"
#include "subscription/node.hpp"

namespace dbsp {

/// A broker-to-broker message of the overlay protocol. Subscription trees
/// travel as shared immutable payloads (the in-process analogue of a wire
/// encoding); each receiving broker clones its own mutable routing copy so
/// per-broker pruning never aliases.
struct Message {
  enum class Type : std::uint8_t { Event, Subscribe, Unsubscribe, Summary };

  Type type = Type::Event;
  /// Event payload (Type::Event).
  Event event;
  /// Global sequence number of the published event (notification logs).
  std::uint64_t event_seq = 0;
  /// Subscription payload (Type::Subscribe / Unsubscribe).
  SubscriptionId sub_id;
  std::shared_ptr<const Node> sub_tree;
  /// Summary advertisement (Type::Summary, aggregated routing): the broker
  /// whose subgroup changed, the subgroup's stable slot index, and its
  /// current summary — null retracts a previously advertised subgroup.
  BrokerId origin;
  std::uint32_t subgroup = 0;
  std::shared_ptr<const agg::SummarySet> summary;

  /// Exact wire size: header plus the codec-encoded payload (see
  /// routing/codec.hpp for the format). This is what the simulated
  /// network's byte accounting charges.
  [[nodiscard]] std::size_t wire_size_bytes() const;
};

}  // namespace dbsp
