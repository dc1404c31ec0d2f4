#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "routing/messages.hpp"

namespace dbsp {

/// In-process network simulation between brokers: FIFO links with
/// aggregate traffic accounting. The paper's evaluation is
/// simulation-based (10 Mbps LAN); we count messages and bytes — the
/// actual-network-load metric of Fig. 1(e).
class SimulatedNetwork {
 public:
  explicit SimulatedNetwork(std::size_t broker_count);

  /// Declares an undirected link. Topology must stay acyclic (checked by
  /// the overlay, not here).
  void connect(BrokerId a, BrokerId b);

  [[nodiscard]] bool connected(BrokerId a, BrokerId b) const;
  [[nodiscard]] const std::vector<BrokerId>& neighbors(BrokerId b) const;
  [[nodiscard]] std::size_t broker_count() const { return adjacency_.size(); }

  /// Enqueues a message on the directed link from->to (must be connected).
  void send(BrokerId from, BrokerId to, Message message);

  struct Delivery {
    BrokerId from;
    BrokerId to;
    Message message;
  };
  /// Pops the oldest in-flight delivery, if any.
  [[nodiscard]] std::optional<Delivery> pop();
  [[nodiscard]] bool idle() const { return in_flight_.empty(); }

  struct TrafficStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t event_messages = 0;
    std::uint64_t control_messages = 0;
  };
  [[nodiscard]] const TrafficStats& total() const { return total_; }
  void reset_stats() { total_ = {}; }

 private:
  std::vector<std::vector<BrokerId>> adjacency_;
  TrafficStats total_;
  std::deque<Delivery> in_flight_;
};

}  // namespace dbsp
