#include "routing/messages.hpp"

#include "routing/codec.hpp"

namespace dbsp {

namespace {
// wire header (magic + format version) + type tag + event sequence /
// subscription id.
constexpr std::size_t kHeaderBytes = kWireHeaderBytes + 1 + 8;
}  // namespace

std::size_t Message::wire_size_bytes() const {
  switch (type) {
    case Type::Event:
      return kHeaderBytes + encoded_size(event);
    case Type::Subscribe:
      return kHeaderBytes + (sub_tree ? encoded_size(*sub_tree) : 0);
    case Type::Unsubscribe:
      return kHeaderBytes;
    case Type::Summary:
      // origin + subgroup slot + presence flag + the summary's own wire
      // footprint (the routing-table bytes aggregation advertises instead
      // of per-subscription trees).
      return kHeaderBytes + 4 + 4 + 1 +
             (summary ? summary->wire_size_bytes() : 0);
  }
  return kHeaderBytes;
}

}  // namespace dbsp
