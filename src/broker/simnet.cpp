#include "broker/simnet.hpp"

#include <algorithm>
#include <stdexcept>

namespace dbsp {

SimulatedNetwork::SimulatedNetwork(std::size_t broker_count)
    : adjacency_(broker_count) {}

void SimulatedNetwork::connect(BrokerId a, BrokerId b) {
  if (a == b) throw std::invalid_argument("simnet: self link");
  if (a.value() >= adjacency_.size() || b.value() >= adjacency_.size()) {
    throw std::out_of_range("simnet: unknown broker");
  }
  if (connected(a, b)) return;
  adjacency_[a.value()].push_back(b);
  adjacency_[b.value()].push_back(a);
}

bool SimulatedNetwork::connected(BrokerId a, BrokerId b) const {
  const auto& n = adjacency_.at(a.value());
  return std::find(n.begin(), n.end(), b) != n.end();
}

const std::vector<BrokerId>& SimulatedNetwork::neighbors(BrokerId b) const {
  return adjacency_.at(b.value());
}

void SimulatedNetwork::send(BrokerId from, BrokerId to, Message message) {
  if (!connected(from, to)) throw std::invalid_argument("simnet: send on missing link");
  ++total_.messages;
  total_.bytes += message.wire_size_bytes();
  if (message.type == Message::Type::Event) {
    ++total_.event_messages;
  } else {
    ++total_.control_messages;
  }
  in_flight_.push_back({from, to, std::move(message)});
}

std::optional<SimulatedNetwork::Delivery> SimulatedNetwork::pop() {
  if (in_flight_.empty()) return std::nullopt;
  Delivery d = std::move(in_flight_.front());
  in_flight_.pop_front();
  return d;
}

}  // namespace dbsp
