#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "subscription/node.hpp"
#include "workload/auction_schema.hpp"

namespace dbsp {

/// The subscriber profile a generated subscription belongs to.
enum class SubscriberClass : std::uint8_t {
  BargainHunter,  ///< conjunctive: category + price ceiling + extras
  Collector,      ///< OR-group of authors/titles AND collector constraints
  MarketWatcher,  ///< OR of per-category monitoring conjunctions
};

/// Generates Boolean subscription trees of the three classes typical for
/// online book auctions (paper §4). Thresholds are drawn
/// from distributions similar to the event distributions so predicate
/// selectivities span the whole [0,1] range — the spread the network
/// heuristic exploits.
class AuctionSubscriptionGenerator {
 public:
  AuctionSubscriptionGenerator(const AuctionDomain& domain, std::uint64_t stream = 1);

  struct Generated {
    std::unique_ptr<Node> tree;
    SubscriberClass cls;
  };

  [[nodiscard]] Generated next();
  [[nodiscard]] std::unique_ptr<Node> next_tree() { return next().tree; }

  /// A batch of `n` trees.
  [[nodiscard]] std::vector<std::unique_ptr<Node>> generate(std::size_t n);

 private:
  [[nodiscard]] std::unique_ptr<Node> bargain_hunter(bool broad);
  [[nodiscard]] std::unique_ptr<Node> collector();
  [[nodiscard]] std::unique_ptr<Node> market_watcher(bool broad);
  [[nodiscard]] std::unique_ptr<Node> watcher_group(bool broad);
  [[nodiscard]] std::unique_ptr<Node> author_anchor();

  // Single-predicate leaf helpers; `maybe_negate` wraps the leaf in NOT
  // with the configured probability.
  [[nodiscard]] std::unique_ptr<Node> category_is();
  [[nodiscard]] std::unique_ptr<Node> price_ceiling();
  [[nodiscard]] std::unique_ptr<Node> price_band();
  [[nodiscard]] std::unique_ptr<Node> condition_at_least();
  [[nodiscard]] std::unique_ptr<Node> format_in();
  [[nodiscard]] std::unique_ptr<Node> rating_floor();
  [[nodiscard]] std::unique_ptr<Node> maybe_negate(std::unique_ptr<Node> node);

  const AuctionDomain* domain_;
  Rng rng_;
  ZipfDistribution category_dist_;
  ZipfDistribution title_dist_;
  ZipfDistribution author_dist_;
  ZipfDistribution location_dist_;
};

}  // namespace dbsp
