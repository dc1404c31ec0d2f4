#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/schema.hpp"

namespace dbsp {

/// Scale and shape knobs of the synthetic online book-auction workload
/// (reconstruction of the paper's refs [3]/[4]).
struct WorkloadConfig {
  std::uint64_t seed = 42;

  // Domain pool sizes and the Zipf exponents of their popularity skew.
  std::size_t categories = 24;
  std::size_t titles = 4000;
  std::size_t authors = 1200;
  std::size_t locations = 16;
  double zipf_categories = 0.8;
  double zipf_titles = 0.6;
  double zipf_authors = 0.6;
  double zipf_locations = 1.1;

  /// Fraction of subscriptions *without* a specific author/title anchor.
  /// Book-auction subscribers overwhelmingly track specific items, which
  /// keeps individual subscriptions highly selective; the broad minority
  /// dominates baseline traffic. Raising this saturates the overlay's
  /// links and flattens Fig 1(e)'s headroom.
  double broad_fraction = 0.05;

  // Mix of the three subscription classes (bargain hunter, collector,
  // market watcher); normalized internally.
  double class_bargain = 0.45;
  double class_collector = 0.30;
  double class_watcher = 0.25;

  /// Probability that an eligible subscription wraps one condition in a
  /// NOT (exercises negative polarity; 0 reproduces the paper's setup).
  double not_probability = 0.0;
};

/// The attribute layout of auction events plus the shared value pools.
/// One instance backs both generators and all subscriptions of a run.
class AuctionDomain {
 public:
  explicit AuctionDomain(const WorkloadConfig& config);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  // Attribute handles.
  AttributeId category, title, author, format, condition, price, buy_now, bids,
      seller_rating, year, pages, shipping, ends_in_hours, location, is_signed,
      first_edition;

  [[nodiscard]] const std::vector<std::string>& categories() const { return categories_; }
  [[nodiscard]] const std::vector<std::string>& titles() const { return titles_; }
  [[nodiscard]] const std::vector<std::string>& authors() const { return authors_; }
  [[nodiscard]] const std::vector<std::string>& locations() const { return locations_; }
  [[nodiscard]] const std::vector<std::string>& formats() const { return formats_; }
  /// Conditions ordered best-to-worst; "at least X" predicates are prefixes.
  [[nodiscard]] const std::vector<std::string>& conditions() const { return conditions_; }

  /// The author associated with a title (fixed correlation so collector
  /// subscriptions on an author also see that author's titles).
  [[nodiscard]] const std::string& author_of_title(std::size_t title_idx) const {
    return authors_[title_idx % authors_.size()];
  }

 private:
  WorkloadConfig config_;
  Schema schema_;
  std::vector<std::string> categories_;
  std::vector<std::string> titles_;
  std::vector<std::string> authors_;
  std::vector<std::string> locations_;
  std::vector<std::string> formats_;
  std::vector<std::string> conditions_;
};

}  // namespace dbsp
