#include "scenario/churn.hpp"

#include <algorithm>
#include <cmath>

namespace dbsp {

namespace {

/// Largest rate drawn by one run of Knuth's product method. Past about
/// 745 exp(-lambda) underflows to 0 and the method saturates, so larger
/// rates are drawn as a sum of Poissons of at most this rate (a sum of
/// independent Poissons is Poisson with the summed rate).
constexpr double kMaxKnuthRate = 500.0;

}  // namespace

ChurnProcess::ChurnProcess(ChurnConfig config, std::uint64_t seed)
    : config_(config), rng_(seed * 0x94d049bb133111ebULL + 601) {}

std::size_t ChurnProcess::poisson(double lambda) {
  std::size_t sum = 0;
  for (; lambda > kMaxKnuthRate; lambda -= kMaxKnuthRate) {
    sum += poisson(kMaxKnuthRate);
  }
  // Knuth's product method: O(lambda) uniforms per draw.
  if (lambda <= 0.0) return sum;
  const double limit = std::exp(-lambda);
  double p = 1.0;
  std::size_t k = 0;
  do {
    ++k;
    p *= rng_.uniform_real(0.0, 1.0);
  } while (p > limit);
  return sum + k - 1;
}

std::size_t ChurnProcess::arrivals() { return poisson(config_.arrival_rate); }

std::size_t ChurnProcess::departures() { return poisson(config_.departure_rate); }

std::size_t ChurnProcess::pick_victim(std::size_t live) {
  const double bias = std::max(1.0, config_.departure_recency_bias);
  const double u = rng_.uniform_real(0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      static_cast<double>(live) * std::pow(u, bias));
  return std::min(idx, live - 1);
}

}  // namespace dbsp
