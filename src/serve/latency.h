// Bounded request-latency sample shared by the server-wide and per-tenant
// ledgers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace sne::serve::detail {

/// Mean and nearest-rank percentiles of a latency sample (all 0 when empty).
struct LatencySummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Classic reservoir sampling: exact until `capacity` values, a uniform
/// sample of the full history after. Past capacity each add() draws one
/// index from an owner-seeded Rng, so the sample is a pure function of
/// (seed, the order values arrive in). Not thread-safe: owners add under
/// their own lock.
class LatencyReservoir {
 public:
  LatencyReservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void add(double ms) {
    ++seen_;
    if (sample_.size() < capacity_) {
      sample_.push_back(ms);
      return;
    }
    const std::uint64_t j = rng_.next() % seen_;
    if (j < capacity_) sample_[j] = ms;
  }

  LatencySummary summary() const {
    LatencySummary s;
    if (sample_.empty()) return s;
    std::vector<double> sorted = sample_;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double v : sorted) sum += v;
    const std::size_t n = sorted.size();
    const auto rank = [&](double q) {
      const auto r = static_cast<std::size_t>(q * static_cast<double>(n) + 0.5);
      return sorted[std::clamp<std::size_t>(r, 1, n) - 1];
    };
    s.mean = sum / static_cast<double>(n);
    s.p50 = rank(0.50);
    s.p90 = rank(0.90);
    s.p99 = rank(0.99);
    return s;
  }

 private:
  std::size_t capacity_;
  std::vector<double> sample_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

}  // namespace sne::serve::detail
