#include "core/fully_dynamic_spanner.hpp"

#include <algorithm>
#include <cmath>

namespace parspan {

template class BentleySaxe<ClusterSpannerPartitions>;

std::unique_ptr<DecrementalClusterSpanner> ClusterSpannerPartitions::build(
    size_t n, std::vector<EdgeKey> sorted_keys, uint64_t seed) const {
  ClusterSpannerConfig scfg;
  scfg.k = k;
  scfg.seed = seed;
  return std::make_unique<DecrementalClusterSpanner>(
      n, DecrementalClusterSpanner::FromSortedKeys{}, std::move(sorted_keys),
      scfg);
}

namespace {

/// Invariant B1's base exponent: the smallest l0 with 2^{l0} >= n^{1+1/k}.
uint32_t base_exponent(size_t n, uint32_t k) {
  double target =
      std::pow(double(std::max<size_t>(n, 2)), 1.0 + 1.0 / double(k));
  uint32_t l0 = 0;
  while (std::pow(2.0, double(l0)) < target) ++l0;
  return l0;
}

}  // namespace

FullyDynamicSpanner::FullyDynamicSpanner(
    size_t n, const std::vector<Edge>& initial,
    const FullyDynamicSpannerConfig& cfg)
    : bs_(n, base_exponent(n, cfg.k), initial, cfg.seed,
          ClusterSpannerPartitions{cfg.k}) {}

}  // namespace parspan
