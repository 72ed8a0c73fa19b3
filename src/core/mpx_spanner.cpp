#include "core/mpx_spanner.hpp"

#include <cassert>
#include <cmath>

#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace parspan {

MonotoneSpanner::MonotoneSpanner(size_t n, const std::vector<Edge>& edges,
                                 const MonotoneSpannerConfig& cfg)
    : n_(n) {
  uint32_t count = cfg.instances;
  if (count == 0)
    count = 3 * uint32_t(std::ceil(std::log2(double(std::max<size_t>(n, 2))))) +
            2;
  // Resample cap 10 ln(n)/beta keeps the path length t = O(log n) and is
  // exceeded with probability <= n^{-9} (paper §6.2).
  double cap =
      10.0 * std::log(double(std::max<size_t>(n, 2))) / cfg.beta + 1.0;
  // Per-instance seeds are fixed up front, so each build job is a pure
  // function of (seed, edges) and the fan-out below is schedule-independent.
  inst_.resize(count);
  parallel_for(
      0, count,
      [&](size_t i) {
        ClusterSpannerConfig c;
        c.k = 1;  // unused: beta and cap are explicit
        c.beta = cfg.beta;
        c.delta_cap = cap;
        c.intercluster = false;
        c.seed = hash_combine(cfg.seed, i);
        inst_[i] = std::make_unique<DecrementalClusterSpanner>(n, edges, c);
      },
      1);
  // Serial merge in instance order: contrib_ refcounts and the stretch
  // witness are independent of the build schedule.
  for (uint32_t i = 0; i < count; ++i) {
    stretch_bound_ = std::max(stretch_bound_, 2 * (inst_[i]->t() - 1));
    for (const Edge& e : inst_[i]->spanner_edges()) contrib_.add(e.key());
  }
  contrib_.discard_delta();
}

size_t MonotoneSpanner::alive_edges() const {
  return inst_.empty() ? 0 : inst_[0]->alive_edges();
}

std::vector<Edge> MonotoneSpanner::spanner_edges() const {
  std::vector<EdgeKey> keys = contrib_.sorted_keys();
  std::vector<Edge> out;
  out.reserve(keys.size());
  for (EdgeKey ek : keys) out.push_back(edge_from_key(ek));
  return out;
}

SpannerDiff MonotoneSpanner::delete_edges(const std::vector<Edge>& batch) {
  // Phase 1 (parallel): the O(log n) instances are fully independent
  // (DESIGN.md §7.1) — each applies the batch and reports its own net diff.
  // Instance diffs are themselves deterministic (Lemma 3.3's contract).
  std::vector<SpannerDiff> diffs(inst_.size());
  parallel_for(
      0, inst_.size(),
      [&](size_t i) { diffs[i] = inst_[i]->delete_edges(batch); }, 1);
  // Phase 2 (serial, instance order): merge refcounts into the flat
  // touched-key accumulator. The drain sorts both sides by canonical key.
  assert(contrib_.delta_empty());
  for (const SpannerDiff& d : diffs) {
    cumulative_recourse_ += d.inserted.size() + d.removed.size();
    for (const Edge& e : d.inserted) contrib_.add(e.key());
    for (const Edge& e : d.removed) contrib_.remove(e.key());
  }
  return contrib_.drain();
}

bool MonotoneSpanner::check_invariants() const {
  FlatHashMap<EdgeKey, uint32_t> expect;
  for (auto& inst : inst_) {
    if (!inst->check_invariants()) return false;
    for (const Edge& e : inst->spanner_edges()) ++expect[e.key()];
  }
  return contrib_.matches(expect);
}

}  // namespace parspan
