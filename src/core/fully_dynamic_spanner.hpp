// FullyDynamicSpanner: the fully-dynamic (2k-1)-spanner of Theorem 1.1,
// obtained from the decremental structure of Lemma 3.3 via the
// Bentley-Saxe-style reduction of [BS80, BS08] (paper §3.4).
//
// Edges are kept in a partition E = E_0 ∪ E_1 ∪ ... ∪ E_b with
//
//   Invariant B1:  |E_i| <= 2^{i + l0},   2^{l0} >= n^{1+1/k}.
//
// E_0 is maintained trivially (all of its edges are in the spanner; its
// capacity matches the target spanner size). Every other E_i runs its own
// DecrementalClusterSpanner. By Observation 3.7 (spanners are decomposable)
// the union of the per-partition spanners is a (2k-1)-spanner of G. The
// partition bookkeeping, batch chunking, concurrent rebuilds and
// partition-parallel deletions are the shared BentleySaxe core
// (core/bentley_saxe.hpp, DESIGN.md §6.1); this class supplies the
// capacity exponent and the instance type.
//
// Batch semantics: update() applies deletions first, then insertions;
// duplicates and no-ops are filtered. The returned SpannerDiff is the NET
// spanner change of the whole batch, both sides sorted by canonical edge
// key, and is a deterministic function of (n, initial edges, config, batch
// history) — independent of the worker-thread count (DESIGN.md §6).
//
// Thread safety: update() parallelizes internally; external calls must be
// serialized (one batch at a time, no concurrent reads during a batch).
// Distinct FullyDynamicSpanner instances are fully independent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bentley_saxe.hpp"
#include "core/cluster_spanner.hpp"
#include "util/types.hpp"

namespace parspan {

struct FullyDynamicSpannerConfig {
  /// Stretch parameter: the spanner has stretch 2k-1.
  uint32_t k = 4;
  /// Base seed; each rebuilt decremental instance derives a fresh stream.
  uint64_t seed = 1;
};

/// BentleySaxe policy of Theorem 1.1: DecrementalClusterSpanner partitions,
/// unweighted outputs netted by a DiffAccumulator (DESIGN.md §6.4).
struct ClusterSpannerPartitions {
  using Instance = DecrementalClusterSpanner;
  using Out = Edge;
  struct Netter : DiffAccumulator {
    void add(Edge e) { DiffAccumulator::add(e.key()); }
    void remove(Edge e) { DiffAccumulator::remove(e.key()); }
  };

  uint32_t k = 4;

  std::unique_ptr<Instance> build(size_t n, std::vector<EdgeKey> sorted_keys,
                                  uint64_t seed) const;
  static std::vector<Edge> outputs(const Instance& s) {
    return s.spanner_edges();
  }
  static size_t output_size(const Instance& s) { return s.spanner_size(); }
  static Edge unit(EdgeKey ek) { return edge_from_key(ek); }
  static EdgeKey key(Edge e) { return e.key(); }
};

extern template class BentleySaxe<ClusterSpannerPartitions>;

class FullyDynamicSpanner {
 public:
  FullyDynamicSpanner(size_t n, const std::vector<Edge>& initial,
                      const FullyDynamicSpannerConfig& cfg);

  size_t num_vertices() const { return bs_.num_vertices(); }
  size_t num_edges() const { return bs_.num_edges(); }
  size_t spanner_size() const { return bs_.output_size(); }
  std::vector<Edge> spanner_edges() const { return bs_.outputs(); }
  bool has_edge(Edge e) const { return bs_.has_edge(e); }

  /// Applies one batch of updates (deletions first, then insertions;
  /// duplicates and no-ops are filtered). Returns the net spanner diff,
  /// sorted by canonical edge key on both sides.
  SpannerDiff update(const std::vector<Edge>& insertions,
                     const std::vector<Edge>& deletions) {
    return bs_.update(insertions, deletions);
  }

  /// Convenience wrappers.
  SpannerDiff insert_edges(const std::vector<Edge>& ins) {
    return update(ins, {});
  }
  SpannerDiff delete_edges(const std::vector<Edge>& del) {
    return update({}, del);
  }

  /// Number of partitions currently allocated.
  size_t num_partitions() const { return bs_.num_partitions(); }

  /// Number of decremental-instance rebuilds so far (amortization witness).
  uint64_t rebuilds() const { return bs_.rebuilds(); }

  /// Oracle: Invariant B1, Index consistency, sub-structure invariants,
  /// and spanner-union consistency. Expensive; for tests.
  bool check_invariants() const { return bs_.check_invariants(); }

 private:
  BentleySaxe<ClusterSpannerPartitions> bs_;
};

}  // namespace parspan
