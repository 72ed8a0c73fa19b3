// MonotoneSpanner: the decremental O(log n)-spanner with the monotonicity
// property (Lemma 6.4), following Algorithm 8: O(log n) independent
// instances of the MPX clustering [MPX13] with a *constant* exponential
// rate beta, each maintained by the clustering engine of Lemma 3.3 run in
// forest-only mode (no inter-cluster edges, no explicit cluster readout).
//
// The spanner is the union of the per-instance intra-cluster forests. With
// beta chosen so that an edge is cut by one instance's clustering with
// probability <= 1/2, every edge is covered by some instance w.h.p. An edge
// covered by instance i has both endpoints within distance t_i - 1 of the
// covering cluster's center, so its detour through the forest is at most
// 2 (t_i - 1); the stretch of the union is 2 * max_i (t_i - 1) = O(log n).
//
// Monotonicity (the property Theorem 1.5 exploits): the total volume of
// spanner changes over an entire deletion sequence is O(n log^3 n),
// independent of m — each vertex changes its parent O(log^2 n) times per
// instance in expectation.
//
// Parallelism (DESIGN.md §7.1): the instances are independent by
// construction, so both the constructor and delete_edges fan out one job
// per instance; per-instance diffs are merged serially in instance order
// into a flat touched-key accumulator, and the returned diff is drained
// key-sorted — output is a function of (seed, inputs), never of the
// worker-thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "core/spanner_diff.hpp"
#include "util/types.hpp"

namespace parspan {

struct MonotoneSpannerConfig {
  uint64_t seed = 1;
  /// Exponential rate per instance; constant (Lemma 6.5 regime).
  double beta = 0.4;
  /// Number of independent instances; 0 means 3*ceil(log2 n) + 2.
  uint32_t instances = 0;
};

class MonotoneSpanner {
 public:
  MonotoneSpanner(size_t n, const std::vector<Edge>& edges,
                  const MonotoneSpannerConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t alive_edges() const;
  size_t spanner_size() const { return contrib_.size(); }
  std::vector<Edge> spanner_edges() const;
  bool in_spanner(Edge e) const { return contrib_.contains(e.key()); }

  /// Deletes a batch of edges; returns the net spanner diff (both sides
  /// sorted by canonical key; deterministic across thread counts).
  SpannerDiff delete_edges(const std::vector<Edge>& batch);

  /// Stretch bound witness: 2 * max_i (t_i - 1) (Lemma 6.4; the witness of
  /// the covering instance's in-cluster detour).
  uint32_t stretch_bound() const { return stretch_bound_; }

  size_t num_instances() const { return inst_.size(); }

  /// Auxiliary path depth t of instance i (the per-instance stretch witness
  /// component; stretch_bound() == 2 * max_i (instance_t(i) - 1)).
  uint32_t instance_t(size_t i) const { return inst_[i]->t(); }

  /// Total |δH_ins| + |δH_del| emitted over the structure's lifetime
  /// (the monotonicity property bounds this by O(n log^3 n)).
  uint64_t cumulative_recourse() const { return cumulative_recourse_; }

  bool check_invariants() const;

 private:
  size_t n_ = 0;
  std::vector<std::unique_ptr<DecrementalClusterSpanner>> inst_;
  ContribRefcounts contrib_;  // instance refcounts + per-batch net diff
  uint32_t stretch_bound_ = 0;
  uint64_t cumulative_recourse_ = 0;
};

}  // namespace parspan
