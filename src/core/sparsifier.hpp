// Spectral/cut sparsifiers (Lemma 6.6 and Theorem 1.6).
//
// DecrementalSparsifier implements the chain of Algorithm 10
// (Spectral-Sparsify of [ADK+16]) under batch deletions:
//
//   G_0 = G;  for stage j: B_j = t-bundle spanner of G_j (Theorem 1.5),
//   G_{j+1} = each edge of G_j \ B_j kept independently with prob. 1/4.
//
// The sparsifier is H = ∪_j B_j (weight 4^j) ∪ G_K (weight 4^K): since the
// input is unweighted, all edges of stage j carry weight 4^j, assigned at
// readout (paper §6.4). Sampling coins are a fixed hash of (edge, stage) —
// legitimate under the oblivious adversary, and exactly the "filter only
// the edges that are sampled in G_{i+1}" propagation of Lemma 6.6.
//
// A deletion batch runs in two rounds (DESIGN.md §7.3): the coin-filtered
// global deletions are independent per stage and fan out under
// parallel_for; the absorption fallout (edges newly entering B_j leave
// stage j+1 and beyond) then cascades serially — at most one extra batch
// per stage. Diff events are netted by one parallel sort over packed
// (key, weight-bits) tuples, so the returned WeightedDiff is (key, weight)-
// sorted and independent of the stage schedule.
//
// FullyDynamicSparsifier applies the Bentley-Saxe reduction of Theorem 1.6
// (Invariant B2, Lemma 6.7: unions of (1±ε)-sparsifiers sparsify unions)
// through the shared BentleySaxe core (core/bentley_saxe.hpp, DESIGN.md
// §6.1); E_0 edges carry weight 1.
//
// The bundle depth t controls quality: the theorem's
// t = O(ε^{-2} log^2 m log^3 n) constants are far beyond practical sizes,
// so t is an explicit knob and EXPERIMENTS.md reports measured ε vs t.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "container/flat_map.hpp"
#include "core/bentley_saxe.hpp"
#include "core/bundle.hpp"
#include "verify/laplacian.hpp"

namespace parspan {

/// Net weighted-edge change of the sparsifier after one batch. Both sides
/// are sorted by (canonical edge key, weight bits) — the weighted analogue
/// of the SpannerDiff determinism contract (DESIGN.md §7.4).
struct WeightedDiff {
  std::vector<WeightedEdge> inserted;
  std::vector<WeightedEdge> removed;
};

/// Nets signed weighted-diff events by (edge, weight) class: one parallel
/// sort over packed (key, weight-bits) tuples, then a run scan (DESIGN.md
/// §7.3). Output sides are (key, weight-bits)-sorted; all stage weights are
/// positive, so bit order is numeric order.
class WeightedNetter {
 public:
  void add(const WeightedEdge& we) { push(we.e, we.w, +1); }
  void remove(const WeightedEdge& we) { push(we.e, we.w, -1); }
  /// Adds a stage's unweighted diff at weight w.
  void absorb(const SpannerDiff& d, double w);
  bool empty() const { return events_.empty(); }
  /// Compiles the net diff and leaves the netter empty.
  WeightedDiff drain();

 private:
  struct Event {
    EdgeKey key;
    uint64_t wbits;
    int32_t sgn;
  };
  void push(Edge e, double w, int32_t sgn);
  std::vector<Event> events_;
};

struct SparsifierConfig {
  /// Bundle depth per stage (quality knob; see header comment).
  uint32_t t = 3;
  /// Per-stage keep probability for the residual sampling.
  double sample_rate = 0.25;
  /// Maximum number of stages; 0 means ceil(log2 m) + 1 for m distinct
  /// edges.
  uint32_t max_stages = 0;
  /// Stop chaining when a stage has at most this many edges (the paper's
  /// "less than O(log n) edges" break).
  size_t min_stage_edges = 8;
  uint64_t seed = 1;
  /// MonotoneSpanner parameters inside the bundles.
  double beta = 0.4;
  uint32_t instances = 0;
};

class DecrementalSparsifier {
 public:
  DecrementalSparsifier(size_t n, const std::vector<Edge>& edges,
                        const SparsifierConfig& cfg);

  /// Tag selecting the pre-canonicalized construction path.
  struct FromSortedKeys {};

  /// Construction from canonical edge keys, sorted ascending and unique
  /// (the output format of canonical_edge_keys). Skips the dedup sort, as
  /// the Bentley-Saxe rebuild has already produced this representation.
  DecrementalSparsifier(size_t n, FromSortedKeys,
                        const std::vector<EdgeKey>& sorted_keys,
                        const SparsifierConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t size() const;
  std::vector<WeightedEdge> sparsifier_edges() const;
  size_t num_stages() const { return stages_.size(); }
  size_t alive_edges() const;

  /// Deletes a batch of edges; returns the net weighted diff.
  WeightedDiff delete_edges(std::span<const Edge> batch);

  bool check_invariants() const;

 private:
  bool coin(EdgeKey ek, uint32_t stage) const;
  double stage_weight(uint32_t stage) const;

  size_t n_ = 0;
  SparsifierConfig cfg_;
  std::vector<std::unique_ptr<SpannerBundle>> stages_;
  FlatHashSet<EdgeKey> final_;  // G_K
  uint64_t coin_seed_ = 0;
};

struct FullyDynamicSparsifierConfig {
  SparsifierConfig stage;  // per-instance parameters
  uint64_t seed = 1;
};

/// BentleySaxe policy of Theorem 1.6: DecrementalSparsifier partitions,
/// weighted outputs netted by a WeightedNetter.
struct SparsifierPartitions {
  using Instance = DecrementalSparsifier;
  using Out = WeightedEdge;
  using Netter = WeightedNetter;

  SparsifierConfig stage;

  std::unique_ptr<Instance> build(size_t n, std::vector<EdgeKey> sorted_keys,
                                  uint64_t seed) const;
  static std::vector<WeightedEdge> outputs(const Instance& s) {
    return s.sparsifier_edges();
  }
  static size_t output_size(const Instance& s) { return s.size(); }
  static WeightedEdge unit(EdgeKey ek) { return {edge_from_key(ek), 1.0}; }
  static EdgeKey key(const WeightedEdge& we) { return we.e.key(); }
};

extern template class BentleySaxe<SparsifierPartitions>;

class FullyDynamicSparsifier {
 public:
  FullyDynamicSparsifier(size_t n, const std::vector<Edge>& initial,
                         const FullyDynamicSparsifierConfig& cfg);

  size_t num_vertices() const { return bs_.num_vertices(); }
  size_t num_edges() const { return bs_.num_edges(); }
  size_t size() const { return bs_.output_size(); }
  std::vector<WeightedEdge> sparsifier_edges() const { return bs_.outputs(); }

  /// Applies a batch (deletions then insertions); returns the net diff.
  WeightedDiff update(const std::vector<Edge>& insertions,
                      const std::vector<Edge>& deletions) {
    return bs_.update(insertions, deletions);
  }

  size_t num_partitions() const { return bs_.num_partitions(); }
  /// Number of decremental-instance rebuilds so far.
  uint64_t rebuilds() const { return bs_.rebuilds(); }
  /// Oracle: Invariant B2, Index consistency, sub-structure invariants.
  bool check_invariants() const { return bs_.check_invariants(); }

 private:
  BentleySaxe<SparsifierPartitions> bs_;
};

}  // namespace parspan
