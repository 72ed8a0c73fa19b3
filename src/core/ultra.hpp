// UltraSparseSpanner: the batch-dynamic ultra-sparse spanner of Theorem 1.4
// — n + O(n/x) edges with stretch O(x log x · log n · poly(log log n)) —
// via the single contraction ContractUltra(G, x) of Lemma 5.1 composed with
// the sparse spanner of Theorem 1.3.
//
// ContractUltra (paper §5.1-§5.2):
//  * D ⊆ V sampled once with probability 1/x; rand_v a fixed random value
//    per vertex (the tie-breaking permutation P).
//  * v is HEAVY if deg(v) >= T = ceil(10 x log2 x), else LIGHT (the status
//    is dynamic; crossings are handled as recomputations).
//  * Head(v): sampled vertices head to themselves. Heavy vertices head to
//    the sampled neighbor minimizing rand (else themselves, joining D').
//    Light vertices run the bounded BFS of Algorithm 5 — radius R = T,
//    never branching through heavy vertices — and head to the closest
//    D ∪ D' member (ties by rand), becoming ⊥ when their whole (light)
//    component is exhausted with no candidate, or heading to themselves
//    when the radius truncates.
//  * H1 = the per-cluster shortest-path forest: one parent edge per
//    clustered vertex (Lemma 5.3 guarantees the parent is in-cluster).
//  * H2 = a spanning forest of the edges with both endpoints ⊥, maintained
//    by SmallComponentForest (the [AABD19] substitution, DESIGN.md §1).
//  * NextLevelEdges (the contracted-pair ledger of core/next_level_edges.hpp,
//    shared with Lemma 4.1's ContractionLayer) maps the contracted graph
//    (over the original vertex-id space, as in the paper's white-box use
//    of Theorem 1.3) into a SparseSpanner.
//
// After a batch, recomputation follows the paper: heavy heads are refreshed
// at updated endpoints first; Algorithm 6's bounded BFS then collects the
// light vertices that have a touched vertex within their reach — the radius
// their last Algorithm-5 result depended on — and those are recomputed
// against the committed heavy heads. The BFS neither collects nor expands a
// light vertex first reached beyond its reach: its head, parent and reach
// cannot have changed (DESIGN.md §7.2 has the proof).
//
// Layout & parallelism (DESIGN.md §7.2): adjacency is the flat DynamicGraph
// substrate (per-vertex dense vectors + one flat position index); buckets,
// membership sets, and the contracted-pair index are flat open-addressing
// tables; the Algorithm-5 balls run on epoch-stamped per-thread scratch.
// Each recomputation phase is two-phase — head *computation* is a
// parallel_for over the affected vertices (reads committed state only),
// head *commits* run serially in ascending vertex order — and the batch
// diff drains key-sorted from a flat accumulator, so output never depends
// on the worker-thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "connectivity/dynamic_forest.hpp"
#include "container/flat_map.hpp"
#include "core/next_level_edges.hpp"
#include "core/sparse_spanner.hpp"
#include "graph/dynamic_graph.hpp"
#include "util/types.hpp"

namespace parspan {

struct UltraConfig {
  /// Integer contraction parameter x >= 2 (paper: 2 <= x <=
  /// O(log log n / (log log log n)^2)).
  uint32_t x = 2;
  uint64_t seed = 1;
  /// Configuration of the Theorem 1.3 structure on the contracted graph
  /// (its seed is derived from `seed`).
  SparseSpannerConfig next;
};

class UltraSparseSpanner {
 public:
  UltraSparseSpanner(size_t n, const std::vector<Edge>& edges,
                     const UltraConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return graph_.num_edges(); }
  size_t spanner_size() const { return s_mem_.size(); }
  std::vector<Edge> spanner_edges() const;
  bool in_spanner(Edge e) const { return s_mem_.contains(e.key()); }

  /// Applies one batch (deletions then insertions); returns the net spanner
  /// diff, both sides sorted by canonical key (deterministic across thread
  /// counts — DESIGN.md §7).
  SpannerDiff update(const std::vector<Edge>& insertions,
                     const std::vector<Edge>& deletions);
  SpannerDiff insert_edges(const std::vector<Edge>& ins) {
    return update(ins, {});
  }
  SpannerDiff delete_edges(const std::vector<Edge>& del) {
    return update({}, del);
  }

  /// Head of v: v itself for centers/unclustered, kNoVertex for ⊥.
  VertexId head(VertexId v) const { return head_[v]; }
  bool is_sampled(VertexId v) const { return sampled_[v] != 0; }
  uint32_t heavy_threshold() const { return T_; }
  /// H1 parent of v (its neighbor toward head(v)); kNoVertex when v is a
  /// center, unclustered or ⊥.
  VertexId parent(VertexId v) const {
    return par_edge_[v] == kNoEdge ? kNoVertex
                                   : edge_from_key(par_edge_[v]).other(v);
  }
  /// Radius of v's Algorithm-5 ball that head(v) depends on: the distance of
  /// the winning candidate, T when v is ⊥ or unclustered, 0 when v is
  /// sampled or heavy.
  uint32_t reach(VertexId v) const { return reach_[v]; }

  /// Composed stretch witness: 21 x log x · (L+1) over the next level's L.
  uint32_t stretch_bound() const;

  bool check_invariants() const;

 private:
  static constexpr VertexId kBot = kNoVertex;

  struct HeadResult {
    VertexId head = kBot;
    VertexId par = kNoVertex;  // neighbor toward the head (kNoVertex: none)
    uint32_t reach = 0;        // see reach(v)
  };
  /// The H1 edge a head result contributes for v (kNoEdge: none).
  static EdgeKey h1_edge(VertexId v, const HeadResult& hr) {
    if (hr.head == kBot || hr.head == v) return kNoEdge;
    assert(hr.par != kNoVertex);
    return edge_key(v, hr.par);
  }

  /// Epoch-stamped scratch for one Algorithm-5 ball: O(ball) touched words
  /// per call, no per-call allocation after warm-up. One instance per
  /// worker thread (compute_head runs under parallel_for).
  struct HeadScratch {
    std::vector<uint32_t> dist;   // valid iff stamp[v] == epoch
    std::vector<VertexId> par;    // BFS parent toward the source
    std::vector<uint64_t> stamp;
    std::vector<VertexId> frontier, next;
    uint64_t epoch = 0;

    void ensure(size_t n) {
      if (stamp.size() < n) {
        dist.resize(n);
        par.resize(n);
        stamp.resize(n, 0);
      }
    }
  };

  bool heavy(VertexId v) const { return graph_.degree(v) >= T_; }

  /// Algorithm 5 (light) / neighbor-min (heavy). Reads committed heavy
  /// heads; does not mutate structure state (scratch is caller-owned).
  HeadResult compute_head(VertexId v, HeadScratch& hs) const;

  /// Algorithm 6 pruned by reach: the light unsampled vertices with a seed
  /// within their reach, branching through seeds and through light vertices
  /// reached within their reach. Returns them sorted ascending (a view of
  /// member scratch, valid until the next call).
  const std::vector<VertexId>& light_need_recompute(
      const std::vector<VertexId>& seeds);

  EdgeKey pair_key_of(Edge e) const;
  bool edge_in_h2(Edge e) const {
    return head_[e.u] == kBot && head_[e.v] == kBot;
  }

  void commit_head(VertexId v, const HeadResult& hr);

  void s_add(EdgeKey ek);
  void s_remove(EdgeKey ek);

  size_t n_ = 0;
  UltraConfig cfg_;
  uint32_t T_ = 2;  // heavy threshold = BFS radius (10 x log2 x)

  std::vector<uint8_t> sampled_;
  std::vector<uint64_t> rand_;
  DynamicGraph graph_;  // flat adjacency + edge index (DESIGN.md §2)

  std::vector<VertexId> head_;
  std::vector<EdgeKey> par_edge_;  // H1 contribution per vertex
  std::vector<uint32_t> reach_;    // HeadResult::reach per vertex

  /// NextLevelEdges[(c, c')]: the alive layer-0 edges whose endpoint heads
  /// are {c, c'}, plus the designated representative.
  NextLevelEdges<EdgeKey> ledger_;

  std::unique_ptr<SmallComponentForest> h2_;
  std::unique_ptr<SparseSpanner> next_;

  // Final spanner composition S = H1 ∪ forest(H2) ∪ rep(S_next).
  FlatHashSet<EdgeKey> s_mem_;
  LiftedReps used_rep_;  // pair -> layer-0 edge
  /// The lift lookup: contracted pair key -> representative edge key.
  auto rep_of() const {
    return [this](EdgeKey pk) { return ledger_.rep(pk); };
  }
  DiffAccumulator s_delta_;

  // Batch-scoped accumulators.
  DiffAccumulator h2_net_;                          // H2 membership churn
  std::vector<EdgeKey> pending_add_, pending_rem_;  // deferred S mutations

  // Algorithm-6 scratch: epoch-stamped visited marks, the level buffers and
  // the returned recompute set.
  std::vector<uint64_t> visit_mark_;
  uint64_t mark_epoch_ = 0;
  std::vector<VertexId> a6_frontier_, a6_next_, a6_out_;
  // Per-thread Algorithm-5 scratch for the parallel compute phases.
  mutable std::vector<HeadScratch> scratch_;
};

}  // namespace parspan
