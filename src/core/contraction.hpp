// ContractionLayer: the batch-dynamic Contract(G, x) procedure of Lemma 4.1
// (paper §4.1, dynamic maintenance §4.3).
//
// A fixed subset D ⊆ V is sampled once (each vertex with probability 1/x;
// D never changes — legitimate under the oblivious adversary). Every vertex
// v keeps its incident edges in a search tree Adj(v) ordered by the tuple
// (unmark_e, rand_e): unmark_e = [other endpoint ∉ D], rand_e a fresh random
// value drawn when the entry is inserted. Then
//
//   Head(v) = v                      if v ∈ D,
//   Head(v) = min-entry's endpoint   if that entry is marked (∈ D),
//   Head(v) = ⊥                      otherwise,
//
// so Head(v) changes only when the minimum of Adj(v) changes — probability
// 1/(deg±1) per update — which is what makes the expensive O(deg) head-move
// procedure O(1) edges in expectation (the analysis at the end of §4.3).
//
// The layer exposes exactly the objects of the paper:
//   * H            — this layer's spanner contribution: edges with a ⊥
//                    endpoint, plus one edge (v, Head(v)) per clustered v;
//   * NextLevelEdges — the contracted-pair ledger keyed by
//                    (Head(u), Head(v)), with Bwd/FwdCorrespondence as the
//                    designated representative per pair
//                    (core/next_level_edges.hpp);
//   * next_ins/next_del — the update stream for the next layer.
//
// All dictionaries are flat open-addressing tables (DESIGN.md §1); the
// per-batch UpdateResult lists are key-sorted, so the layer's output is a
// deterministic function of its inputs (DESIGN.md §7.4).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "container/counted_treap.hpp"
#include "container/flat_map.hpp"
#include "core/next_level_edges.hpp"
#include "core/spanner_diff.hpp"
#include "util/types.hpp"

namespace parspan {

class ContractionLayer {
 public:
  /// n = layer vertex count; x = contraction factor (>= 2).
  ContractionLayer(size_t n, const std::vector<Edge>& edges, double x,
                   uint64_t seed);

  struct UpdateResult {
    std::vector<Edge> next_ins;  // contracted-graph insertions (next ids)
    std::vector<Edge> next_del;  // contracted-graph deletions (next ids)
    std::vector<Edge> h_ins;     // H contribution diffs (layer-local edges)
    std::vector<Edge> h_del;
    /// Pairs (next-id edges) whose designated representative changed while
    /// the pair survived the batch.
    std::vector<Edge> rep_changed;
  };

  /// Applies a batch of layer-local edge insertions and deletions
  /// (deletions first). Duplicates / no-ops are filtered.
  UpdateResult update(const std::vector<Edge>& ins,
                      const std::vector<Edge>& del);

  size_t num_vertices() const { return n_; }
  size_t next_n() const { return next_n_; }
  size_t alive_edges() const { return alive_count_; }

  bool is_sampled(VertexId v) const { return next_id_[v] != kNoVertex; }
  VertexId next_id(VertexId v) const { return next_id_[v]; }
  /// Layer-i vertex corresponding to next-layer id y.
  VertexId prev_id(VertexId y) const { return prev_id_[y]; }

  /// Head(v) as a layer-local vertex, kNoVertex for ⊥.
  VertexId head(VertexId v) const { return head_[v]; }

  /// Current contracted edges (next-id space).
  std::vector<Edge> next_edges() const;

  /// Current representative (layer-local edge) of a contracted pair;
  /// pair must exist.
  Edge rep(Edge pair) const;

  /// Current H contribution set (layer-local edges).
  std::vector<Edge> h_edges() const;
  size_t h_size() const { return h_.size(); }

  bool check_invariants() const;

 private:
  struct AdjEntry {
    VertexId other;
    uint32_t edge_id;
  };
  struct EdgeRec {
    Edge e;
    uint64_t key_u = 0;  // entry key in Adj(e.u)
    uint64_t key_v = 0;  // entry key in Adj(e.v)
    bool alive = false;
  };
  uint64_t fresh_entry_key(VertexId other);
  VertexId compute_head(VertexId v);

  /// Contracted pair key for edge id (using current heads), or kNoEdge if
  /// the edge is intra-cluster / touches ⊥.
  EdgeKey pair_key_of(uint32_t eid) const;

  bool edge_in_bot(uint32_t eid) const;  // has a ⊥ endpoint

  /// Attaches/detaches edge contributions (H membership via a ⊥ endpoint +
  /// NextLevelEdges bucket) using the CURRENT heads of both endpoints.
  void attach(uint32_t eid);
  void detach(uint32_t eid);

  /// Recomputes Head(v); if changed, moves all incident edges.
  void recheck_head(VertexId v);

  size_t n_ = 0;
  size_t next_n_ = 0;
  double x_ = 2;
  uint64_t seed_ = 0;
  uint64_t entry_counter_ = 0;

  std::vector<VertexId> next_id_;  // kNoVertex if unsampled
  std::vector<VertexId> prev_id_;
  std::vector<VertexId> head_;
  std::vector<CountedTreap<AdjEntry>> adj_;

  std::vector<EdgeRec> edges_;
  FlatHashMap<EdgeKey, uint32_t> edge_index_;
  size_t alive_count_ = 0;

  NextLevelEdges<uint32_t> ledger_;  // contracted pairs -> edge ids
  ContribRefcounts h_;  // H refcounts + per-batch diff (DESIGN.md §6.4)
  std::vector<EdgeKey> head_edge_;  // per-vertex (v, Head(v)) contribution
};

}  // namespace parspan
