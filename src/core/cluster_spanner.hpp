// DecrementalClusterSpanner: the batch-dynamic decremental (2k-1)-spanner of
// Lemma 3.3, built on exponential start-time clustering [MPVX15] maintained
// by the batch-dynamic Even-Shiloach tree of Theorem 1.2.
//
// Construction (paper §3.3):
//  * every vertex u draws delta_u ~ Exp(beta) with beta = ln(10 n)/k,
//    resampled (Las Vegas) until max_u delta_u < k;
//  * delta_u = d_u + f_u splits into the integer part d_u and fraction f_u;
//    Priority(v) = rank of f_v (larger fraction = higher priority);
//  * the auxiliary digraph G' adds path vertices p_0 .. p_{t-1}
//    (t = max d_u + 1) with arcs p_i -> p_{i+1}, a head-start arc
//    p_{t-1-d_v} -> v per vertex, and both orientations of every edge;
//  * an ES tree from p_0 with depth bound L = t maintains the clustering:
//    Cluster(v) = v if v's parent is a path vertex, else Cluster(parent);
//  * the priority key of arc (w -> v) in In(v) is
//    Priority(Cluster(w)) * 2^32 + arc_id (distinct keys, Lemma 3.1),
//    head-start arcs use Priority(v); thus the ES parent choice maximizes
//    the cluster priority among min-distance candidates.
//
// The spanner is the union of
//  * intra-cluster tree edges: (parent(v), v) for parents in V, and
//  * inter-cluster representatives: one edge per nonempty InterCluster[(v,c)]
//    group with c != Cluster(v).
//
// After each deletion batch the distance phases of Algorithm 1 run first;
// then a *cluster cascade* repairs clusters in level order (DESIGN.md §3.2):
// a vertex is re-examined only after all potential parents carry final
// distances and final cluster priorities. Vertices whose distance changed
// re-select from the head of In(v); distance-stable vertices use the
// forward-only NextWith (their candidates' priorities can only drop).
// Each level runs two phases — parallel parent re-selection, then the
// cluster changes applied grouped by owning vertex: distinct owners run in
// parallel, each owner's operations in the serial sequence order, and the
// shared contribution and dirty-flag side effects are replayed serially in
// that order, so the result equals the serial loop's (DESIGN.md §6.3).
//
// With cfg.intercluster = false the structure maintains only the forest of
// intra-cluster tree edges — the per-instance mode of the monotone spanner
// (Lemma 6.4), where beta is an explicit constant.
//
// Batch semantics: delete_edges applies the whole batch atomically — the
// returned SpannerDiff is the NET change between the spanner before and
// after the batch (an edge that enters and leaves within one batch does not
// appear), with inserted/removed each sorted by canonical edge key. The
// diff is a deterministic function of (construction inputs, deletion batch
// history): it does not depend on the worker-thread count (DESIGN.md §6).
//
// Thread safety: construction and delete_edges parallelize internally but
// external calls must be serialized — one batch at a time, no concurrent
// readers during a batch. Distinct instances are fully independent and may
// be constructed/updated concurrently (the Bentley-Saxe layer of Theorem
// 1.1 rebuilds disjoint partitions in parallel this way).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "container/concurrent_map.hpp"
#include "container/flat_map.hpp"
#include "core/es_tree.hpp"
#include "core/spanner_diff.hpp"
#include "parallel/arena.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace parspan {

struct ClusterSpannerConfig {
  /// Stretch parameter: the spanner has stretch 2k-1.
  uint32_t k = 4;
  /// Seed for delta sampling and the priority permutation.
  uint64_t seed = 1;
  /// Maintain inter-cluster representative edges (true for Lemma 3.3;
  /// false for the forest-only instances of Lemma 6.4).
  bool intercluster = true;
  /// Exponential rate; 0 means the paper's ln(10 n)/k.
  double beta = 0.0;
  /// Las Vegas resample threshold for max delta; 0 means k.
  double delta_cap = 0.0;
};

class DecrementalClusterSpanner {
 public:
  DecrementalClusterSpanner(size_t n, const std::vector<Edge>& edges,
                            const ClusterSpannerConfig& cfg);

  /// Tag selecting the pre-canonicalized construction path.
  struct FromSortedKeys {};

  /// Construction from canonical edge keys, sorted ascending and unique
  /// (the output format of canonical_edge_keys). Skips the dedup sort —
  /// this is the entry point the Bentley-Saxe partition rebuild uses after
  /// its own merge-as-sort already produced exactly this representation.
  DecrementalClusterSpanner(size_t n, FromSortedKeys,
                            std::vector<EdgeKey> sorted_keys,
                            const ClusterSpannerConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t alive_edges() const { return alive_count_; }

  /// Current spanner size (number of edges).
  size_t spanner_size() const { return contrib_.size(); }

  /// Materializes the current spanner edge set.
  std::vector<Edge> spanner_edges() const;

  /// True iff e is currently in the spanner.
  bool in_spanner(Edge e) const { return contrib_.contains(e.key()); }

  /// Deletes a batch of edges (absent/dead edges ignored); returns the net
  /// spanner diff. Amortized work O(k log^2 n) per deleted edge. Takes a
  /// span so callers can pass arena-backed batch scratch (DESIGN.md §12.5)
  /// as well as plain vectors.
  SpannerDiff delete_edges(std::span<const Edge> batch);
  SpannerDiff delete_edges(std::initializer_list<Edge> batch) {
    return delete_edges(std::span<const Edge>(batch.begin(), batch.size()));
  }

  /// Cluster center of v (= v itself for cluster centers).
  VertexId cluster(VertexId v) const { return cluster_[v]; }

  /// Total number of cluster reassignments across all batches (Lemma 3.6:
  /// expected <= 2 t log n per vertex over a full deletion sequence).
  uint64_t cluster_changes() const { return cluster_change_count_; }

  /// Depth t of the auxiliary path (= ES depth bound).
  uint32_t t() const { return t_; }

  /// Priority rank of v's fractional part (1..n).
  uint32_t priority(VertexId v) const { return priority_[v]; }

  const ESTree& es() const { return es_; }

  /// Number of phases executed by the last delete_edges call (depth proxy).
  uint32_t last_phases() const { return last_phases_; }

  /// Full oracle check: ES invariants, cluster fixpoint, InterCluster
  /// membership, spanner contribution refcounts. Expensive; for tests.
  bool check_invariants() const;

 private:
  uint64_t arc_key(uint32_t arc_id, VertexId center) const {
    return (static_cast<uint64_t>(priority_[center]) << 32) | arc_id;
  }

  /// Per-batch dirty-vertex buckets, one per ES level. Arena-backed: the
  /// whole structure is scratch that dies with delete_edges' ArenaScope.
  using Buckets = ArenaVector<ArenaVector<VertexId>>;

  /// Shared-state side effects of one owner-local operation: contribution
  /// refcount changes (in issue order) and the vertex to flag dirty for the
  /// next level. Owners record them in parallel; delete_edges replays them
  /// serially in sequence order (DESIGN.md §6.3).
  struct OpEffects {
    static constexpr uint8_t kMax = 4;  // refresh (2) + eligibility flip (2)
    EdgeKey keys[kMax];
    uint8_t count = 0;
    uint8_t removals = 0;  // bit i set: keys[i] loses a reference
    VertexId dirty = kNoVertex;

    void add(EdgeKey e) {
      assert(count < kMax);
      keys[count++] = e;
    }
    void remove(EdgeKey e) {
      assert(count < kMax);
      removals |= uint8_t(1u << count);
      keys[count++] = e;
    }
  };

  VertexId cluster_from_parent(VertexId v) const;
  void refresh_tree_contrib(VertexId v, OpEffects& fx);
  void replay(const OpEffects& fx);
  void add_membership(VertexId x, VertexId c, VertexId other, OpEffects& fx);
  void remove_membership(VertexId x, VertexId c, VertexId other,
                         OpEffects& fx);
  /// The two owner-local halves of v's cluster change oldc -> newc: v's own
  /// group eligibility flips and cluster_[v] (owner v), and, per out-arc
  /// a = (v -> w), the In(w) re-key and v's move between w's groups
  /// (owner w).
  void change_own_cluster(VertexId v, VertexId oldc, VertexId newc,
                          OpEffects& fx);
  void move_out_arc(uint32_t a, VertexId v, VertexId oldc, VertexId newc,
                    OpEffects& fx);
  void flag_dirty(VertexId v, Buckets& buckets);

  size_t n_ = 0;
  ClusterSpannerConfig cfg_;
  uint32_t t_ = 1;

  std::vector<uint32_t> du_;        // integer parts of delta
  std::vector<uint32_t> priority_;  // fraction ranks, 1..n

  std::vector<Edge> edges_;  // arc ids 2i (u->v), 2i+1 (v->u)
  std::vector<uint8_t> alive_;
  /// EdgeKey -> index into edges_. Keys are fixed at construction (deletion
  /// only flips alive_), so the lock-free fixed-capacity table applies; it
  /// is also what lets construction insert the dedup index in parallel.
  ConcurrentFixedMap edge_index_;
  size_t alive_count_ = 0;

  ESTree es_;
  std::vector<VertexId> cluster_;
  std::vector<EdgeKey> tree_contrib_;  // per-vertex tree edge, kNoEdge if none

  /// InterCluster[(v, c)]: neighbors of v lying in cluster c, plus the
  /// designated representative (paper's hash table of hash tables; the
  /// outer level is a flat open-addressing table — DESIGN.md §1). Members
  /// are a small unordered vector (erase = swap-pop): group sizes are
  /// degree-bounded and average 1-2 entries, where a linear scan beats any
  /// hash structure and teardown is one vector free.
  struct Group {
    std::vector<VertexId> members;
    VertexId rep = kNoVertex;

    bool contains(VertexId m) const {
      return std::find(members.begin(), members.end(), m) != members.end();
    }
    /// Removes m (must be present); returns true if the group emptied.
    bool erase_member(VertexId m) {
      auto it = std::find(members.begin(), members.end(), m);
      assert(it != members.end());
      *it = members.back();
      members.pop_back();
      return members.empty();
    }
  };
  std::vector<FlatHashMap<VertexId, Group>> groups_;

  ContribRefcounts contrib_;  // spanner refcounts + per-batch diff (§6.4)

  // Cascade scratch (epoch-stamped to keep per-batch work batch-sized).
  std::vector<uint64_t> dirty_epoch_;
  std::vector<uint64_t> distch_epoch_;
  uint64_t epoch_ = 0;
  /// (owner << 32 | seq) sort keys of the owner-grouped apply; a member so
  /// its capacity is reused across levels and batches.
  std::vector<uint64_t> owner_keys_;

  uint64_t cluster_change_count_ = 0;
  uint32_t last_phases_ = 0;
};

}  // namespace parspan
