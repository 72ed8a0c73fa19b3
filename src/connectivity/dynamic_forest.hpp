// SmallComponentForest: a dynamic spanning forest under batch edge
// insertions/deletions, reporting forest-edge diffs.
//
// This is the repo's stand-in for the parallel batch-dynamic connectivity
// of [AABD19], which Theorem 1.4 uses to maintain H2 — the spanning forest
// of the subgraph induced by ⊥-vertices. Lemma 5.1 guarantees those
// components have at most 10·x·log x vertices, so a structure that rebuilds
// the spanning forest of *affected components only* (one BFS over the
// touched components per batch) meets the theorem's work regime, whose
// bounds carry τ(x) = (10 x log x)^{x log x} factors anyway (DESIGN.md §1).
//
// The structure is correct for arbitrary graphs; only its update cost
// degrades (to O(affected component size)) when components grow large.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/spanner_diff.hpp"
#include "util/types.hpp"

namespace parspan {

class SmallComponentForest {
 public:
  explicit SmallComponentForest(size_t n);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return edges_.size(); }
  size_t forest_size() const { return forest_.size(); }
  std::vector<Edge> forest_edges() const;

  /// True iff u and v are in the same component.
  bool connected(VertexId u, VertexId v) const {
    return comp_[u] == comp_[v] && comp_[u] != kNoComp;
  }

  /// Applies a batch (deletions then insertions; absent/duplicate edges
  /// ignored) and returns the net forest diff.
  SpannerDiff update(const std::vector<Edge>& ins,
                     const std::vector<Edge>& del);

  bool check_invariants() const;

 private:
  static constexpr uint32_t kNoComp = uint32_t(-1);

  /// Rebuilds the forest within the given seed vertices' components.
  void rebuild_around(const std::vector<VertexId>& seeds,
                      std::unordered_map<EdgeKey, int32_t>& delta);

  size_t n_ = 0;
  std::vector<std::unordered_set<VertexId>> adj_;
  std::unordered_set<EdgeKey> edges_;
  std::unordered_set<EdgeKey> forest_;
  std::vector<uint32_t> comp_;                      // component id
  std::vector<std::vector<VertexId>> comp_members_;  // id -> vertices
  std::vector<uint32_t> free_comps_;
};

}  // namespace parspan
