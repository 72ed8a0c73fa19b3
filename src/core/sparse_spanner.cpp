#include "core/sparse_spanner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "parallel/csr.hpp"
#include "util/rng.hpp"

namespace parspan {

std::vector<double> contraction_schedule(double target) {
  std::vector<double> xs;
  double prod = 1.0;
  double prev_exp = 0.0;
  for (int i = 0; prod < target && i < 8; ++i) {
    // Lemma 4.2: exponents 1.5^i - 1.5^{i-1} over base 100 (x_0 = 100).
    double expo = std::pow(1.5, double(i));
    double xi = std::pow(100.0, expo - prev_exp);
    prev_exp = expo;
    // Lemma 4.3: scale the last factor down so the product hits the target.
    if (prod * xi >= target) xi = std::max(2.0, target / prod);
    xs.push_back(xi);
    prod *= xi;
  }
  if (xs.empty()) xs.push_back(2.0);
  return xs;
}

SparseSpanner::SparseSpanner(size_t n, const std::vector<Edge>& edges,
                             const SparseSpannerConfig& cfg)
    : n_(n) {
  std::vector<double> xs = cfg.xs;
  if (xs.empty())
    xs = contraction_schedule(
        std::max(4.0, std::log2(double(std::max<size_t>(n, 2)))));

  // Deduplicate input edges (canonical key order).
  std::vector<Edge> cur;
  {
    std::vector<EdgeKey> keys = canonical_edge_keys(n, edges);
    cur.reserve(keys.size());
    for (EdgeKey ek : keys) cur.push_back(edge_from_key(ek));
  }
  num_edges_ = cur.size();

  // Build contraction layers bottom-up.
  size_t layer_n = n;
  for (size_t i = 0; i < xs.size(); ++i) {
    layers_.push_back(std::make_unique<ContractionLayer>(
        layer_n, cur, xs[i], hash_combine(cfg.seed, 0xc0 + i)));
    cur = layers_.back()->next_edges();
    layer_n = layers_.back()->next_n();
    if (layer_n <= 2) break;
  }
  // Top spanner (Theorem 1.1) on the contracted graph.
  uint32_t k = cfg.top_k;
  if (k == 0)
    k = uint32_t(
        std::ceil(std::log2(double(std::max<size_t>(layer_n, 2)) + 2.0)));
  FullyDynamicSpannerConfig tc;
  tc.k = k;
  tc.seed = hash_combine(cfg.seed, 0x707);
  top_ = std::make_unique<FullyDynamicSpanner>(layer_n, cur, tc);

  // Compose the initial spanner downward: S_L = top spanner,
  // S_i = H_i ∪ rep(S_{i+1}).
  size_t L = layers_.size();
  s_mem_.assign(L + 1, {});
  used_rep_.assign(L, {});
  for (const Edge& e : top_->spanner_edges()) s_mem_[L].insert(e.key());
  stretch_bound_ = 2 * k - 1;
  for (size_t i = L; i-- > 0;) {
    for (const Edge& e : layers_[i]->h_edges()) s_mem_[i].insert(e.key());
    SpannerDiff lifted;
    for (EdgeKey pk : s_mem_[i + 1].sorted_keys())
      lifted.inserted.push_back(edge_from_key(pk));
    auto add = [&](EdgeKey r) {
      bool fresh = s_mem_[i].insert(r);
      assert(fresh && "H and representatives must be disjoint");
      (void)fresh;
    };
    used_rep_[i].apply(lifted, {}, rep_of(i), [](EdgeKey) {}, add);
    stretch_bound_ = 3 * stretch_bound_ + 2;
  }
}

std::vector<Edge> SparseSpanner::spanner_edges() const {
  std::vector<Edge> out;
  out.reserve(s_mem_[0].size());
  for (EdgeKey ek : s_mem_[0].sorted_keys()) out.push_back(edge_from_key(ek));
  return out;
}

SpannerDiff SparseSpanner::update(const std::vector<Edge>& insertions,
                                  const std::vector<Edge>& deletions) {
  size_t L = layers_.size();
  // Upward pass: push updates through the contraction layers.
  std::vector<ContractionLayer::UpdateResult> results(L);
  std::vector<Edge> ins = insertions, del = deletions;
  // Maintain the layer-0 edge count (duplicates / no-ops filtered by the
  // layer itself; count via its alive counter).
  for (size_t i = 0; i < L; ++i) {
    results[i] = layers_[i]->update(ins, del);
    ins = results[i].next_ins;
    del = results[i].next_del;
  }
  num_edges_ = L > 0 ? layers_[0]->alive_edges() : num_edges_;
  SpannerDiff top_diff = top_->update(ins, del);

  // Downward pass: apply diffs level by level.
  // `down` is the S_{i+1} diff in layer-(i+1) edge keys.
  SpannerDiff down = top_diff;
  for (const Edge& e : top_diff.inserted) s_mem_[L].insert(e.key());
  for (const Edge& e : top_diff.removed) s_mem_[L].erase(e.key());

  for (size_t i = L; i-- > 0;) {
    DiffAccumulator delta;
    auto s_add = [&](EdgeKey ek) {
      bool fresh = s_mem_[i].insert(ek);
      assert(fresh && "S_i components must stay disjoint");
      (void)fresh;
      delta.add(ek);
    };
    auto s_remove = [&](EdgeKey ek) {
      bool erased = s_mem_[i].erase(ek);
      assert(erased);
      (void)erased;
      delta.remove(ek);
    };
    // All removals first (an edge may switch roles between H member and
    // pair representative within one batch; removals-then-additions keeps
    // S_i a true set throughout): H_i's around the lift, whose own
    // removals precede its additions.
    for (const Edge& e : results[i].h_del) s_remove(e.key());
    used_rep_[i].apply(down, results[i].rep_changed, rep_of(i), s_remove,
                       s_add);
    for (const Edge& e : results[i].h_ins) s_add(e.key());
    // Compile this layer's (key-sorted) diff for the next level down.
    down = delta.drain();
  }
  return down;
}

bool SparseSpanner::check_invariants() const {
  size_t L = layers_.size();
  for (const auto& layer : layers_)
    if (!layer->check_invariants()) return false;
  if (!top_->check_invariants()) return false;
  // S_L must equal the top spanner (a composition with nothing lifted).
  {
    FlatHashSet<EdgeKey> ref;
    for (const Edge& e : top_->spanner_edges()) ref.insert(e.key());
    auto none = [](EdgeKey) { return kNoEdge; };
    if (!LiftedReps{}.check({}, none, std::move(ref), s_mem_[L]))
      return false;
  }
  // S_i must equal H_i ∪ rep(S_{i+1}), with used_rep_ holding the actual
  // representatives (which must be current).
  for (size_t i = L; i-- > 0;) {
    FlatHashSet<EdgeKey> ref;
    for (const Edge& e : layers_[i]->h_edges()) ref.insert(e.key());
    if (!used_rep_[i].check(s_mem_[i + 1].sorted_keys(), rep_of(i),
                            std::move(ref), s_mem_[i]))
      return false;
  }
  return true;
}

}  // namespace parspan
