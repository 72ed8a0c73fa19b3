// Tests for the Contract(G, x) layer (Lemma 4.1) and the nested-contraction
// sparse spanner (Theorem 1.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/contraction.hpp"
#include "core/sparse_spanner.hpp"
#include "graph/generators.hpp"
#include "parallel/csr.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

/// Contracted pair -> representative edge key, for every current pair.
std::unordered_map<EdgeKey, EdgeKey> reps_of(const ContractionLayer& layer) {
  std::unordered_map<EdgeKey, EdgeKey> out;
  for (const Edge& p : layer.next_edges()) out[p.key()] = layer.rep(p).key();
  return out;
}

std::unordered_set<EdgeKey> key_set(const std::vector<Edge>& es) {
  std::unordered_set<EdgeKey> out;
  for (const Edge& e : es) out.insert(e.key());
  return out;
}

bool has_key(const std::vector<Edge>& es, EdgeKey ek) {
  return std::any_of(es.begin(), es.end(),
                     [&](const Edge& e) { return e.key() == ek; });
}

TEST(ContractionLayer, InitInvariantsAndLemma41Postconditions) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto edges = gen_erdos_renyi(100, 400, seed);
    ContractionLayer layer(100, edges, 4.0, seed * 13 + 1);
    EXPECT_TRUE(layer.check_invariants());
    EXPECT_GE(layer.next_n(), 1u);
    // f(y) = y for sampled vertices.
    for (VertexId v = 0; v < 100; ++v) {
      if (layer.is_sampled(v)) EXPECT_EQ(layer.head(v), v);
    }
    // Every contracted edge has a live representative with matching heads.
    for (const Edge& p : layer.next_edges()) {
      Edge r = layer.rep(p);
      VertexId hu = layer.head(r.u), hv = layer.head(r.v);
      ASSERT_NE(hu, kNoVertex);
      ASSERT_NE(hv, kNoVertex);
      EXPECT_EQ(edge_key(layer.next_id(hu), layer.next_id(hv)), p.key());
    }
  }
}

TEST(ContractionLayer, DeleteAllEdges) {
  auto edges = gen_erdos_renyi(40, 150, 7);
  ContractionLayer layer(40, edges, 3.0, 5);
  auto res = layer.update({}, edges);
  EXPECT_EQ(layer.alive_edges(), 0u);
  EXPECT_TRUE(layer.next_edges().empty());
  EXPECT_EQ(layer.h_size(), 0u);
  EXPECT_TRUE(layer.check_invariants());
}

class ContractionRandom
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double,
                                                 uint64_t>> {};

TEST_P(ContractionRandom, MixedStreamKeepsInvariants) {
  auto [n, m, x, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 24, 15, seed);
  ContractionLayer layer(n, initial, x, seed ^ 0xfeed);
  ASSERT_TRUE(layer.check_invariants());
  // Track the contracted graph against the layer's reports.
  std::unordered_set<EdgeKey> next_mat;
  for (const Edge& e : layer.next_edges()) next_mat.insert(e.key());
  std::unordered_set<EdgeKey> h_mat;
  for (const Edge& e : layer.h_edges()) h_mat.insert(e.key());

  for (auto& b : batches) {
    auto reps_before = reps_of(layer);
    auto res = layer.update(b.insertions, b.deletions);
    // rep_changed lists exactly the pairs that survived the batch with
    // another representative, key-sorted.
    auto reps_after = reps_of(layer);
    std::vector<Edge> want_changed;
    for (const Edge& p : layer.next_edges()) {
      auto it = reps_before.find(p.key());
      if (it != reps_before.end() && it->second != reps_after[p.key()])
        want_changed.push_back(p);
    }
    ASSERT_EQ(res.rep_changed.size(), want_changed.size());
    for (size_t i = 0; i < want_changed.size(); ++i)
      ASSERT_EQ(res.rep_changed[i].key(), want_changed[i].key());
    for (const Edge& e : res.next_del) {
      ASSERT_TRUE(next_mat.count(e.key()));
      next_mat.erase(e.key());
    }
    for (const Edge& e : res.next_ins) {
      ASSERT_TRUE(!next_mat.count(e.key()));
      next_mat.insert(e.key());
    }
    for (const Edge& e : res.h_del) {
      ASSERT_TRUE(h_mat.count(e.key()));
      h_mat.erase(e.key());
    }
    for (const Edge& e : res.h_ins) {
      ASSERT_TRUE(!h_mat.count(e.key()));
      h_mat.insert(e.key());
    }
    ASSERT_TRUE(layer.check_invariants());
    // Materialized views agree.
    ASSERT_EQ(next_mat.size(), layer.next_edges().size());
    ASSERT_EQ(h_mat.size(), layer.h_size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractionRandom,
    ::testing::Values(std::make_tuple(size_t{30}, size_t{100}, 2.0,
                                      uint64_t{1}),
                      std::make_tuple(size_t{50}, size_t{200}, 3.0,
                                      uint64_t{2}),
                      std::make_tuple(size_t{80}, size_t{240}, 5.0,
                                      uint64_t{3}),
                      std::make_tuple(size_t{25}, size_t{120}, 8.0,
                                      uint64_t{4})));

TEST(ContractionSchedule, ProductHitsTarget) {
  for (double target : {4.0, 10.0, 20.0, 200.0, 5000.0}) {
    auto xs = contraction_schedule(target);
    double prod = 1;
    for (double x : xs) {
      EXPECT_GE(x, 2.0);
      prod *= x;
    }
    EXPECT_GE(prod, target * 0.99);
  }
}

TEST(SparseSpanner, InitIsValidAndSparse) {
  const size_t n = 120;
  auto edges = gen_erdos_renyi(n, 1200, 3);
  SparseSpannerConfig cfg;
  cfg.seed = 17;
  SparseSpanner sp(n, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(n, edges, sp.spanner_edges(), sp.stretch_bound()))
      << "stretch_bound=" << sp.stretch_bound();
  // Theorem 1.3: O(n) edges — generous constant for small n.
  EXPECT_LE(sp.spanner_size(), 6 * n);
}

class SparseSpannerRandom
    : public ::testing::TestWithParam<std::tuple<size_t, size_t,
                                                 std::vector<double>,
                                                 uint64_t>> {};

TEST_P(SparseSpannerRandom, MixedStreamKeepsEverything) {
  auto [n, m, xs, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 20, 10, seed);
  SparseSpannerConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.xs = xs;
  SparseSpanner sp(n, initial, cfg);
  ASSERT_TRUE(sp.check_invariants());

  std::unordered_set<EdgeKey> live, mat;
  for (const Edge& e : initial) live.insert(e.key());
  for (const Edge& e : sp.spanner_edges()) mat.insert(e.key());

  for (auto& b : batches) {
    auto diff = sp.update(b.insertions, b.deletions);
    for (const Edge& e : b.deletions) live.erase(e.key());
    for (const Edge& e : b.insertions) live.insert(e.key());
    for (const Edge& e : diff.removed) {
      ASSERT_TRUE(mat.count(e.key()));
      mat.erase(e.key());
    }
    for (const Edge& e : diff.inserted) {
      ASSERT_TRUE(!mat.count(e.key()));
      mat.insert(e.key());
    }
    ASSERT_EQ(mat.size(), sp.spanner_size());
    ASSERT_TRUE(sp.check_invariants());
    std::vector<Edge> alive;
    for (EdgeKey ek : live) alive.push_back(edge_from_key(ek));
    ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(),
                           sp.stretch_bound()));
    for (const Edge& e : sp.spanner_edges())
      ASSERT_TRUE(live.count(e.key()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseSpannerRandom,
    ::testing::Values(
        std::make_tuple(size_t{40}, size_t{160}, std::vector<double>{},
                        uint64_t{1}),
        std::make_tuple(size_t{60}, size_t{300}, std::vector<double>{3.0},
                        uint64_t{2}),
        std::make_tuple(size_t{60}, size_t{300},
                        std::vector<double>{2.0, 2.0}, uint64_t{3}),
        std::make_tuple(size_t{80}, size_t{400},
                        std::vector<double>{3.0, 2.0, 2.0}, uint64_t{4}),
        std::make_tuple(size_t{30}, size_t{90}, std::vector<double>{4.0},
                        uint64_t{5})));

TEST(SparseSpanner, RepChangedPairsSwapRepresentatives) {
  const size_t n = 150;
  auto [initial, batches] = gen_mixed_stream(n, 600, 30, 40, 11);
  SparseSpannerConfig cfg;
  cfg.seed = 23;
  cfg.xs = {2.5, 2.0};
  SparseSpanner sp(n, initial, cfg);
  ASSERT_EQ(sp.num_layers(), 2u);
  // A twin of the spanner's layer 0: SparseSpanner builds layer i from the
  // canonical edge list with seed hash_combine(cfg.seed, 0xc0 + i) and
  // feeds layer 0 the raw batches, so the twin reports the rep_changed
  // pairs that S_0 = H_0 ∪ rep(S_1) must follow.
  std::vector<Edge> canon;
  for (EdgeKey ek : canonical_edge_keys(n, initial))
    canon.push_back(edge_from_key(ek));
  ContractionLayer layer0(n, canon, cfg.xs[0], hash_combine(cfg.seed, 0xc0));

  size_t reporting_batches = 0, swaps = 0;
  for (auto& b : batches) {
    auto reps_before = reps_of(layer0);
    auto s_before = key_set(sp.spanner_edges());
    auto res = layer0.update(b.insertions, b.deletions);
    auto diff = sp.update(b.insertions, b.deletions);
    ASSERT_TRUE(sp.check_invariants());
    auto reps_after = reps_of(layer0);
    auto s_after = key_set(sp.spanner_edges());
    auto h_after = key_set(layer0.h_edges());
    for (EdgeKey ek : h_after) ASSERT_TRUE(s_after.count(ek));  // twin in step
    std::unordered_set<EdgeKey> current_reps;
    for (auto& [pk, r] : reps_after) current_reps.insert(r);

    if (!res.rep_changed.empty()) ++reporting_batches;
    for (const Edge& p : res.rep_changed) {
      ASSERT_TRUE(reps_before.count(p.key()));  // existed before the batch
      ASSERT_TRUE(reps_after.count(p.key()));   // and survived it
      EdgeKey old_rep = reps_before[p.key()], new_rep = reps_after[p.key()];
      ASSERT_NE(old_rep, new_rep);
      // Bucket members are never in H_0, so p was in S_1 iff its
      // representative was in S_0.
      if (!s_before.count(old_rep)) continue;
      // The old representative leaves S_0 unless it took another role.
      if (!h_after.count(old_rep) && !current_reps.count(old_rep))
        ASSERT_TRUE(has_key(diff.removed, old_rep));
      // While p stays in S_1, the new representative stands in for it.
      if (s_after.count(new_rep)) {
        ASSERT_TRUE(s_before.count(new_rep) ||
                    has_key(diff.inserted, new_rep));
        ++swaps;
      }
    }
  }
  EXPECT_GT(reporting_batches, 0u);
  EXPECT_GT(swaps, 0u);
}

TEST(SparseSpanner, FullDeletionThenRebuild) {
  auto edges = gen_erdos_renyi(50, 250, 9);
  SparseSpannerConfig cfg;
  cfg.seed = 2;
  cfg.xs = {2.5, 2.0};
  SparseSpanner sp(50, edges, cfg);
  sp.delete_edges(edges);
  EXPECT_EQ(sp.spanner_size(), 0u);
  EXPECT_TRUE(sp.check_invariants());
  sp.insert_edges(edges);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(50, edges, sp.spanner_edges(), sp.stretch_bound()));
}

}  // namespace
}  // namespace parspan
