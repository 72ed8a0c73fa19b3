// Tests for the ultra-sparse spanner (Lemma 5.1 / Theorem 1.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

TEST(UltraSparseSpanner, InitIsValidSpanner) {
  for (uint64_t seed : {1u, 2u}) {
    // Mixed degrees: a dense core (heavy vertices) + sparse periphery.
    auto edges = gen_erdos_renyi(80, 900, seed);
    UltraConfig cfg;
    cfg.x = 2;
    cfg.seed = seed * 11 + 3;
    UltraSparseSpanner sp(80, edges, cfg);
    EXPECT_TRUE(sp.check_invariants());
    EXPECT_TRUE(
        is_spanner(80, edges, sp.spanner_edges(), sp.stretch_bound()))
        << "seed=" << seed << " bound=" << sp.stretch_bound();
  }
}

TEST(UltraSparseSpanner, UltraSparsity) {
  // Theorem 1.4: n + O(n/x) edges. With a forest-dominated composition the
  // edge count must stay close to n.
  const size_t n = 300;
  auto edges = gen_erdos_renyi(n, 3000, 5);
  UltraConfig cfg;
  cfg.x = 3;
  cfg.seed = 7;
  UltraSparseSpanner sp(n, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_LE(sp.spanner_size(), n + n);  // generous O(n/x) slack at small n
}

class UltraRandom : public ::testing::TestWithParam<
                        std::tuple<size_t, size_t, uint32_t, uint64_t>> {};

TEST_P(UltraRandom, MixedStreamKeepsInvariants) {
  auto [n, m, x, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 16, 8, seed);
  UltraConfig cfg;
  cfg.x = x;
  cfg.seed = seed ^ 0xabcd;
  UltraSparseSpanner sp(n, initial, cfg);
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
    ASSERT_TRUE(
        is_spanner(n, alive, sp.spanner_edges(), sp.stretch_bound()));
    for (const Edge& e : sp.spanner_edges())
      ASSERT_TRUE(live.count(e.key()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UltraRandom,
    ::testing::Values(
        std::make_tuple(size_t{30}, size_t{200}, uint32_t{2}, uint64_t{1}),
        std::make_tuple(size_t{40}, size_t{500}, uint32_t{2}, uint64_t{2}),
        std::make_tuple(size_t{50}, size_t{300}, uint32_t{3}, uint64_t{3}),
        std::make_tuple(size_t{25}, size_t{80}, uint32_t{2}, uint64_t{4}),
        std::make_tuple(size_t{60}, size_t{900}, uint32_t{4}, uint64_t{5})));

/// Contracted pair (Head(u), Head(v)) -> its member edge in S. S holds the
/// representative of each pair of the next level's spanner and no other
/// member of any pair, so a pair has at most one stand-in.
std::unordered_map<EdgeKey, EdgeKey> stand_ins(
    const UltraSparseSpanner& sp, const std::unordered_set<EdgeKey>& live) {
  std::unordered_map<EdgeKey, EdgeKey> out;
  for (EdgeKey ek : live) {
    Edge e = edge_from_key(ek);
    VertexId hu = sp.head(e.u), hv = sp.head(e.v);
    if (hu == kNoVertex || hv == kNoVertex || hu == hv) continue;
    if (!sp.in_spanner(e)) continue;
    EXPECT_TRUE(out.emplace(edge_key(hu, hv), ek).second);
  }
  return out;
}

bool has_key(const std::vector<Edge>& es, EdgeKey ek) {
  return std::any_of(es.begin(), es.end(),
                     [&](const Edge& e) { return e.key() == ek; });
}

TEST(UltraSparseSpanner, RepChangedPairsSwapRepresentatives) {
  // A pair that stays in the next level's spanner while its representative
  // changes (rep_changed) must swap stand-ins in S within the same batch:
  // the old representative leaves, the new one enters.
  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1000, 40, 40, 17);
  UltraConfig cfg;
  cfg.x = 2;
  cfg.seed = 29;
  UltraSparseSpanner sp(n, initial, cfg);
  std::unordered_set<EdgeKey> live;
  for (const Edge& e : initial) live.insert(e.key());

  size_t swaps = 0;
  for (auto& b : batches) {
    auto before = stand_ins(sp, live);
    std::unordered_set<EdgeKey> s_before;
    for (const Edge& e : sp.spanner_edges()) s_before.insert(e.key());
    auto diff = sp.update(b.insertions, b.deletions);
    ASSERT_TRUE(sp.check_invariants());
    for (const Edge& e : b.deletions) live.erase(e.key());
    for (const Edge& e : b.insertions) live.insert(e.key());
    auto after = stand_ins(sp, live);
    for (auto& [pk, old_rep] : before) {
      auto it = after.find(pk);
      if (it == after.end() || it->second == old_rep) continue;
      EdgeKey new_rep = it->second;
      ++swaps;
      ASSERT_TRUE(has_key(diff.removed, old_rep) ||
                  sp.in_spanner(edge_from_key(old_rep)));
      ASSERT_TRUE(has_key(diff.inserted, new_rep) || s_before.count(new_rep));
    }
  }
  EXPECT_GT(swaps, 0u);
}

TEST(UltraSparseSpanner, DeleteEverything) {
  auto edges = gen_erdos_renyi(40, 400, 9);
  UltraConfig cfg;
  cfg.x = 2;
  cfg.seed = 13;
  UltraSparseSpanner sp(40, edges, cfg);
  auto diff = sp.delete_edges(edges);
  EXPECT_EQ(sp.spanner_size(), 0u);
  EXPECT_EQ(sp.num_edges(), 0u);
  EXPECT_TRUE(sp.check_invariants());
}

TEST(UltraSparseSpanner, SparseGraphBotComponents) {
  // Tiny disconnected components stay ⊥ and are covered by the H2 forest.
  std::vector<Edge> edges;
  for (VertexId b = 0; b < 30; b += 3) {
    edges.emplace_back(b, b + 1);
    edges.emplace_back(b + 1, b + 2);
  }
  UltraConfig cfg;
  cfg.x = 4;  // T = 80: everything light, components tiny
  cfg.seed = 3;
  UltraSparseSpanner sp(30, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(30, edges, sp.spanner_edges(), sp.stretch_bound()));
  // Components with no sampled vertex are ⊥-clusters in the H2 forest; the
  // spanner of a forest is the forest itself.
  EXPECT_EQ(sp.spanner_size(), edges.size());
}

class UltraChurnShape : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UltraChurnShape, ReachPrunedRecomputeAcrossThreadCounts) {
  // perfbench's ultra-churn shape scaled down: average degree 3.2, so most
  // vertices are light and many have a candidate closer than T. Algorithm 6
  // then reaches light vertices past their reach and skips them; every
  // batch must still leave the heads, parents and reaches a fresh
  // Algorithm 5 computes (check_invariants), at 1 and at 4 workers alike.
  const uint32_t x = GetParam();
  const size_t n = 4096;
  auto [initial, batches] = gen_mixed_stream(n, 6554, 64, 40, 23);
  UltraConfig cfg;
  cfg.x = x;
  cfg.seed = 31;

  int saved = num_workers();
  std::vector<SpannerDiff> base;
  std::vector<std::vector<Edge>> base_spanner;
  size_t short_reach = 0;  // light unsampled vertices with reach < T
  set_num_workers(1);
  {
    UltraSparseSpanner sp(n, initial, cfg);
    for (size_t i = 0; i < batches.size(); ++i) {
      base.push_back(sp.update(batches[i].insertions, batches[i].deletions));
      base_spanner.push_back(sp.spanner_edges());
      ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    }
    for (VertexId v = 0; v < n; ++v)
      if (sp.reach(v) > 0 && sp.reach(v) < sp.heavy_threshold()) ++short_reach;
  }
  EXPECT_GT(short_reach, n / 4);
  set_num_workers(4);
  {
    UltraSparseSpanner sp(n, initial, cfg);
    for (size_t i = 0; i < batches.size(); ++i) {
      SpannerDiff d = sp.update(batches[i].insertions, batches[i].deletions);
      ASSERT_EQ(d.inserted, base[i].inserted) << "batch " << i;
      ASSERT_EQ(d.removed, base[i].removed) << "batch " << i;
      ASSERT_EQ(sp.spanner_edges(), base_spanner[i]) << "batch " << i;
      ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    }
  }
  set_num_workers(saved);
}

INSTANTIATE_TEST_SUITE_P(X, UltraChurnShape, ::testing::Values(2u, 3u));

/// Heads and H1 parents of `sp` equal those of a structure built from
/// scratch on `edges` (a forest here, so every BFS parent is unique).
void expect_matches_fresh(const UltraSparseSpanner& sp, size_t n,
                          const std::vector<Edge>& edges,
                          const UltraConfig& cfg) {
  UltraSparseSpanner fresh(n, edges, cfg);
  ASSERT_TRUE(sp.check_invariants());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(sp.head(v), fresh.head(v)) << "v=" << v;
    ASSERT_EQ(sp.parent(v), fresh.parent(v)) << "v=" << v;
    ASSERT_EQ(sp.reach(v), fresh.reach(v)) << "v=" << v;
  }
}

TEST(UltraSparseSpanner, TouchAtReachRecomputesTouchPastReachSkips) {
  // A path a_0 .. a_62 of unsampled vertices hangs off a sampled vertex s,
  // so a_i heads to s at distance i+1 (its reach) while i+1 <= T = 20.
  // Making a path vertex heavy with no sampled neighbor turns it into its
  // own center (D'), offered at its exact distance.
  //  * Past reach: a_12 turns heavy. a_5 (reach 6) sits at distance 7 from
  //    it, so Algorithm 6 reaches a_5 past its reach and skips it; a_5
  //    still heads to s, while a_6 .. a_11 move to a_12.
  //  * At reach: a_60 turns heavy. a_40 (no candidate within T, reach T)
  //    sits at distance exactly T from it and must move to a_60.
  UltraConfig cfg;
  cfg.x = 2;
  cfg.seed = 5;
  const size_t n = 400;
  std::vector<VertexId> unsampled;
  VertexId s = kNoVertex;
  {
    UltraSparseSpanner probe(n, {}, cfg);  // sampling depends on n, seed only
    ASSERT_EQ(probe.heavy_threshold(), 20u);
    for (VertexId v = 0; v < n; ++v) {
      if (!probe.is_sampled(v))
        unsampled.push_back(v);
      else if (s == kNoVertex)
        s = v;
    }
  }
  const size_t path_len = 63, leaves = 18;  // a_i degree 2 + 18 = T: heavy
  ASSERT_NE(s, kNoVertex);
  ASSERT_GE(unsampled.size(), path_len + 2 * leaves);
  auto a = [&](size_t i) { return unsampled[i]; };
  std::vector<Edge> edges{Edge(s, a(0))};
  for (size_t i = 0; i + 1 < path_len; ++i) edges.emplace_back(a(i), a(i + 1));
  UltraSparseSpanner sp(n, edges, cfg);
  expect_matches_fresh(sp, n, edges, cfg);
  ASSERT_EQ(sp.head(a(5)), s);
  ASSERT_EQ(sp.reach(a(5)), 6u);
  ASSERT_EQ(sp.reach(a(40)), 20u);
  ASSERT_EQ(sp.head(a(40)), a(40));  // unclustered: ball exceeds T

  size_t next_leaf = path_len;
  auto make_heavy = [&](VertexId hub) {
    std::vector<Edge> ins;
    for (size_t j = 0; j < leaves; ++j)
      ins.emplace_back(hub, unsampled[next_leaf++]);
    sp.insert_edges(ins);
    edges.insert(edges.end(), ins.begin(), ins.end());
  };

  make_heavy(a(12));  // distance reach(a_5) + 1 from a_5
  expect_matches_fresh(sp, n, edges, cfg);
  EXPECT_EQ(sp.head(a(12)), a(12));
  EXPECT_EQ(sp.head(a(6)), a(12));
  EXPECT_EQ(sp.head(a(5)), s);
  EXPECT_EQ(sp.parent(a(5)), a(4));
  EXPECT_EQ(sp.reach(a(5)), 6u);
  ASSERT_EQ(sp.head(a(40)), a(40));
  ASSERT_EQ(sp.reach(a(40)), 20u);

  make_heavy(a(60));  // distance exactly reach(a_40) = T from a_40
  expect_matches_fresh(sp, n, edges, cfg);
  EXPECT_EQ(sp.head(a(40)), a(60));
  EXPECT_EQ(sp.parent(a(40)), a(41));
  EXPECT_EQ(sp.reach(a(40)), 20u);
  EXPECT_EQ(sp.head(a(39)), a(39));  // distance T + 1: out of range
}

}  // namespace
}  // namespace parspan
