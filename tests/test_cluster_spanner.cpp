// Tests for the decremental (2k-1)-spanner of Lemma 3.3.
//
// Strategy: the structure carries a full oracle (check_invariants) that
// recomputes the cluster fixpoint, the InterCluster membership and the
// contribution refcounts from scratch; randomized decremental streams
// assert it after every batch, plus the (2k-1) stretch property via the
// spanner_check oracle, plus diff consistency against a materialized copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/cluster_spanner.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

std::vector<Edge> alive_edges(const std::vector<Edge>& all,
                              const std::unordered_set<EdgeKey>& dead) {
  std::vector<Edge> out;
  for (const Edge& e : all)
    if (!dead.count(e.key())) out.push_back(e);
  return out;
}

TEST(ClusterSpanner, InitIsValidSpanner) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto edges = gen_erdos_renyi(80, 400, seed);
    ClusterSpannerConfig cfg;
    cfg.k = 3;
    cfg.seed = seed * 7 + 1;
    DecrementalClusterSpanner sp(80, edges, cfg);
    EXPECT_TRUE(sp.check_invariants());
    auto h = sp.spanner_edges();
    EXPECT_TRUE(is_spanner(80, edges, h, 2 * cfg.k - 1))
        << "seed=" << seed << " |H|=" << h.size();
    EXPECT_LE(h.size(), edges.size());
  }
}

TEST(ClusterSpanner, SingletonAndTinyGraphs) {
  ClusterSpannerConfig cfg;
  cfg.k = 2;
  {
    DecrementalClusterSpanner sp(1, {}, cfg);
    EXPECT_EQ(sp.spanner_size(), 0u);
    EXPECT_TRUE(sp.check_invariants());
  }
  {
    DecrementalClusterSpanner sp(2, {{0, 1}}, cfg);
    EXPECT_EQ(sp.spanner_size(), 1u);  // single edge must be kept
    auto diff = sp.delete_edges({{0, 1}});
    EXPECT_EQ(diff.removed.size(), 1u);
    EXPECT_EQ(sp.spanner_size(), 0u);
    EXPECT_TRUE(sp.check_invariants());
  }
}

TEST(ClusterSpanner, DeleteAbsentAndDuplicate) {
  auto edges = gen_cycle(10);
  ClusterSpannerConfig cfg;
  cfg.k = 2;
  DecrementalClusterSpanner sp(10, edges, cfg);
  auto diff = sp.delete_edges({{3, 7}});  // absent edge
  EXPECT_TRUE(diff.inserted.empty());
  EXPECT_TRUE(diff.removed.empty());
  sp.delete_edges({{0, 1}});
  auto diff2 = sp.delete_edges({{0, 1}, {0, 1}});  // dead + duplicate
  EXPECT_TRUE(diff2.inserted.empty());
  EXPECT_TRUE(diff2.removed.empty());
  EXPECT_TRUE(sp.check_invariants());
}

class ClusterSpannerRandom
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint32_t, size_t, uint64_t>> {};

TEST_P(ClusterSpannerRandom, DecrementalStreamKeepsAllInvariants) {
  auto [n, m, k, batch, seed] = GetParam();
  auto edges = gen_erdos_renyi(n, m, seed);
  ClusterSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = seed ^ 0x5eed;
  DecrementalClusterSpanner sp(n, edges, cfg);
  ASSERT_TRUE(sp.check_invariants());

  // Materialized copy for diff cross-checking.
  std::unordered_set<EdgeKey> mat;
  for (const Edge& e : sp.spanner_edges()) mat.insert(e.key());

  auto stream = gen_decremental_stream(edges, batch, seed ^ 0xdead);
  std::unordered_set<EdgeKey> dead;
  for (auto& b : stream) {
    auto diff = sp.delete_edges(b.deletions);
    for (const Edge& e : b.deletions) dead.insert(e.key());
    // Apply diff to the materialized copy; must stay consistent.
    for (const Edge& e : diff.removed) {
      ASSERT_TRUE(mat.count(e.key())) << "removed edge not in spanner";
      mat.erase(e.key());
    }
    for (const Edge& e : diff.inserted) {
      ASSERT_TRUE(!mat.count(e.key())) << "inserted edge already in spanner";
      mat.insert(e.key());
    }
    ASSERT_EQ(mat.size(), sp.spanner_size());
    ASSERT_TRUE(sp.check_invariants())
        << "n=" << n << " m=" << m << " k=" << k << " seed=" << seed;
    // Spanner property on the remaining graph.
    auto alive = alive_edges(edges, dead);
    auto h = sp.spanner_edges();
    ASSERT_TRUE(is_spanner(n, alive, h, 2 * k - 1))
        << "alive=" << alive.size() << " |H|=" << h.size();
    // Spanner edges must be alive.
    for (const Edge& e : h) ASSERT_FALSE(dead.count(e.key()));
  }
  EXPECT_EQ(sp.spanner_size(), 0u);
  EXPECT_EQ(sp.alive_edges(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterSpannerRandom,
    ::testing::Values(
        std::make_tuple(size_t{25}, size_t{70}, uint32_t{2}, size_t{5},
                        uint64_t{1}),
        std::make_tuple(size_t{40}, size_t{120}, uint32_t{3}, size_t{11},
                        uint64_t{2}),
        std::make_tuple(size_t{40}, size_t{200}, uint32_t{4}, size_t{17},
                        uint64_t{3}),
        std::make_tuple(size_t{60}, size_t{180}, uint32_t{2}, size_t{30},
                        uint64_t{4}),
        std::make_tuple(size_t{60}, size_t{180}, uint32_t{5}, size_t{7},
                        uint64_t{5}),
        std::make_tuple(size_t{30}, size_t{60}, uint32_t{3}, size_t{60},
                        uint64_t{6}),
        std::make_tuple(size_t{80}, size_t{300}, uint32_t{3}, size_t{23},
                        uint64_t{7}),
        std::make_tuple(size_t{15}, size_t{105}, uint32_t{2}, size_t{9},
                        uint64_t{8})));

TEST(ClusterSpanner, ForestOnlyModeMaintainsForest) {
  // intercluster=false: only intra-cluster tree edges (Lemma 6.4 instance).
  auto edges = gen_erdos_renyi(50, 200, 5);
  ClusterSpannerConfig cfg;
  cfg.k = 3;
  cfg.intercluster = false;
  cfg.beta = 0.3;
  cfg.delta_cap = 20.0;
  DecrementalClusterSpanner sp(50, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  // A forest has < n edges.
  EXPECT_LT(sp.spanner_size(), 50u);
  auto stream = gen_decremental_stream(edges, 13, 77);
  for (auto& b : stream) {
    sp.delete_edges(b.deletions);
    ASSERT_TRUE(sp.check_invariants());
    ASSERT_LT(sp.spanner_size(), 50u);
  }
}

TEST(ClusterSpanner, ClusterChangesAreCounted) {
  auto edges = gen_erdos_renyi(60, 240, 6);
  ClusterSpannerConfig cfg;
  cfg.k = 4;
  DecrementalClusterSpanner sp(60, edges, cfg);
  auto stream = gen_decremental_stream(edges, 16, 42);
  for (auto& b : stream) sp.delete_edges(b.deletions);
  // Lemma 3.6: expected total cluster changes <= 2 t log n per vertex.
  double bound = 2.0 * sp.t() * std::log2(60.0) * 60.0;
  EXPECT_LE(double(sp.cluster_changes()), 4 * bound)
      << "cluster churn way above the Lemma 3.6 bound";
}

TEST(ClusterSpanner, CompleteGraphOneCluster) {
  // In a complete graph with k >= 2, a t=1 sampling keeps all clusters
  // singleton; with larger delta the highest-priority vertex tends to absorb
  // everything. Either way the structure must be a valid spanner.
  auto edges = gen_complete(12);
  ClusterSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 9;
  DecrementalClusterSpanner sp(12, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(12, edges, sp.spanner_edges(), 5));
}

TEST(ClusterSpanner, PathGraphKeepsAllEdges) {
  // A path is its own unique spanner: every edge is a bridge.
  auto edges = gen_path(20);
  ClusterSpannerConfig cfg;
  cfg.k = 4;
  DecrementalClusterSpanner sp(20, edges, cfg);
  EXPECT_EQ(sp.spanner_size(), edges.size());
  EXPECT_TRUE(sp.check_invariants());
}

// --- The owner-parallel cascade against its 1-worker run. ------------------
// A dense G(n, m) is large enough that Step 1's detach operations and the
// busiest cascade levels exceed parallel_for's inline cutoff (512 ops), so
// at 4 workers owners really are applied concurrently. Batches carry
// in-batch duplicates (either orientation), already-dead edges and absent
// pairs. Every diff must match the 1-worker run entry by entry, and so must
// the cluster-change count and the spanner after each batch.
struct CascadeRun {
  std::vector<SpannerDiff> diffs;
  std::vector<uint64_t> cluster_changes;
  std::vector<std::vector<Edge>> spanners;  // sorted
};

CascadeRun run_cascade(int workers, bool intercluster) {
  const size_t n = 1500;
  auto edges = gen_erdos_renyi(n, 30000, 41);
  std::vector<std::vector<Edge>> batches;
  Rng rng(43);
  std::vector<Edge> order = edges;
  std::shuffle(order.begin(), order.end(), rng);
  const size_t batch = 1500;
  for (size_t lo = 0; lo + batch <= order.size() / 2; lo += batch) {
    std::vector<Edge> b(order.begin() + lo, order.begin() + lo + batch);
    for (size_t i = 0; i < 100; ++i) {
      Edge dup = b[rng.next_below(batch)];
      b.push_back(i % 2 ? dup : Edge(dup.v, dup.u));
      if (lo > 0) b.push_back(order[rng.next_below(lo)]);  // already dead
      VertexId u = VertexId(rng.next_below(n)), v = VertexId(rng.next_below(n));
      if (u != v) b.emplace_back(u, v);  // absent unless it happens to exist
    }
    std::shuffle(b.begin(), b.end(), rng);
    batches.push_back(std::move(b));
  }

  int saved = num_workers();
  set_num_workers(workers);
  ClusterSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 47;
  cfg.intercluster = intercluster;
  DecrementalClusterSpanner sp(n, edges, cfg);
  CascadeRun run;
  for (const auto& b : batches) {
    run.diffs.push_back(sp.delete_edges(b));
    run.cluster_changes.push_back(sp.cluster_changes());
    auto h = sp.spanner_edges();
    std::sort(h.begin(), h.end());
    run.spanners.push_back(std::move(h));
  }
  EXPECT_TRUE(sp.check_invariants());
  set_num_workers(saved);
  return run;
}

class ClusterSpannerWorkers : public ::testing::TestWithParam<bool> {};

TEST_P(ClusterSpannerWorkers, DiffDeterministicAcrossThreadCounts) {
  bool intercluster = GetParam();
  CascadeRun one = run_cascade(1, intercluster);
  CascadeRun four = run_cascade(4, intercluster);
  ASSERT_EQ(one.diffs.size(), four.diffs.size());
  EXPECT_GT(one.cluster_changes.back(), 0u);
  for (size_t i = 0; i < one.diffs.size(); ++i) {
    ASSERT_EQ(four.diffs[i].inserted, one.diffs[i].inserted) << "batch " << i;
    ASSERT_EQ(four.diffs[i].removed, one.diffs[i].removed) << "batch " << i;
    ASSERT_EQ(four.cluster_changes[i], one.cluster_changes[i])
        << "batch " << i;
    ASSERT_EQ(four.spanners[i], one.spanners[i]) << "batch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ClusterSpannerWorkers, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "InterCluster" : "ForestOnly";
                         });

}  // namespace
}  // namespace parspan
