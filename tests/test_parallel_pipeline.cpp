// Tests for the parallel batch-update pipeline (DESIGN.md §6): the
// Bentley-Saxe capacity invariants (B1 for the spanner, B2 for the
// sparsifier) under adversarial insert/delete interleavings and pending-slot
// absorption, thread-count determinism of both wrappers' diffs, and the
// (2k-1)-stretch guarantee over a long mixed update stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "core/sparsifier.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

// --- The two Bentley-Saxe wrappers under one set of partition tests. -----
// FullyDynamicSpanner (Invariant B1) and FullyDynamicSparsifier (Invariant
// B2) share the reduction core, so the adversarial-chunking, pending-slot
// and thread-count tests below run over both. Outputs are compared as
// sorted (key, weight) items; spanner edges carry weight 1.
using Item = std::pair<EdgeKey, double>;

Item item(const Edge& e) { return {e.key(), 1.0}; }
Item item(const WeightedEdge& we) { return {we.e.key(), we.w}; }

/// The items of `v` in the order `v` holds them.
template <class V>
std::vector<Item> in_order(const V& v) {
  std::vector<Item> out;
  for (const auto& x : v) out.push_back(item(x));
  return out;
}

template <class V>
std::vector<Item> items(const V& v) {
  std::vector<Item> out = in_order(v);
  std::sort(out.begin(), out.end());
  return out;
}

struct SpannerCase {
  using Structure = FullyDynamicSpanner;
  static Structure make(size_t n, const std::vector<Edge>& initial,
                        uint64_t seed, uint32_t k) {
    FullyDynamicSpannerConfig cfg;
    cfg.k = k;
    cfg.seed = seed;
    return Structure(n, initial, cfg);
  }
  static std::vector<Edge> output(const Structure& s) {
    return s.spanner_edges();
  }
  /// capacity(0) = 2^{l0}, the smallest power of two >= n^{1+1/k}.
  static size_t base_capacity(size_t n, uint32_t k) {
    double target = std::pow(double(n), 1.0 + 1.0 / double(k));
    size_t c = 1;
    while (double(c) < target) c *= 2;
    return c;
  }
  /// The output guarantee: a (2k-1)-spanner of the live graph.
  static bool valid(size_t n, const std::vector<Edge>& live,
                    const Structure& s, uint32_t k) {
    return is_spanner(n, live, s.spanner_edges(), 2 * k - 1);
  }
};

struct SparsifierCase {
  using Structure = FullyDynamicSparsifier;
  static Structure make(size_t n, const std::vector<Edge>& initial,
                        uint64_t seed, uint32_t /*k*/) {
    FullyDynamicSparsifierConfig cfg;
    cfg.stage.t = 2;
    cfg.stage.instances = 3;
    cfg.stage.seed = seed ^ 0x5151;
    cfg.seed = seed;
    return Structure(n, initial, cfg);
  }
  static std::vector<WeightedEdge> output(const Structure& s) {
    return s.sparsifier_edges();
  }
  /// capacity(0) = 2^{l0}, the smallest power of two >= n.
  static size_t base_capacity(size_t n, uint32_t /*k*/) {
    size_t c = 1;
    while (c < n) c *= 2;
    return c;
  }
  /// Every sparsifier edge is a live edge of the graph.
  static bool valid(size_t /*n*/, const std::vector<Edge>& live,
                    const Structure& s, uint32_t /*k*/) {
    std::unordered_set<EdgeKey> alive;
    for (const Edge& e : live) alive.insert(e.key());
    for (const WeightedEdge& we : s.sparsifier_edges())
      if (!alive.count(we.e.key())) return false;
    return true;
  }
};

template <class Case>
class BentleySaxeWrappers : public ::testing::Test {};

struct CaseNames {
  template <class Case>
  static std::string GetName(int) {
    return std::is_same_v<Case, SpannerCase> ? "Spanner" : "Sparsifier";
  }
};
using Cases = ::testing::Types<SpannerCase, SparsifierCase>;
TYPED_TEST_SUITE(BentleySaxeWrappers, Cases, CaseNames);

// --- Capacity invariant under adversarial interleavings. ------------------
// The stream is crafted against the Bentley-Saxe chunking: insertion bursts
// sized at and around partition capacities (the spanner's 2^{l0} = 512 and
// the sparsifier's 64, 128, 256, so chunks land on slot boundaries),
// deletions aimed at freshly rebuilt partitions (draining them below
// capacity), and immediate re-insertion of just-deleted edges.
TYPED_TEST(BentleySaxeWrappers, InvariantB1AdversarialInterleavings) {
  using Case = TypeParam;
  const size_t n = 48;
  const uint32_t k = 2;
  auto sp = Case::make(n, {}, 99, k);
  ASSERT_TRUE(sp.check_invariants());

  // All edges of K_n, shuffled deterministically.
  std::vector<Edge> universe;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) universe.emplace_back(u, v);
  Rng rng(7);
  for (size_t i = universe.size(); i > 1; --i)
    std::swap(universe[i - 1], universe[rng.next_below(i)]);

  // Phase 1: insert in bursts matched to capacities 2^{l0}, 2^{l0+1}, ...
  // plus off-by-one sizes to stress the remainder path.
  std::vector<size_t> bursts = {1, 128, 127, 129, 256, 255, 64, 63, 65};
  size_t pos = 0;
  std::vector<Edge> live;
  for (size_t b : bursts) {
    std::vector<Edge> ins;
    for (size_t i = 0; i < b && pos < universe.size(); ++i)
      ins.push_back(universe[pos++]);
    live.insert(live.end(), ins.begin(), ins.end());
    sp.update(ins, {});
    ASSERT_TRUE(sp.check_invariants()) << "after burst of " << b;
  }

  // Phase 2: alternate deleting a prefix of the live set and re-inserting
  // half of it in the same batch, repeatedly hitting the same partitions.
  for (int round = 0; round < 10; ++round) {
    size_t del_count = std::min<size_t>(live.size(), 96 + size_t(round));
    std::vector<Edge> del(live.begin(), live.begin() + del_count);
    std::vector<Edge> reins(del.begin(), del.begin() + del_count / 2);
    sp.update(reins, del);
    live.erase(live.begin() + del_count / 2, live.begin() + del_count);
    ASSERT_TRUE(sp.check_invariants()) << "round " << round;
    ASSERT_EQ(sp.num_edges(), live.size());
    ASSERT_TRUE(Case::valid(n, live, sp, k));
    // Rotate so later rounds target different edges.
    std::rotate(live.begin(), live.begin() + live.size() / 3, live.end());
  }
}

// --- Pending-slot absorption within one batch. ----------------------------
// A batch whose chunk decomposition fills a slot and then, for a smaller
// chunk, scans past it to a higher slot absorbs a partition whose rebuild
// job is still pending (filled edges, no installed instance yet). The job
// must be cancelled and its edges merged without phantom diff removals.
// Regression test: the pipeline's phased rebuild once took the E_0-style
// branch here and emitted thousands of "removed" entries for edges that
// were never in the output.
TYPED_TEST(BentleySaxeWrappers, PendingSlotAbsorbedByLargerMerge) {
  using Case = TypeParam;
  // Spanner: k = 8, l0 = 12 (capacity(0) = 4096); sparsifier: l0 = 8.
  const size_t n = std::is_same_v<Case, SpannerCase> ? 1024 : 256;
  const uint32_t k = 8;
  const size_t cap0 = Case::base_capacity(n, k);
  auto initial = gen_erdos_renyi(n, cap0 + cap0 / 4, 1);  // lands in slot 1
  auto sp = Case::make(n, initial, 13, k);
  ASSERT_TRUE(sp.check_invariants());
  ASSERT_EQ(sp.num_partitions(), 2u);

  std::unordered_set<EdgeKey> have;
  for (const Edge& e : initial) have.insert(e.key());
  std::multiset<Item> mat;
  for (const Item& it : items(Case::output(sp))) mat.insert(it);

  // capacity(2) + capacity(1) fresh edges: chunk i=2 fills slot 2 (job
  // pending), chunk i=1 scans past slots 1 and 2 into slot 3, absorbing
  // the pending slot 2.
  std::vector<Edge> fresh;
  Rng rng(4242);
  while (fresh.size() < 4 * cap0 + 2 * cap0) {
    VertexId u = VertexId(rng.next_below(n));
    VertexId v = VertexId(rng.next_below(n));
    if (u == v || have.count(edge_key(u, v))) continue;
    fresh.emplace_back(u, v);
    have.insert(edge_key(u, v));
  }
  uint64_t rebuilds_before = sp.rebuilds();
  auto diff = sp.update(fresh, {});
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_EQ(sp.num_edges(), have.size());
  EXPECT_EQ(sp.num_partitions(), 4u);
  EXPECT_EQ(sp.rebuilds(), rebuilds_before + 2);  // one of them cancelled
  // The diff must transform the old output set into the new one exactly.
  for (const Item& it : items(diff.removed)) {
    auto at = mat.find(it);
    ASSERT_TRUE(at != mat.end()) << "phantom removal";
    mat.erase(at);
  }
  for (const Item& it : items(diff.inserted)) {
    ASSERT_TRUE(!mat.count(it));
    mat.insert(it);
  }
  std::vector<Item> now = items(Case::output(sp));
  EXPECT_EQ(std::vector<Item>(mat.begin(), mat.end()), now);
}

// --- Diff determinism across thread counts. -------------------------------
// The same construction + update stream must produce byte-identical diffs
// whether the pipeline runs on 1 worker or 4 (DESIGN.md §6's contract):
// deletions fan out across partitions and rebuilds are built concurrently.
TYPED_TEST(BentleySaxeWrappers, SpannerDiffDeterministicAcrossThreadCounts) {
  using Case = TypeParam;
  const size_t n = 300;
  const uint32_t k = 3;
  auto [initial, batches] = gen_mixed_stream(n, 6000, 200, 25, 17);
  // Insertion bursts big enough to force partition rebuilds (and their
  // parallel merge sorts) mid-stream.
  auto extra = gen_erdos_renyi(n, 3000, 23);
  batches.push_back(UpdateBatch{extra, {}});
  batches.push_back(UpdateBatch{{}, extra});

  int saved = num_workers();
  std::vector<std::pair<std::vector<Item>, std::vector<Item>>> base;
  std::vector<std::vector<Item>> base_output;
  {
    set_num_workers(1);
    auto sp = Case::make(n, initial, 5, k);
    for (auto& b : batches) {
      auto d = sp.update(b.insertions, b.deletions);
      base.push_back({in_order(d.inserted), in_order(d.removed)});
      base_output.push_back(items(Case::output(sp)));
    }
  }
  {
    set_num_workers(4);
    auto sp = Case::make(n, initial, 5, k);
    for (size_t i = 0; i < batches.size(); ++i) {
      auto d = sp.update(batches[i].insertions, batches[i].deletions);
      // Entry by entry, in the order each diff was returned.
      ASSERT_EQ(in_order(d.inserted), base[i].first) << "batch " << i;
      ASSERT_EQ(in_order(d.removed), base[i].second) << "batch " << i;
      ASSERT_EQ(items(Case::output(sp)), base_output[i]) << "batch " << i;
    }
  }
  set_num_workers(saved);
}

// --- Diff output is sorted by canonical key. ------------------------------
TEST(ParallelPipeline, DiffSidesSortedByKey) {
  const size_t n = 120;
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 2;
  auto edges = gen_erdos_renyi(n, 1500, 3);
  FullyDynamicSpanner sp(n, edges, cfg);
  auto stream = gen_decremental_stream(edges, 200, 9);
  for (auto& b : stream) {
    SpannerDiff d = sp.update(b.insertions, b.deletions);
    ASSERT_TRUE(std::is_sorted(d.inserted.begin(), d.inserted.end()));
    ASSERT_TRUE(std::is_sorted(d.removed.begin(), d.removed.end()));
  }
  EXPECT_EQ(sp.num_edges(), 0u);
}

// --- Stretch after 100 mixed batches. -------------------------------------
// End-to-end: the maintained edge set stays a (2k-1)-spanner of the live
// graph through a long adversary-independent mixed stream.
TEST(ParallelPipeline, StretchHoldsAfter100MixedBatches) {
  const size_t n = 200;
  const uint32_t k = 3;
  auto [initial, batches] = gen_mixed_stream(n, 2400, 40, 100, 31);
  ASSERT_EQ(batches.size(), 100u);
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 77;
  FullyDynamicSpanner sp(n, initial, cfg);

  std::unordered_set<EdgeKey> live;
  for (const Edge& e : initial) live.insert(e.key());
  for (size_t i = 0; i < batches.size(); ++i) {
    sp.update(batches[i].insertions, batches[i].deletions);
    for (const Edge& e : batches[i].deletions) live.erase(e.key());
    for (const Edge& e : batches[i].insertions) live.insert(e.key());
    if (i % 10 == 9 || i + 1 == batches.size()) {
      std::vector<Edge> alive;
      for (EdgeKey ek : live) alive.push_back(edge_from_key(ek));
      ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(), 2 * k - 1))
          << "batch " << i;
      ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    }
  }
  ASSERT_EQ(live.size(), sp.num_edges());
}

}  // namespace
}  // namespace parspan
