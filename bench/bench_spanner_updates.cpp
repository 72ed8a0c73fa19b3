// E3 (Theorem 1.1): amortized update cost and recourse per edge vs batch
// size. The theorem predicts O(k log^2 n) amortized work and recourse per
// updated edge, independent of the batch size; wall-clock per edge should
// therefore flatten (and improve with batching constants).
//
// E9: the same stream with a static Baswana-Sen [BS07] recompute after
// every batch instead. Both families run on one (n, batch) grid and one
// stream, so the dynamic-vs-recompute crossover reads off a single run: the
// dynamic structure should win for small batches and lose its edge as the
// batch grows toward m.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/baselines/baswana_sen.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"

namespace parspan {
namespace {

constexpr uint32_t kK = 3;

std::pair<std::vector<Edge>, std::vector<UpdateBatch>> stream_for(
    const benchmark::State& state) {
  size_t n = size_t(state.range(0));
  size_t batch = size_t(state.range(1));
  // Denser than n^{1+1/k} so the decremental instances do real work.
  size_t m = size_t(3.0 * std::pow(double(n), 1.0 + 1.0 / kK));
  return gen_mixed_stream(n, m, batch, 40, 17);
}

void grid(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{1024, 4096}, {16, 64, 256, 1024}})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

void BM_SpannerUpdates(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  auto [initial, batches] = stream_for(state);
  double recourse = 0, edges_updated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FullyDynamicSpannerConfig cfg;
    cfg.k = kK;
    cfg.seed = 3;
    FullyDynamicSpanner sp(n, initial, cfg);
    recourse = 0;
    edges_updated = 0;
    state.ResumeTiming();
    for (auto& b : batches) {
      auto diff = sp.update(b.insertions, b.deletions);
      recourse += double(diff.inserted.size() + diff.removed.size());
      edges_updated += double(b.insertions.size() + b.deletions.size());
    }
  }
  state.counters["recourse_per_edge"] = recourse / edges_updated;
  state.counters["edges_updated"] = edges_updated;
  state.SetItemsProcessed(int64_t(edges_updated) *
                          int64_t(state.iterations()));
}

BENCHMARK(BM_SpannerUpdates)->Apply(grid);

void BM_StaticRecompute(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  auto [initial, batches] = stream_for(state);
  double edges_updated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DynamicGraph g(n);
    g.insert_edges(initial);
    edges_updated = 0;
    state.ResumeTiming();
    for (auto& b : batches) {
      g.erase_edges(b.deletions);
      g.insert_edges(b.insertions);
      auto h = baswana_sen_spanner(n, g.edges(), kK, 3);
      benchmark::DoNotOptimize(h.size());
      edges_updated += double(b.insertions.size() + b.deletions.size());
    }
  }
  state.counters["edges_updated"] = edges_updated;
  state.SetItemsProcessed(int64_t(edges_updated) *
                          int64_t(state.iterations()));
}

BENCHMARK(BM_StaticRecompute)->Apply(grid);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
