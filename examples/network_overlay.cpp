// Network overlay scenario: a service mesh whose links churn over time
// (sliding window) while the control plane maintains an O(n)-edge overlay
// with polylogarithmic stretch — the sparse spanner of Theorem 1.3.
//
// This is the packet-routing motivation of the paper's introduction: the
// overlay has asymptotically as few edges as a spanning tree, yet routing
// over it only stretches paths by a polylog factor.
#include <cstdio>

#include "core/sparse_spanner.hpp"
#include "graph/bfs.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace parspan;

int main() {
  const size_t n = 1500;
  auto [initial, batches] =
      gen_sliding_window(n, /*universe=*/30000, /*window=*/12000,
                         /*batch=*/400, /*num_batches=*/15, /*seed=*/3);

  SparseSpannerConfig cfg;
  cfg.seed = 11;
  Timer t;
  SparseSpanner overlay(n, initial, cfg);
  std::printf(
      "overlay init: %zu links -> %zu overlay edges (%.2f per node, "
      "stretch bound %u) in %.1f ms\n",
      initial.size(), overlay.spanner_size(),
      double(overlay.spanner_size()) / double(n), overlay.stretch_bound(),
      t.elapsed_ms());

  DynamicGraph g(n);
  g.insert_edges(initial);
  Rng rng(99);
  bool stretch_ok = true;
  for (size_t i = 0; i < batches.size(); ++i) {
    t.reset();
    overlay.update(batches[i].insertions, batches[i].deletions);
    double ms = t.elapsed_ms();
    g.erase_edges(batches[i].deletions);
    g.insert_edges(batches[i].insertions);

    // Spot-check: routing stretch on a few random connected pairs.
    DynamicGraph h(n);
    h.insert_edges(overlay.spanner_edges());
    double worst = 0;
    for (int probe = 0; probe < 5; ++probe) {
      VertexId s = VertexId(rng.next_below(n));
      auto dg = bfs_distances(g, s);
      auto dh = bfs_distances(h, s);
      for (int q = 0; q < 20; ++q) {
        VertexId v = VertexId(rng.next_below(n));
        if (dg[v] == kUnreached || dg[v] == 0) continue;
        worst = std::max(worst, double(dh[v]) / double(dg[v]));
      }
    }
    stretch_ok = stretch_ok && worst <= double(overlay.stretch_bound());
    std::printf(
        "epoch %2zu: %6zu links, overlay %5zu edges (%.2f/node), sampled "
        "stretch <= %.1f, update %.2f ms\n",
        i, g.num_edges(), overlay.spanner_size(),
        double(overlay.spanner_size()) / double(n), worst, ms);
  }
  // Both checks decide the exit code: any NO exits 1.
  const bool invariants_ok = overlay.check_invariants();
  std::printf("sampled stretch within bound %u: %s; invariants hold: %s\n",
              overlay.stretch_bound(), stretch_ok ? "YES" : "NO",
              invariants_ok ? "YES" : "NO");
  return stretch_ok && invariants_ok ? 0 : 1;
}
