// Churn workloads: one paper structure driven directly (no service, WAL,
// replication or network) with mixed 50/50 insert/delete batches.
//
// A run is a sequence of rounds over the same inputs. Each round builds the
// structure from the same initial graph (timed as set-up), applies the same
// batch sequence (timed per update() call), and after every batch publishes
// the batch's diff into an in-process SpannerSnapshot read copy and answers
// a fixed read sample from it. Rounds repeat until --seconds have passed,
// so every run measures whole rounds: the Bentley-Saxe rebuild schedule is
// a function of the batch count, and a run cut at an arbitrary batch would
// report more or fewer rebuilds depending on host speed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "core/sparsifier.hpp"
#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "service/spanner_snapshot.hpp"
#include "verify/laplacian.hpp"
#include "verify/spanner_check.hpp"

namespace perfbench {
namespace {

using namespace parspan;

/// One output edge with its weight (spanner outputs carry weight 1).
using Item = std::pair<EdgeKey, double>;

struct Diff {
  std::vector<Item> ins, rem;
  size_t size() const { return ins.size() + rem.size(); }
};

std::vector<Item> unit_items(const std::vector<Edge>& edges) {
  std::vector<Item> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) out.push_back({e.key(), 1.0});
  std::sort(out.begin(), out.end());
  return out;
}

Diff from_spanner_diff(const SpannerDiff& d) {
  return {unit_items(d.inserted), unit_items(d.removed)};
}

std::vector<Item> weighted_items(const std::vector<WeightedEdge>& edges) {
  std::vector<Item> out;
  out.reserve(edges.size());
  for (const WeightedEdge& we : edges) out.push_back({we.e.key(), we.w});
  std::sort(out.begin(), out.end());
  return out;
}

// --- Structure adapters ------------------------------------------------------
// Each exposes the same small surface so one round loop drives all three.

struct SpannerChurn {
  static constexpr uint32_t kK = 3;
  std::unique_ptr<FullyDynamicSpanner> s;

  void build(size_t n, const std::vector<Edge>& g, uint64_t seed) {
    FullyDynamicSpannerConfig c;
    c.k = kK;
    c.seed = seed;
    s = std::make_unique<FullyDynamicSpanner>(n, g, c);
  }
  Diff update(const UpdateBatch& b) {
    return from_spanner_diff(s->update(b.insertions, b.deletions));
  }
  std::vector<Item> output() const { return unit_items(s->spanner_edges()); }
  uint64_t rebuilds() const { return s->rebuilds(); }
  uint64_t partitions() const { return s->num_partitions(); }
  /// Guaranteed stretch (0 = none guaranteed).
  uint32_t stretch_bound() const { return 2 * kK - 1; }
  static constexpr bool is_sparsifier() { return false; }
};

struct UltraChurn {
  std::unique_ptr<UltraSparseSpanner> s;

  void build(size_t n, const std::vector<Edge>& g, uint64_t seed) {
    UltraConfig c;
    c.x = 2;
    c.seed = seed;
    s = std::make_unique<UltraSparseSpanner>(n, g, c);
  }
  Diff update(const UpdateBatch& b) {
    return from_spanner_diff(s->update(b.insertions, b.deletions));
  }
  std::vector<Item> output() const { return unit_items(s->spanner_edges()); }
  uint64_t rebuilds() const { return 0; }  // no Bentley-Saxe layer
  uint64_t partitions() const { return 0; }
  uint32_t stretch_bound() const { return s->stretch_bound(); }
  static constexpr bool is_sparsifier() { return false; }
};

struct SparsifierChurn {
  std::unique_ptr<FullyDynamicSparsifier> s;

  void build(size_t n, const std::vector<Edge>& g, uint64_t seed) {
    FullyDynamicSparsifierConfig c;
    c.stage.t = 3;
    // The repository's practical forest count (examples/cut_monitor.cpp):
    // the w.h.p. default of 3 log2 n + 2 forests per level absorbs the
    // whole graph into the first bundle at any size that fits a run.
    c.stage.instances = 5;
    c.seed = seed;
    c.stage.seed = seed ^ 0x5151;
    s = std::make_unique<FullyDynamicSparsifier>(n, g, c);
  }
  Diff update(const UpdateBatch& b) {
    WeightedDiff d = s->update(b.insertions, b.deletions);
    return {weighted_items(d.inserted), weighted_items(d.removed)};
  }
  std::vector<Item> output() const {
    return weighted_items(s->sparsifier_edges());
  }
  uint64_t rebuilds() const { return 0; }  // no public rebuild counter
  uint64_t partitions() const { return s->num_partitions(); }
  // The bundles' O(log n) stretch holds w.h.p. only; stretch_max is
  // reported with a reachability check (see run_rounds).
  uint32_t stretch_bound() const { return 0; }
  static constexpr bool is_sparsifier() { return true; }
};

// The sparsifier's quality check. At t = 3 its measured error is 0.01-0.04;
// the theorem's epsilon needs a far larger t, so this is a sanity limit
// that a wrong weight or a lost stage trips (either gives an error >= 1),
// not the paper's bound.
constexpr double kSparsifierErrLimit = 0.5;

struct ChurnSpec {
  size_t n = 0, m = 0, batch = 0, batches = 0;
  size_t reads_per_batch = 32;
  size_t stretch_samples = 2000;
  size_t diff_checks_per_round = 4;
  // Builds timed before the rounds, on top of one per round: setup_s is
  // the median of them all, so it rests on seven or more builds.
  size_t extra_setups = 4;
};

ChurnSpec spec_for(const std::string& w, bool tiny) {
  ChurnSpec s;
  if (w == "spanner-churn") {
    // n^{1+1/k} = 2^16 is E_0's capacity: m = 3 * 2^16 keeps a decremental
    // instance alive from the start, and with 1024 insertions per batch
    // (deletions drain E_0 too) E_0 overflows three times per 256-batch
    // round: into E_1, then all of E_0..E_2 into E_3, then into E_1 again.
    s = tiny ? ChurnSpec{256, 3000, 128, 80} : ChurnSpec{4096, 196608, 2048, 256};
    s.stretch_samples = 500;
  } else if (w == "ultra-churn") {
    // Sparse (average degree 3.2) so vertices stay light and the bounded
    // BFS head recomputation dominates; n large enough that set-up is
    // well above timer noise.
    s = tiny ? ChurnSpec{512, 820, 64, 8} : ChurnSpec{65536, 104858, 1024, 64};
    s.stretch_samples = tiny ? 200 : 1000;
  } else {
    s = tiny ? ChurnSpec{256, 3000, 64, 8} : ChurnSpec{2048, 131072, 512, 64};
  }
  if (tiny) {
    s.reads_per_batch = 8;
    s.diff_checks_per_round = 2;
    s.extra_setups = 1;
    s.stretch_samples = std::min<size_t>(s.stretch_samples, 200);
  }
  return s;
}

/// Set difference check: `d` must be exactly after \ before (ins) and
/// before \ after (rem), as (key, weight) items.
bool diff_matches(std::vector<Item> before, std::vector<Item> after,
                  Diff d) {
  std::vector<Item> ins, rem;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(ins));
  std::set_difference(before.begin(), before.end(), after.begin(),
                      after.end(), std::back_inserter(rem));
  std::sort(d.ins.begin(), d.ins.end());
  std::sort(d.rem.begin(), d.rem.end());
  return ins == d.ins && rem == d.rem;
}

/// The unweighted net change a diff makes to the output's edge set (an
/// edge whose weight changed is in both sides and stays).
SpannerDiff key_diff(const Diff& d) {
  std::vector<EdgeKey> ins, rem;
  for (const Item& it : d.ins) ins.push_back(it.first);
  for (const Item& it : d.rem) rem.push_back(it.first);
  auto uniq = [](std::vector<EdgeKey>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  uniq(ins);
  uniq(rem);
  SpannerDiff out;
  std::vector<EdgeKey> only;
  std::set_difference(ins.begin(), ins.end(), rem.begin(), rem.end(),
                      std::back_inserter(only));
  for (EdgeKey k : only) out.inserted.push_back(edge_from_key(k));
  only.clear();
  std::set_difference(rem.begin(), rem.end(), ins.begin(), ins.end(),
                      std::back_inserter(only));
  for (EdgeKey k : only) out.removed.push_back(edge_from_key(k));
  return out;
}

std::vector<Edge> item_edges(const std::vector<Item>& items) {
  std::vector<Edge> out;
  out.reserve(items.size());
  for (const Item& it : items) out.push_back(edge_from_key(it.first));
  return out;
}

/// One read against the published snapshot.
uint64_t answer(const SpannerSnapshot& s, const Query& q) {
  switch (q.op) {
    case 0: return s.has_edge(q.u, q.v) ? 1 : 0;
    case 1: return s.neighbors(q.u).size();
    default: return s.distance(q.u, q.v, kReadBfsLimit);
  }
}

// Replays one round's batches on a fresh instance at `workers` loop
// parallelism; every update() call is a traced span carrying its CPU time.
template <class A>
void replay_at(size_t n, const std::vector<Edge>& initial,
               const std::vector<UpdateBatch>& batches, uint64_t seed,
               int workers) {
  set_num_workers(workers);
  Span span(workers == 1 ? "parallel.replay_w1" : "parallel.replay_wN");
  A a;
  a.build(n, initial, seed);
  for (size_t i = 0; i < batches.size(); ++i) {
    Span s("core.update", i);
    const uint64_t rb0 = a.rebuilds();
    const int64_t c0 = cpu_ns();
    const Diff d = a.update(batches[i]);
    s.arg("cpu_us", double(cpu_ns() - c0) * 1e-3);
    s.arg("edges", double(batches[i].insertions.size() +
                          batches[i].deletions.size()));
    s.arg("diff", double(d.size()));
    s.arg("rebuild", a.rebuilds() != rb0 ? 1.0 : 0.0);
  }
  Tracer::get().counter("core", {{"rebuilds", double(a.rebuilds())},
                                 {"partitions", double(a.partitions())}});
}

/// The same batches on fresh instances at 1 worker and at nproc.
template <class A>
void replay_worker_counts(const Options& opt, size_t n,
                          const std::vector<Edge>& initial,
                          const std::vector<UpdateBatch>& batches,
                          uint64_t seed) {
  Tracer& tr = Tracer::get();
  tr.set_enabled(true);
  replay_at<A>(n, initial, batches, seed, 1);
  replay_at<A>(n, initial, batches, seed, opt.nproc);
  tr.set_enabled(false);
}

template <class A>
Result run_rounds(const Options& opt, const ChurnSpec& sp) {
  Result res;
  Tracer& tr = Tracer::get();
  const size_t n = sp.n;

  // --- Inputs, all generated before any clock starts. ---
  auto [initial, batches] =
      gen_mixed_stream(n, sp.m, sp.batch, sp.batches, hash_combine(opt.seed, 2));
  const std::vector<Edge> graph_end = graph_after(initial, batches, batches.size());
  const std::vector<Query> queries =
      make_queries(n, 4096, hash_combine(opt.seed, 3));
  Rng check_rng(hash_combine(opt.seed, 4));
  std::vector<uint8_t> diff_check(batches.size(), 0);
  for (size_t c = 0; c < sp.diff_checks_per_round; ++c)
    diff_check[check_rng.next_below(batches.size())] = 1;

  std::vector<double> setup_s, batch_ms, read_us, lag_ms;
  std::vector<double> round_update_s[2];  // [traced]
  double update_s = 0, update_cpu_s = 0, edges = 0, read_s = 0;
  double out_per_vertex_sum = 0;
  uint32_t stretch_max = 0;
  double form_err = 0;
  uint64_t sink = 0;
  size_t qi = 0;

  for (size_t j = 0; j < sp.extra_setups; ++j) {
    A a;
    const int64_t t0 = now_ns();
    a.build(n, initial, hash_combine(opt.seed, 2000 + j));
    setup_s.push_back(double(now_ns() - t0) * 1e-9);
  }

  const int64_t start = now_ns();
  for (size_t round = 0;; ++round) {
    const double elapsed = double(now_ns() - start) * 1e-9;
    // Traced runs alternate untraced and traced rounds in pairs of equal
    // work (same seeds); the difference between the two is the tracing
    // overhead. They stop only after a whole pair.
    const size_t min_rounds = opt.trace ? 4 : 3;
    if (round >= min_rounds && elapsed >= opt.seconds &&
        (!opt.trace || round % 2 == 0))
      break;
    const bool traced = opt.trace && (round % 2 == 1);
    tr.set_enabled(traced);
    Span round_span("bench.round", round);

    // Each round (each pair, when traced) draws its own structure seed, so
    // a run averages over several random clusterings instead of reporting
    // one: at a single seed, spanner-churn's output size alone varied
    // 31-45 edges/vertex.
    const uint64_t struct_seed =
        hash_combine(opt.seed, 1000 + (opt.trace ? round / 2 : round));
    A a;
    {
      Span s("core.build");
      const int64_t t0 = now_ns();
      a.build(n, initial, struct_seed);
      setup_s.push_back(double(now_ns() - t0) * 1e-9);
    }
    SpannerSnapshot::Ptr snap;
    {
      Span s("service.snapshot_init");
      snap = SpannerSnapshot::initial(n, item_edges(a.output()),
                                      a.stretch_bound());
    }

    double round_update = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      const UpdateBatch& b = batches[i];
      const double be = double(b.insertions.size() + b.deletions.size());
      std::vector<Item> before;
      if (diff_check[i]) {
        Span s("verify.export_before");
        before = a.output();
      }
      const uint64_t rb0 = a.rebuilds();
      Diff d;
      int64_t t0, t1, c0, c1;
      {
        Span s("core.update", i);
        c0 = cpu_ns();
        t0 = now_ns();
        d = a.update(b);
        t1 = now_ns();
        c1 = cpu_ns();
        s.arg("edges", be);
        s.arg("diff", double(d.size()));
        s.arg("rebuild", a.rebuilds() != rb0 ? 1.0 : 0.0);
        s.arg("cpu_us", double(c1 - c0) * 1e-3);
      }
      ++res.attempted;  // update() has no failure result
      const double dt = double(t1 - t0) * 1e-9;
      round_update += dt;
      if (!traced) {
        batch_ms.push_back(dt * 1e3);
        update_s += dt;
        update_cpu_s += double(c1 - c0) * 1e-9;
        edges += be;
      }
      if (diff_check[i]) {
        Span s("verify.diff");
        res.check(diff_matches(std::move(before), a.output(), d),
                  "diff != set difference of outputs at batch " +
                      std::to_string(i));
      }
      {
        // Read-copy publish: what a reader waits for after update() returns.
        Span s("service.snapshot_apply", i);
        const int64_t p0 = now_ns();
        snap = SpannerSnapshot::apply(*snap, key_diff(d));
        lag_ms.push_back(double(now_ns() - p0) * 1e-6);
      }
      // Output size averaged over every batch: E_0 is wholly in the
      // output and saw-tooths between rebuilds, so the size at one instant
      // depends on where that instant falls in the rebuild cycle.
      out_per_vertex_sum += double(snap->num_edges()) / double(n);
      for (size_t r = 0; r < sp.reads_per_batch; ++r) {
        const Query& q = queries[qi++ % queries.size()];
        Span s("service.query");
        const int64_t r0 = now_ns();
        sink += answer(*snap, q);
        const double rs = double(now_ns() - r0) * 1e-9;
        read_us.push_back(rs * 1e6);
        read_s += rs;
        ++res.attempted;
      }
    }
    round_update_s[traced ? 1 : 0].push_back(round_update);

    // --- Off-clock output checks. ---
    Span vs("verify.round_end");
    const std::vector<Item> out = a.output();
    // Stretch over a seeded sample of the graph edges outside the output.
    const std::vector<Edge> out_edges = item_edges(out);
    const std::vector<Edge> outside = edges_outside(
        graph_end, out_edges, sp.stretch_samples, hash_combine(opt.seed, 5));
    res.check(output_within(graph_end, out_edges),
              "output holds an edge that is not in the graph");
    const uint32_t bound = a.stretch_bound();
    // Without a guarantee, every sampled edge must still be reachable
    // within O(log n) hops of the output.
    const uint32_t limit =
        bound != 0 ? bound : 4 * uint32_t(std::ceil(std::log2(double(n))));
    const uint32_t stretch =
        outside.empty() ? 1 : max_edge_stretch(n, outside, out_edges, limit);
    res.check(stretch <= limit, "stretch " + std::to_string(stretch) +
                                    " exceeds " + std::to_string(limit));
    stretch_max = std::max(stretch_max, std::min(stretch, limit + 1));
    if (a.is_sparsifier()) {
      // Quadratic-form error of the output (weights as reported) against
      // the graph, over seeded Gaussian vectors.
      std::vector<WeightedEdge> wout;
      wout.reserve(out.size());
      for (const Item& it : out) wout.push_back({edge_from_key(it.first), it.second});
      const double err =
          sparsifier_quality(n, graph_end, wout, 16, 0, hash_combine(opt.seed, 6))
              .max_form_err;
      res.check(err < kSparsifierErrLimit,
                "sparsifier quadratic-form error " + std::to_string(err));
      form_err = std::max(form_err, err);
    }
    // The read copy must hold exactly the structure's output edges.
    std::vector<EdgeKey> out_keys;
    for (const Item& it : out) out_keys.push_back(it.first);
    out_keys.erase(std::unique(out_keys.begin(), out_keys.end()), out_keys.end());
    const auto sk = snap->edge_keys();
    res.check(std::vector<EdgeKey>(sk.begin(), sk.end()) == out_keys,
              "read copy differs from the structure's output");
    tr.counter("core", {{"rebuilds", double(a.rebuilds())},
                        {"partitions", double(a.partitions())}});
  }
  tr.set_enabled(false);

  res.set("setup_s", median(setup_s), "s");
  res.set("update_edges_per_s", edges / update_s, "edges/s");
  res.set("batch_p50_ms", percentile(batch_ms, 0.5), "ms");
  res.set("batch_p90_ms", percentile(batch_ms, 0.9), "ms");
  res.set("cpu_us_per_edge", update_cpu_s * 1e6 / edges, "us");
  res.set("reads_per_s", double(read_us.size()) / read_s, "1/s");
  res.set("read_p50_us", percentile(read_us, 0.5), "us");
  res.set("read_p99_us", percentile(read_us, 0.99), "us");
  res.set("replica_lag_p50_ms", percentile(lag_ms, 0.5), "ms");
  res.set("ok_ops_ratio",
          double(res.attempted - res.failed) / double(res.attempted), "ratio");
  res.set("edges_per_vertex", out_per_vertex_sum / double(lag_ms.size()),
          "edges/vertex");
  res.set("stretch_max", stretch_max, "hops");
  tr.meta("core.sparsifier_err", form_err);
  keep_live(sink);

  if (opt.trace) {
    double traced_s = 0, untraced_s = 0;
    for (double x : round_update_s[1]) traced_s += x;
    for (double x : round_update_s[0]) untraced_s += x;
    tr.meta("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100);
    replay_worker_counts<A>(opt, n, initial, batches, hash_combine(opt.seed, 1000));
  }
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace

Result run_churn(const Options& opt) {
  const ChurnSpec sp = spec_for(opt.workload, opt.tiny);
  if (opt.workload == "spanner-churn") return run_rounds<SpannerChurn>(opt, sp);
  if (opt.workload == "ultra-churn") return run_rounds<UltraChurn>(opt, sp);
  return run_rounds<SparsifierChurn>(opt, sp);
}

}  // namespace perfbench
