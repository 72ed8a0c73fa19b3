// Shared pieces of the benchmark binary: clocks, percentiles, the span
// tracer, the result line, and the input helpers both workload files use.
//
// Spans are recorded only in the benchmark's own code, around each public
// call it makes into a library layer. Each thread appends to its own
// buffer (no locking on the hot path); buffers are merged and written as
// Chrome trace-event JSON when the run ends, so any browser trace viewer
// (chrome://tracing, Perfetto) opens the file as is.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU time (all threads), ns.
inline int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return int64_t(t.tv_sec) * 1'000'000'000 + int64_t(t.tv_usec) * 1000;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Percentile q in [0, 1] of a copy: the element at index round(q·(n−1))
/// of the sorted samples; 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = size_t(q * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Makes `v` look used to the optimizer (as benchmark::DoNotOptimize
/// does), so the timed reads that produced it cannot be elided.
inline void keep_live(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

// --- Tracing ---------------------------------------------------------------

struct SpanRec {
  const char* name = nullptr;
  int64_t t0 = 0, t1 = 0;
  uint64_t id = 0, parent = 0, req = 0;
  uint32_t tid = 0;
  uint8_t nargs = 0;
  std::pair<const char*, double> args[4];
};

struct CounterRec {
  std::string name;
  int64_t t = 0;
  std::vector<std::pair<std::string, double>> values;
};

/// Process-wide span collector. Disabled (every call a cheap branch) unless
/// the run is traced.
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The calling thread's buffer (registered on first use).
  struct Buffer {
    uint32_t tid = 0;
    std::vector<SpanRec> spans;
    std::vector<uint64_t> open;  // ids of the spans currently open
  };
  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->tid = uint32_t(buffers_.size());
      buf->spans.reserve(1 << 16);
    }
    return *buf;
  }

  uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void counter(std::string name,
               std::vector<std::pair<std::string, double>> values) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lk(mu_);
    counters_.push_back({std::move(name), now_ns(), std::move(values)});
  }

  /// Records a span the caller timed itself — for polled calls whose span
  /// is kept only when the call did work.
  void emit(const char* name, int64_t t0, int64_t t1, uint64_t req,
            std::initializer_list<std::pair<const char*, double>> args) {
    if (!enabled()) return;
    Buffer& b = local();
    SpanRec r;
    r.name = name;
    r.t0 = t0;
    r.t1 = t1;
    r.id = next_id();
    r.parent = b.open.empty() ? 0 : b.open.back();
    r.req = req;
    r.tid = b.tid;
    for (const auto& a : args)
      if (r.nargs < 4) r.args[r.nargs++] = a;
    b.spans.push_back(r);
  }

  void meta(const std::string& key, double value) {
    std::lock_guard<std::mutex> lk(mu_);
    meta_[key] = value;
  }

  /// Writes every buffer as Chrome trace-event JSON ("X" complete events
  /// for spans, "C" events for counters, run metadata under otherData).
  /// Call after every recording thread has been joined.
  bool write(const std::string& path,
             const std::map<std::string, std::string>& labels) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::atomic<uint64_t> ids_{0};
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<CounterRec> counters_;
  std::map<std::string, double> meta_;
};

/// RAII span: open on construction, recorded on destruction. The parent is
/// the innermost span still open on this thread; `req` ties the spans of
/// one request (batch or read) together across threads.
class Span {
 public:
  Span(const char* name, uint64_t req = 0) {
    Tracer& tr = Tracer::get();
    if (!tr.enabled()) return;
    buf_ = &tr.local();
    rec_.name = name;
    rec_.req = req;
    rec_.tid = buf_->tid;
    rec_.id = tr.next_id();
    rec_.parent = buf_->open.empty() ? 0 : buf_->open.back();
    buf_->open.push_back(rec_.id);
    rec_.t0 = now_ns();
  }
  ~Span() {
    if (buf_ == nullptr) return;
    rec_.t1 = now_ns();
    buf_->open.pop_back();
    buf_->spans.push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double value) {
    if (buf_ == nullptr || rec_.nargs == 4) return;
    rec_.args[rec_.nargs++] = {key, value};
  }

 private:
  Tracer::Buffer* buf_ = nullptr;
  SpanRec rec_;
};

// --- Result ------------------------------------------------------------------

/// What one workload run reports: operation accounting plus named metrics.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  std::map<std::string, std::pair<double, std::string>> metrics;

  /// One operation or output check; a failure counts against
  /// ok_ops_ratio and makes the run incorrect.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }

 private:
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

// --- Inputs shared by the workloads -----------------------------------------

/// One read: 70% has_edge, 10% neighbors, 20% bounded distance.
///
/// has_edge : neighbors = 7 : 1 is tools/loadgen.cpp's mix (70% has_edge,
/// 10% neighbors, 20% submit). Here writes have a connection of their own,
/// so loadgen's 20% submit share goes to the bounded-distance read, the one
/// read loadgen does not issue. That share, and the hop limit below, are an
/// assumption: no trace of real traffic exists to derive them from.
struct Query {
  uint8_t op = 0;  // 0 has_edge, 1 neighbors, 2 bounded distance
  parspan::VertexId u = 0, v = 0;
};

/// Hop limit of the bounded-distance reads.
inline constexpr uint32_t kReadBfsLimit = 3;

inline std::vector<Query> make_queries(size_t n, size_t count, uint64_t seed) {
  parspan::Rng rng(seed);
  std::vector<Query> q(count);
  for (Query& x : q) {
    const uint64_t r = rng.next_below(10);
    x.op = r < 7 ? 0 : r < 8 ? 1 : 2;
    x.u = parspan::VertexId(rng.next_below(n));
    do x.v = parspan::VertexId(rng.next_below(n));
    while (x.v == x.u);
  }
  return q;
}

/// The graph after the first `count` batches, ascending by key.
inline std::vector<parspan::Edge> graph_after(
    const std::vector<parspan::Edge>& initial,
    const std::vector<parspan::UpdateBatch>& batches, size_t count) {
  std::unordered_set<parspan::EdgeKey> live;
  for (const parspan::Edge& e : initial) live.insert(e.key());
  for (size_t i = 0; i < count; ++i) {
    for (const parspan::Edge& e : batches[i].deletions) live.erase(e.key());
    for (const parspan::Edge& e : batches[i].insertions) live.insert(e.key());
  }
  std::vector<parspan::EdgeKey> keys(live.begin(), live.end());
  std::sort(keys.begin(), keys.end());
  std::vector<parspan::Edge> out;
  out.reserve(keys.size());
  for (parspan::EdgeKey k : keys) out.push_back(parspan::edge_from_key(k));
  return out;
}

/// Graph edges missing from `output` (the only edges whose stretch can
/// exceed 1): all of them, or a seeded sample of `limit` when limit > 0.
inline std::vector<parspan::Edge> edges_outside(
    const std::vector<parspan::Edge>& graph,
    const std::vector<parspan::Edge>& output, size_t limit, uint64_t seed) {
  std::unordered_set<parspan::EdgeKey> in_out;
  for (const parspan::Edge& e : output) in_out.insert(e.key());
  std::vector<parspan::Edge> outside;
  for (const parspan::Edge& e : graph)
    if (!in_out.count(e.key())) outside.push_back(e);
  if (limit == 0 || outside.size() <= limit) return outside;
  parspan::Rng rng(seed);
  for (size_t i = 0; i < limit; ++i)
    std::swap(outside[i], outside[i + rng.next_below(outside.size() - i)]);
  outside.resize(limit);
  return outside;
}

/// True when every edge of `output` is an edge of `graph`. Stretch and
/// diff checks cannot see an output that kept a deleted edge; this can.
inline bool output_within(const std::vector<parspan::Edge>& graph,
                          const std::vector<parspan::Edge>& output) {
  std::unordered_set<parspan::EdgeKey> in_graph;
  in_graph.reserve(graph.size());
  for (const parspan::Edge& e : graph) in_graph.insert(e.key());
  for (const parspan::Edge& e : output)
    if (!in_graph.count(e.key())) return false;
  return true;
}

/// Sizes and knobs shared by the workloads.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // self-test sizes
  std::string trace_out;
  std::string tmp_dir;
  int nproc = 1;
};

Result run_churn(const Options& opt);
Result run_served(const Options& opt);

}  // namespace perfbench
