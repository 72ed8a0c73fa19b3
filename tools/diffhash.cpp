// diffhash: the output-identity oracle for refactors of the paper's
// structures. It drives each structure over fixed seeded streams and prints
// one line per (structure, stream):
//
//   <structure> <stream parameters> <64-bit hash>
//
// The hash covers every diff the structure returns (inserted then removed
// edges, each side with its length, in returned order; weighted diffs add
// the weight's bit pattern) and the final key-sorted output. Two builds
// that print the same lines returned the same diffs batch by batch. The
// lines are a function of the source and the streams only; they must not
// change with --workers (DESIGN.md §7).
//
//   diffhash [--workers N]     (default: the scheduler's default count)
//
// No hash is golden: an algorithm change may change them. To compare two
// commits, build diffhash in each tree and diff their outputs at
// --workers 1 and --workers 4.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "core/mpx_spanner.hpp"
#include "core/sparse_spanner.hpp"
#include "core/sparsifier.hpp"
#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "parallel/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace parspan;

class Hasher {
 public:
  void mix(uint64_t w) { h_ = hash_combine(h_, w); }
  void edges(const std::vector<Edge>& es) {
    mix(es.size());
    for (const Edge& e : es) mix(e.key());
  }
  void edges(const std::vector<WeightedEdge>& es) {
    mix(es.size());
    for (const WeightedEdge& we : es) {
      uint64_t bits;
      std::memcpy(&bits, &we.w, sizeof bits);
      mix(we.e.key());
      mix(bits);
    }
  }
  template <typename Diff>
  void diff(const Diff& d) {
    edges(d.inserted);
    edges(d.removed);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6469666668617368ull;  // "diffhash"
};

void print(const std::string& label, const Hasher& h) {
  std::printf("%s %016llx\n", label.c_str(),
              static_cast<unsigned long long>(h.value()));
  std::fflush(stdout);
}

std::string mixed_label(size_t n, size_t m, size_t batch, size_t batches) {
  return "n=" + std::to_string(n) + " m=" + std::to_string(m) +
         " mixed=" + std::to_string(batches) + "x" + std::to_string(batch);
}

std::string decr_label(size_t n, size_t m, size_t batch) {
  return "n=" + std::to_string(n) + " m=" + std::to_string(m) +
         " decremental=" + std::to_string(batch);
}

/// Fully dynamic structures: constructor, then update(ins, del) per batch.
template <typename S, typename Cfg>
void run_mixed(const std::string& name, size_t n, size_t m, size_t batch,
               size_t batches, uint64_t seed, const Cfg& cfg,
               const std::string& extra = "") {
  auto [initial, stream] = gen_mixed_stream(n, m, batch, batches, seed);
  S s(n, initial, cfg);
  Hasher h;
  for (const UpdateBatch& b : stream) h.diff(s.update(b.insertions, b.deletions));
  if constexpr (requires { s.sparsifier_edges(); })
    h.edges(s.sparsifier_edges());
  else
    h.edges(s.spanner_edges());
  print(name + " " + mixed_label(n, m, batch, batches) + extra, h);
}

/// Decremental structures: constructor, then delete_edges per batch until
/// the graph is empty.
template <typename S, typename Cfg>
void run_decremental(const std::string& name, size_t n, size_t m,
                     size_t batch, uint64_t seed, const Cfg& cfg,
                     const std::string& extra = "") {
  std::vector<Edge> edges = gen_erdos_renyi(n, m, seed);
  std::vector<UpdateBatch> stream =
      gen_decremental_stream(edges, batch, seed ^ 0xdec);
  S s(n, edges, cfg);
  Hasher h;
  for (const UpdateBatch& b : stream) h.diff(s.delete_edges(b.deletions));
  h.edges(s.spanner_edges());
  print(name + " " + decr_label(n, m, batch) + extra, h);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      int w = std::atoi(argv[++i]);
      if (w < 1 || w > 256) {
        std::fprintf(stderr, "diffhash: --workers must be in 1..256\n");
        return 2;
      }
      set_num_workers(w);
    } else {
      std::fprintf(stderr, "usage: diffhash [--workers N]\n");
      return 2;
    }
  }

  {
    FullyDynamicSpannerConfig c;
    c.k = 3;
    c.seed = 5;
    run_mixed<FullyDynamicSpanner>("FullyDynamicSpanner", 512, 16000, 1000,
                                   40, 1, c, " k=3");
  }
  {
    SparseSpannerConfig c;
    c.seed = 3;
    run_mixed<SparseSpanner>("SparseSpanner", 4096, 16384, 256, 40, 2, c,
                             " xs=default");
    c.xs = {2.5, 2.0};
    run_mixed<SparseSpanner>("SparseSpanner", 4096, 16384, 256, 40, 2, c,
                             " xs=2.5,2.0");
  }
  for (uint32_t x : {2u, 3u}) {
    UltraConfig c;
    c.x = x;
    c.seed = 7;
    run_mixed<UltraSparseSpanner>("UltraSparseSpanner", 4096, 6554, 64, 64,
                                  3, c, " x=" + std::to_string(x));
  }
  {
    // ultra-churn's shape: average degree 3.2, 1024-edge batches.
    UltraConfig c;
    c.x = 2;
    c.seed = 1;
    run_mixed<UltraSparseSpanner>("UltraSparseSpanner", 65536, 104858, 1024,
                                  40, 1, c, " x=2");
  }
  {
    MonotoneSpannerConfig c;
    c.seed = 11;
    run_decremental<MonotoneSpanner>("MonotoneSpanner", 1024, 8192, 256, 4,
                                     c);
  }
  {
    FullyDynamicSparsifierConfig c;
    c.stage.t = 3;
    c.stage.instances = 5;
    c.seed = 13;
    c.stage.seed = 13 ^ 0x5151;
    run_mixed<FullyDynamicSparsifier>("FullyDynamicSparsifier", 1024, 16384,
                                      512, 24, 5, c, " t=3");
  }
  for (bool inter : {true, false}) {
    ClusterSpannerConfig c;
    c.k = 3;
    c.seed = 17;
    c.intercluster = inter;
    run_decremental<DecrementalClusterSpanner>(
        "DecrementalClusterSpanner", 2048, 16384, 512, 6, c,
        inter ? " k=3 mode=spanner" : " k=3 mode=forest");
  }
  return 0;
}
