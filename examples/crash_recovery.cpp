// Crash recovery: write-ahead logging, a power failure, and a checksum-
// verified restore (DESIGN.md §10).
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/example_crash_recovery
//
// The walkthrough runs a SpannerService with durability enabled over MemFs
// — the in-memory filesystem of the fault-injection harness — so the
// "power failure" is a deterministic in-process event: at a scheduled I/O
// operation the disk dies, the unsynced tail of every file survives only
// as a random prefix (a torn tail), and recovery has to rebuild the
// service from exactly the bytes a real crash would have left. Swap MemFs
// for PosixFs and the same code persists across real process restarts.
#include <cstdio>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/fault_fs.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "service/spanner_service.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

using namespace parspan;

int main() {
  const size_t n = 600;
  const uint32_t k = 3;  // stretch 2k-1 = 5

  auto [initial, batches] = gen_mixed_stream(n, 10 * n, 128, 24, /*seed=*/11);
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 42;

  // --- Phase 1: a durable service ingests half the stream. -----------------
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryN;  // sync once per 4 batches:
  opts.fsync_every_n = 4;                    // bounded loss, amortized fsync
  opts.checkpoint_every = 8;                 // bounded replay after a crash

  auto svc = std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(n, initial, cfg), 2 * k - 1);
  if (!svc->enable_durability(fs, "dur", opts, initial)) {
    std::printf("enable_durability failed\n");
    return 1;
  }

  // checksums[v] = content checksum the live run published at version v —
  // the oracle recovery must reproduce bit-exactly.
  std::vector<uint64_t> checksums{svc->snapshot()->checksum()};
  const size_t half = batches.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    auto res = svc->apply(batches[i].insertions, batches[i].deletions);
    checksums.push_back(res.snapshot->checksum());
  }
  std::printf("ingested %zu batches; durable through version %llu of %llu\n",
              half,
              (unsigned long long)svc->durability()->durable_version(),
              (unsigned long long)svc->version());

  // --- Phase 2: power fails mid-batch. --------------------------------------
  // The next mutating I/O operation dies mid-append — a short write — and
  // every operation after it fails too. Under every-N the writer stages
  // frames in user space and writes them out at sync time, so the next
  // operation is that multi-frame flush: the crash tears it partway
  // through. The service goes sticky-failed: it keeps serving reads but
  // refuses to claim durability.
  fs->crash_at_op(1);
  size_t applied = half;
  while (applied < batches.size() && !svc->durability()->failed()) {
    auto res = svc->apply(batches[applied].insertions,
                          batches[applied].deletions);
    checksums.push_back(res.snapshot->checksum());
    ++applied;
  }
  const uint64_t watermark = svc->durability()->durable_version();
  std::printf("crash at version %llu; durability watermark %llu\n",
              (unsigned long long)svc->version(),
              (unsigned long long)watermark);

  svc.reset();  // the process is gone
  Rng rng(7);
  fs->crash_and_restart(CrashTail::kKeepPrefix, rng);  // torn unsynced tail

  // --- Phase 3: recover. ----------------------------------------------------
  // Newest valid checkpoint + checksum-verified WAL replay, truncating the
  // torn tail at the first bad frame; then a rebase epoch: a fresh backend
  // is rebuilt from the recovered graph and published as the next version.
  SpannerService::RecoveryReport rep;
  auto recovered = SpannerService::recover(
      fs, "dur", opts,
      [&cfg](uint64_t rn, const std::vector<Edge>& edges, uint32_t) {
        return std::make_unique<FullyDynamicSpanner>(size_t(rn), edges, cfg);
      },
      &rep);
  if (recovered == nullptr) {
    std::printf("recovery failed: no valid checkpoint\n");
    return 1;
  }
  std::printf(
      "recovered version %llu (checksum %016llx, %llu records replayed, "
      "tail %s), serving rebase version %llu\n",
      (unsigned long long)rep.restored_version,
      (unsigned long long)rep.restored_checksum,
      (unsigned long long)rep.replayed_records,
      rep.tail_truncated ? "TORN (truncated)" : "clean",
      (unsigned long long)rep.published_version);

  // The durability contract: everything synced survives, and whatever
  // survives is bit-exact — the restored checksum equals what the live run
  // published at that version. Every check printed here decides the exit
  // code: any NO exits 1.
  const bool watermark_ok = rep.restored_version >= watermark;
  const bool checksum_ok =
      rep.restored_checksum == checksums[rep.restored_version];
  std::printf("watermark honored: %s; checksum matches live history: %s\n",
              watermark_ok ? "YES" : "NO", checksum_ok ? "YES" : "NO");

  // --- Phase 4: carry on from the recovered state. --------------------------
  // Re-apply the batches past the restored version, then verify stretch
  // against the graph those batches produce — the recovered service is a
  // full peer of the original, not a read-only archive.
  DynamicGraph g(n);
  g.insert_edges(initial);
  for (size_t i = 0; i < rep.restored_version; ++i) {
    g.erase_edges(batches[i].deletions);
    g.insert_edges(batches[i].insertions);
  }
  for (size_t i = rep.restored_version; i < batches.size(); ++i) {
    recovered->apply(batches[i].insertions, batches[i].deletions);
    g.erase_edges(batches[i].deletions);
    g.insert_edges(batches[i].insertions);
  }
  bool stretch_ok =
      is_spanner(n, g.edges(), recovered->export_spanner(), 2 * k - 1);
  std::printf("resumed ingest to version %llu; stretch <= %u verified: %s\n",
              (unsigned long long)recovered->version(), 2 * k - 1,
              stretch_ok ? "YES" : "NO");
  return watermark_ok && checksum_ok && stretch_ok ? 0 : 1;
}
