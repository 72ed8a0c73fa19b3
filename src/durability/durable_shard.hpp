// ShardDurability: one shard's write-ahead log + checkpoint lifecycle
// (DESIGN.md §10).
//
// Owns a directory of WAL segments and checkpoints and drives the
// protocol: every published version appends one record (WAL-before-publish
// — the caller appends, then publishes), a checkpoint every
// `checkpoint_every` records rotates the log to a fresh segment and
// garbage-collects everything older than the last `keep_checkpoints`
// checkpoints, and recover() rebuilds the exact pre-crash serving state —
// newest valid checkpoint, replay the log tail diff-by-diff with the
// content checksum re-verified per record, truncate at the first invalid
// frame — plus the graph shadow a fresh backend is rebuilt from. That
// chain walk is written once: read_durable_state() is the walk capped at
// a version and read-only, recover() is the walk with no cap plus its
// side effects (DESIGN.md §10.4).
//
// The graph shadow: the durability layer folds every record's *input*
// batch (deletions then insertions, set semantics — exactly the backend's
// documented batch semantics) into a running edge-key set, so a checkpoint
// can serialize the graph without reaching into backend internals, and
// recovery can hand back the edge set the rebuilt backend must start from
// (DESIGN.md §10.4).
//
// Failure is sticky: after any WAL or checkpoint I/O error the shard keeps
// serving from memory but failed() stays true and nothing further is
// logged — recovery then restores the last durable prefix (DESIGN.md
// §10.5). Cleanup failures (GC of old segments) are NOT failures: extra
// files never confuse recovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "container/flat_map.hpp"
#include "durability/checkpoint.hpp"
#include "durability/fs.hpp"
#include "durability/wal.hpp"

namespace parspan {

/// One shard's durably-recoverable state at a version: what recovery
/// restores, and everything a follower needs to adopt it wholesale
/// (snapshot resync) — the snapshot key list plus the graph shadow its own
/// checkpoint chain must carry.
struct DurableState {
  uint64_t n = 0;
  uint32_t stretch = 0;
  uint64_t version = 0;
  uint64_t checksum = 0;  // snapshot content checksum at `version`
  std::vector<EdgeKey> snap_keys;   // ascending
  std::vector<EdgeKey> graph_keys;  // ascending
};

/// The one rule by which a durable chain grows (DESIGN.md §10.4): `rec`
/// extends the state (n, stretch, version, keys) iff it is version + 1,
/// its diff folds into `keys` under checked_apply_diff's checks, and the
/// folded key list re-derives rec.checksum. Returns that key list (the
/// state at rec.version), or nullopt when the record does not extend the
/// state. Recovery, the log shipper's resync reader and every follower
/// accept records through this function alone.
std::optional<std::vector<EdgeKey>> extend_chain(uint64_t n, uint32_t stretch,
                                                 uint64_t version,
                                                 std::span<const EdgeKey> keys,
                                                 const WalRecord& rec);

/// Rebuilds the durable state at the highest recoverable version
/// <= `max_version`: newest checksum-verified checkpoint at/below the cap,
/// then a fully verified replay of the log tail, clamped at the cap. The
/// same walk as ShardDurability::recover, but read-only: it never deletes
/// a rotten checkpoint or opens a segment. nullopt when no checkpoint
/// at/below the cap validates.
std::optional<DurableState> read_durable_state(Fs& fs, const std::string& dir,
                                               uint64_t max_version);

struct DurabilityOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Sync once per this many records (kEveryN).
  uint32_t fsync_every_n = 8;
  /// Sync when this much time passed since the last sync (kTimed; checked
  /// on the append path — an idle shard syncs on its next append).
  std::chrono::milliseconds fsync_interval{50};
  /// Checkpoint + truncate the log every this many records (0 = only the
  /// genesis/recovery checkpoints; the log then grows unboundedly).
  uint64_t checkpoint_every = 64;
  /// Older checkpoints kept as fallback against media rot of the newest
  /// (their log segments are retained too).
  uint32_t keep_checkpoints = 2;
};

class ShardDurability {
 public:
  /// Initializes a FRESH shard directory: wipes leftover ckpt/wal files,
  /// writes the genesis checkpoint for `version` (the just-published
  /// snapshot and the matching graph edge set, both ascending key lists),
  /// and opens the first log segment. nullptr on I/O failure.
  static std::unique_ptr<ShardDurability> create(
      std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
      uint64_t n, uint32_t stretch, uint64_t version,
      std::span<const EdgeKey> snap_keys, uint64_t snapshot_checksum,
      std::vector<EdgeKey> graph_keys);

  /// Everything recover() restores about one shard: the durable state
  /// (its checksum is the last durably logged one) plus what the walk saw.
  struct Recovered : DurableState {
    uint64_t replayed_records = 0;
    /// True when the log ended in a torn/corrupt frame that was truncated
    /// (vs a clean end).
    bool tail_truncated = false;
    /// Positioned to continue logging at `version` (fresh segment).
    std::unique_ptr<ShardDurability> dur;
  };

  /// read_durable_state() with no cap — newest valid checkpoint, then the
  /// log tail replayed through extend_chain() up to the first invalid
  /// frame (DESIGN.md §10.4) — plus its side effects: rotten checkpoints
  /// it skipped are deleted, and the result is positioned to continue
  /// logging. nullopt when no valid checkpoint exists at all.
  static std::optional<Recovered> recover(std::shared_ptr<Fs> fs,
                                          std::string dir,
                                          const DurabilityOptions& opts);

  /// Appends one record (input batch + diff + resulting version/checksum),
  /// folds the input into the graph shadow, applies the fsync policy.
  /// False on (sticky) failure — the caller publishes anyway and the shard
  /// keeps serving, minus the durability claim.
  bool log_record(const WalRecord& rec);

  /// Checkpoint + rotate + GC if `checkpoint_every` records have been
  /// logged since the last checkpoint. `snap_keys`/`snapshot_checksum`
  /// must describe the snapshot at `version` (the one just published).
  bool maybe_checkpoint(uint64_t version, uint64_t snapshot_checksum,
                        std::span<const EdgeKey> snap_keys);

  /// Unconditional checkpoint (recovery epilogue: compact immediately so
  /// repeated crash/recover cycles never accumulate log).
  bool checkpoint_now(uint64_t version, uint64_t snapshot_checksum,
                      std::span<const EdgeKey> snap_keys);

  bool failed() const { return failed_; }

  /// Highest version guaranteed durable: covered by a synced WAL frame or
  /// a committed checkpoint. The crash sweep's recovery lower bound. Safe
  /// to call from any thread (replica nodes read it while the shard's
  /// drain task logs); it loads a watermark the logging thread publishes.
  uint64_t durable_version() const {
    return durable_.load(std::memory_order_acquire);
  }

  uint64_t records_logged() const { return records_logged_; }

  /// Directory / filesystem / options this shard logs to — the log
  /// shipper tails the same directory read-only (DESIGN.md §11.1), and
  /// failover promotion rebuilds a service on a follower's own chain.
  const std::string& dir() const { return dir_; }
  const std::shared_ptr<Fs>& fs() const { return fs_; }
  const DurabilityOptions& options() const { return opts_; }

 private:
  ShardDurability(std::shared_ptr<Fs> fs, std::string dir,
                  const DurabilityOptions& opts, uint64_t n, uint32_t stretch);

  bool open_segment(uint64_t base_version);
  void gc_old_files();
  /// Stores the watermark durable_version() reads; called by the logging
  /// thread after every sync or checkpoint.
  void publish_durable();

  std::shared_ptr<Fs> fs_;
  std::string dir_;
  DurabilityOptions opts_;
  uint64_t n_;
  uint32_t stretch_;
  FlatHashSet<EdgeKey> graph_;  // shadow of the backend's graph edge set
  std::unique_ptr<WalWriter> wal_;
  bool failed_ = false;
  uint64_t last_ckpt_version_ = 0;
  uint64_t records_since_ckpt_ = 0;
  uint64_t records_logged_ = 0;
  std::vector<uint64_t> ckpt_versions_;  // committed, ascending
  std::atomic<uint64_t> durable_{0};
};

}  // namespace parspan
