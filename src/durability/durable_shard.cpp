#include "durability/durable_shard.hpp"

#include <algorithm>
#include <cstdio>

#include "service/spanner_snapshot.hpp"

namespace parspan {

namespace {

// A canonical key the graph can actually contain: lo < hi < n. WAL bytes
// are data, not invariants — recovery and the shadow both filter.
bool valid_graph_key(EdgeKey k, uint64_t n) {
  auto [lo, hi] = edge_endpoints(k);
  return lo < hi && hi < n;
}

// Folds one record's input batch into a graph shadow: deletions, then
// insertions (the backend's batch semantics).
void fold_graph_input(FlatHashSet<EdgeKey>& graph, uint64_t n,
                      const WalRecord& rec) {
  for (EdgeKey k : rec.input_deleted)
    if (valid_graph_key(k, n)) graph.erase(k);
  for (EdgeKey k : rec.input_inserted)
    if (valid_graph_key(k, n)) graph.insert(k);
}

// One walk of a shard's chain and what it passed over.
struct ChainWalk {
  ShardDurability::Recovered state;  // `dur` stays null
  FlatHashSet<EdgeKey> graph;        // the shadow behind state.graph_keys
  std::vector<uint64_t> ckpts;       // checkpoints at/below the chosen one
};

// The chain walk (DESIGN.md §10.4): the newest checkpoint at/below `cap`
// whose content checksum re-derives from its own key list, then the log
// segments at/above it replayed record by record through extend_chain(),
// stopping at the cap or, for good, at the first invalid frame or record
// — bytes past a tear are garbage by the append-only discipline.
// Checkpoints skipped as unusable are appended to `rotten`.
std::optional<ChainWalk> walk_chain(Fs& fs, const std::string& dir,
                                    uint64_t cap,
                                    std::vector<uint64_t>* rotten) {
  // A checkpoint above the cap is unusable even if valid: state cannot be
  // rolled backward, only replayed forward.
  ChainWalk w;
  for (const std::string& name : fs.list(dir))
    if (auto v = parse_checkpoint_file_name(name); v && *v <= cap)
      w.ckpts.push_back(*v);
  std::sort(w.ckpts.begin(), w.ckpts.end());
  std::optional<Checkpoint> chosen;
  while (!w.ckpts.empty()) {
    auto c = load_checkpoint(fs, dir, w.ckpts.back());
    if (c && snapshot_content_checksum(c->n, c->stretch, c->version,
                                       c->snap_keys) == c->snapshot_checksum) {
      chosen = std::move(c);
      break;
    }
    rotten->push_back(w.ckpts.back());
    w.ckpts.pop_back();
  }
  if (!chosen) return std::nullopt;

  ShardDurability::Recovered& s = w.state;
  s.n = chosen->n;
  s.stretch = chosen->stretch;
  s.version = chosen->version;
  s.checksum = chosen->snapshot_checksum;
  s.snap_keys = std::move(chosen->snap_keys);
  for (EdgeKey k : chosen->graph_keys) w.graph.insert(k);

  // Versions must chain contiguously across segments in base order.
  std::vector<uint64_t> bases;
  for (const std::string& name : fs.list(dir))
    if (auto b = parse_wal_file_name(name); b && *b >= s.version)
      bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  for (uint64_t base : bases) {
    if (s.version >= cap) break;
    WalSegment seg = read_wal_segment(fs, dir + "/" + wal_file_name(base));
    if (!seg.header_ok) {
      s.tail_truncated = true;
      break;
    }
    if (seg.base_version > s.version) break;  // gap: later epochs unusable
    bool stop = false;
    for (const WalRecord& rec : seg.records) {
      if (rec.version <= s.version) continue;
      if (rec.version > cap) {
        stop = true;
        break;
      }
      auto folded = extend_chain(s.n, s.stretch, s.version, s.snap_keys, rec);
      if (!folded) {
        stop = true;
        s.tail_truncated = true;
        break;
      }
      s.snap_keys = std::move(*folded);
      fold_graph_input(w.graph, s.n, rec);
      s.version = rec.version;
      s.checksum = rec.checksum;
      ++s.replayed_records;
    }
    if (stop) break;
    if (seg.truncated_tail) {
      s.tail_truncated = true;
      break;
    }
  }
  s.graph_keys = w.graph.sorted_keys();
  return w;
}

}  // namespace

std::optional<std::vector<EdgeKey>> extend_chain(uint64_t n, uint32_t stretch,
                                                 uint64_t version,
                                                 std::span<const EdgeKey> keys,
                                                 const WalRecord& rec) {
  if (rec.version != version + 1) return std::nullopt;
  auto folded = checked_apply_diff(keys, rec.diff_inserted, rec.diff_removed);
  if (!folded || snapshot_content_checksum(n, stretch, rec.version, *folded) !=
                     rec.checksum)
    return std::nullopt;
  return folded;
}

std::optional<DurableState> read_durable_state(Fs& fs, const std::string& dir,
                                               uint64_t max_version) {
  std::vector<uint64_t> rotten;  // left in place: this walk is read-only
  auto w = walk_chain(fs, dir, max_version, &rotten);
  if (!w) return std::nullopt;
  return std::move(w->state);
}

ShardDurability::ShardDurability(std::shared_ptr<Fs> fs, std::string dir,
                                 const DurabilityOptions& opts, uint64_t n,
                                 uint32_t stretch)
    : fs_(std::move(fs)), dir_(std::move(dir)), opts_(opts), n_(n),
      stretch_(stretch) {}

bool ShardDurability::open_segment(uint64_t base_version) {
  WalWriterOptions wopts;
  wopts.policy = opts_.fsync_policy;
  wopts.every_n = opts_.fsync_every_n;
  wopts.interval = opts_.fsync_interval;
  wal_ = std::make_unique<WalWriter>(*fs_, dir_ + "/" + wal_file_name(base_version),
                                     base_version, wopts);
  if (wal_->failed()) {
    failed_ = true;
    return false;
  }
  return true;
}

std::unique_ptr<ShardDurability> ShardDurability::create(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
    uint64_t n, uint32_t stretch, uint64_t version,
    std::span<const EdgeKey> snap_keys, uint64_t snapshot_checksum,
    std::vector<EdgeKey> graph_keys) {
  if (!fs->mkdirs(dir)) return nullptr;
  // A fresh shard must not inherit another incarnation's files: a stale
  // higher-versioned checkpoint would win the next recovery.
  for (const std::string& name : fs->list(dir))
    if (parse_checkpoint_file_name(name) || parse_wal_file_name(name) ||
        name == "ckpt.tmp")
      fs->remove(dir + "/" + name);

  auto d = std::unique_ptr<ShardDurability>(
      new ShardDurability(std::move(fs), std::move(dir), opts, n, stretch));
  for (EdgeKey k : graph_keys) d->graph_.insert(k);

  Checkpoint ckpt;
  ckpt.version = version;
  ckpt.n = n;
  ckpt.stretch = stretch;
  ckpt.snapshot_checksum = snapshot_checksum;
  ckpt.snap_keys.assign(snap_keys.begin(), snap_keys.end());
  ckpt.graph_keys = std::move(graph_keys);
  if (!write_checkpoint(*d->fs_, d->dir_, ckpt)) return nullptr;
  d->last_ckpt_version_ = version;
  d->ckpt_versions_.push_back(version);
  if (!d->open_segment(version)) return nullptr;
  d->publish_durable();
  return d;
}

bool ShardDurability::log_record(const WalRecord& rec) {
  // The graph shadow folds the input even when the append fails: it must
  // track the BACKEND (which applied the batch regardless), so a later
  // recovery-epilogue checkpoint — if durability ever came back — would
  // not lie. With sticky failure it simply stays consistent in memory.
  fold_graph_input(graph_, n_, rec);
  if (failed_) return false;
  if (!wal_->append(rec)) {
    failed_ = true;
    return false;
  }
  publish_durable();
  ++records_logged_;
  ++records_since_ckpt_;
  return true;
}

bool ShardDurability::maybe_checkpoint(uint64_t version,
                                       uint64_t snapshot_checksum,
                                       std::span<const EdgeKey> snap_keys) {
  if (failed_ || opts_.checkpoint_every == 0 ||
      records_since_ckpt_ < opts_.checkpoint_every)
    return !failed_;
  return checkpoint_now(version, snapshot_checksum, snap_keys);
}

bool ShardDurability::checkpoint_now(uint64_t version,
                                     uint64_t snapshot_checksum,
                                     std::span<const EdgeKey> snap_keys) {
  if (failed_) return false;
  // Complete the outgoing segment (write out + sync staged frames) before
  // superseding it: a fallback replay from an OLDER retained checkpoint
  // must be able to walk this segment's full record chain up to `version`.
  if (!wal_->sync()) {
    failed_ = true;
    return false;
  }
  publish_durable();
  Checkpoint ckpt;
  ckpt.version = version;
  ckpt.n = n_;
  ckpt.stretch = stretch_;
  ckpt.snapshot_checksum = snapshot_checksum;
  ckpt.snap_keys.assign(snap_keys.begin(), snap_keys.end());
  ckpt.graph_keys = graph_.sorted_keys();
  if (!write_checkpoint(*fs_, dir_, ckpt)) {
    failed_ = true;
    return false;
  }
  last_ckpt_version_ = version;
  ckpt_versions_.push_back(version);
  records_since_ckpt_ = 0;
  publish_durable();
  // Rotate BEFORE GC: the new segment must exist before anything old goes.
  if (!open_segment(version)) return false;
  gc_old_files();
  return true;
}

void ShardDurability::gc_old_files() {
  // Best-effort: a failed remove leaves extra files recovery ignores.
  if (ckpt_versions_.size() <= opts_.keep_checkpoints) return;
  size_t drop = ckpt_versions_.size() - std::max<uint32_t>(1, opts_.keep_checkpoints);
  uint64_t oldest_kept = ckpt_versions_[drop];
  for (size_t i = 0; i < drop; ++i)
    fs_->remove(dir_ + "/" + checkpoint_file_name(ckpt_versions_[i]));
  ckpt_versions_.erase(ckpt_versions_.begin(), ckpt_versions_.begin() + drop);
  for (const std::string& name : fs_->list(dir_))
    if (auto base = parse_wal_file_name(name); base && *base < oldest_kept)
      fs_->remove(dir_ + "/" + name);
}

void ShardDurability::publish_durable() {
  uint64_t v = last_ckpt_version_;
  if (wal_ != nullptr) v = std::max(v, wal_->synced_version());
  durable_.store(v, std::memory_order_release);
}

std::optional<ShardDurability::Recovered> ShardDurability::recover(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts) {
  std::vector<uint64_t> rotten;
  auto w = walk_chain(*fs, dir, UINT64_MAX, &rotten);
  // Unusable checkpoints go, so they cannot shadow the good one next time.
  for (uint64_t v : rotten) fs->remove(dir + "/" + checkpoint_file_name(v));
  if (!w) return std::nullopt;

  Recovered& out = w->state;
  auto d = std::unique_ptr<ShardDurability>(new ShardDurability(
      std::move(fs), std::move(dir), opts, out.n, out.stretch));
  d->graph_ = std::move(w->graph);
  d->last_ckpt_version_ = w->ckpts.back();
  d->ckpt_versions_ = std::move(w->ckpts);
  d->records_since_ckpt_ = out.version - d->last_ckpt_version_;
  d->open_segment(out.version);  // failure leaves d sticky-failed; state is
                                 // still good — the caller decides.
  d->publish_durable();
  out.dur = std::move(d);
  return std::move(out);
}

}  // namespace parspan
