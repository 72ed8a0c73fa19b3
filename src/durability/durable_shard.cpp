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

}  // namespace

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
  for (EdgeKey k : rec.input_deleted)
    if (valid_graph_key(k, n_)) graph_.erase(k);
  for (EdgeKey k : rec.input_inserted)
    if (valid_graph_key(k, n_)) graph_.insert(k);
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
  // Newest structurally valid checkpoint whose content checksum re-derives
  // from its own key list — older ones are the fallback against rot.
  std::vector<uint64_t> ckpts;
  for (const std::string& name : fs->list(dir))
    if (auto v = parse_checkpoint_file_name(name)) ckpts.push_back(*v);
  std::sort(ckpts.begin(), ckpts.end());
  std::optional<Checkpoint> chosen;
  while (!ckpts.empty()) {
    auto c = load_checkpoint(*fs, dir, ckpts.back());
    if (c && snapshot_content_checksum(c->n, c->stretch, c->version,
                                       c->snap_keys) == c->snapshot_checksum) {
      chosen = std::move(c);
      break;
    }
    // Unusable: drop the file so it cannot shadow the good one next time.
    fs->remove(dir + "/" + checkpoint_file_name(ckpts.back()));
    ckpts.pop_back();
  }
  if (!chosen) return std::nullopt;

  Recovered out;
  out.n = chosen->n;
  out.stretch = chosen->stretch;
  out.version = chosen->version;
  out.checksum = chosen->snapshot_checksum;
  out.snap_keys = std::move(chosen->snap_keys);
  out.graph_keys = std::move(chosen->graph_keys);

  FlatHashSet<EdgeKey> graph;
  for (EdgeKey k : out.graph_keys) graph.insert(k);

  // Replay segments at/above the checkpoint in base order. Versions must
  // chain contiguously; the first invalid frame (or semantically
  // inconsistent record — checksum verified BEFORE apply) ends replay for
  // good: bytes past a tear are garbage by the append-only discipline.
  std::vector<uint64_t> bases;
  for (const std::string& name : fs->list(dir))
    if (auto b = parse_wal_file_name(name); b && *b >= out.version)
      bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  bool stop = false;
  for (uint64_t base : bases) {
    if (stop) break;
    WalSegment seg = read_wal_segment(*fs, dir + "/" + wal_file_name(base));
    if (!seg.header_ok) {
      out.tail_truncated = true;
      break;
    }
    if (seg.base_version > out.version) break;  // gap: later epochs unusable
    for (WalRecord& rec : seg.records) {
      if (rec.version <= out.version) continue;
      if (rec.version != out.version + 1) {
        stop = true;
        out.tail_truncated = true;
        break;
      }
      auto folded =
          checked_apply_diff(out.snap_keys, rec.diff_inserted, rec.diff_removed);
      if (!folded || snapshot_content_checksum(out.n, out.stretch, rec.version,
                                               *folded) != rec.checksum) {
        stop = true;
        out.tail_truncated = true;
        break;
      }
      out.snap_keys = std::move(*folded);
      for (EdgeKey k : rec.input_deleted)
        if (valid_graph_key(k, out.n)) graph.erase(k);
      for (EdgeKey k : rec.input_inserted)
        if (valid_graph_key(k, out.n)) graph.insert(k);
      out.version = rec.version;
      out.checksum = rec.checksum;
      ++out.replayed_records;
    }
    if (seg.truncated_tail) {
      out.tail_truncated = true;
      break;
    }
  }
  out.graph_keys = graph.sorted_keys();

  auto d = std::unique_ptr<ShardDurability>(new ShardDurability(
      std::move(fs), std::move(dir), opts, out.n, out.stretch));
  d->graph_ = std::move(graph);
  d->last_ckpt_version_ = ckpts.empty() ? out.version : ckpts.back();
  d->ckpt_versions_ = std::move(ckpts);
  d->records_since_ckpt_ = out.version - d->last_ckpt_version_;
  d->open_segment(out.version);  // failure leaves d sticky-failed; state is
                                 // still good — the caller decides.
  d->publish_durable();
  out.dur = std::move(d);
  return out;
}

}  // namespace parspan
