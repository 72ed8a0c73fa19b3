#include "replication/follower.hpp"

#include "service/spanner_snapshot.hpp"

namespace parspan {

namespace {

constexpr const char* kEpochFile = "epoch";

}  // namespace

uint64_t read_epoch_file(Fs& fs, const std::string& dir) {
  std::vector<uint8_t> b;
  if (!fs.read_file(dir + "/" + kEpochFile, &b) || b.size() != 12) return 0;
  if (crc32c(b.data(), 8) != get_le32(b.data() + 8)) return 0;
  return get_le64(b.data());
}

void write_epoch_file(Fs& fs, const std::string& dir, uint64_t epoch) {
  std::vector<uint8_t> b;
  put_le64(b, epoch);
  put_le32(b, crc32c(b.data(), 8));
  auto file = fs.create(dir + "/" + kEpochFile);
  if (file != nullptr && file->append(b.data(), b.size())) file->sync();
}

FollowerReplica::FollowerReplica(std::shared_ptr<Fs> fs, std::string dir,
                                 const DurabilityOptions& opts,
                                 std::shared_ptr<ReplicationTransport> transport)
    : fs_(std::move(fs)), dir_(std::move(dir)), opts_(opts),
      transport_(std::move(transport)) {}

std::unique_ptr<FollowerReplica> FollowerReplica::recover(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
    std::shared_ptr<ReplicationTransport> transport) {
  auto f = std::make_unique<FollowerReplica>(fs, dir, opts,
                                             std::move(transport));
  auto rec = ShardDurability::recover(std::move(fs), std::move(dir), opts);
  if (!rec) return f;  // nothing durable — a fresh follower that resyncs

  SpannerSnapshot::Ptr snap =
      SpannerSnapshot::restore(rec->n, rec->stretch, rec->version,
                               std::move(rec->snap_keys), rec->checksum);
  f->dur_ = std::move(rec->dur);
  f->epoch_ = read_epoch_file(*f->fs_, f->dir_);
  // Compact immediately (the recovery epilogue discipline of §10.4): a
  // follower that crash-loops must not accumulate log.
  if (f->dur_ != nullptr)
    f->dur_->checkpoint_now(snap->version(), snap->checksum(),
                            snap->edge_keys());
  f->store_.publish(std::move(snap));
  return f;
}

void FollowerReplica::adopt_snapshot(uint64_t frame_epoch, DurableState state) {
  const bool epoch_changed = frame_epoch != epoch_;
  epoch_ = frame_epoch;
  need_snapshot_ = false;
  SpannerSnapshot::Ptr snap =
      SpannerSnapshot::restore(state.n, state.stretch, state.version,
                               std::move(state.snap_keys), state.checksum);
  // A fresh genesis for the follower's own chain: create() wipes the old
  // ckpt/wal files, so nothing from a previous epoch (or a previous
  // incarnation's divergent tail) can win a later recovery.
  dur_ = ShardDurability::create(fs_, dir_, opts_, state.n, state.stretch,
                                 state.version, snap->edge_keys(),
                                 state.checksum, std::move(state.graph_keys));
  write_epoch_file(*fs_, dir_, epoch_);
  // Rebase epochs reuse version numbers with different content — start a
  // new publish chain rather than mixing them (see header).
  if (epoch_changed)
    store_.restart(std::move(snap));
  else
    store_.publish(std::move(snap));
  ++resyncs_;
}

void FollowerReplica::apply_record(uint64_t frame_epoch, const WalRecord& rec) {
  const SpannerSnapshot::Ptr cur = store_.acquire();
  if (frame_epoch != epoch_ || cur == nullptr) {
    // A record from the future epoch is unusable without its rebase
    // snapshot; ask for one. (Past epochs were already dropped in pump().)
    need_snapshot_ = true;
    return;
  }
  if (rec.version <= cur->version()) {
    ++duplicates_;  // re-ship overlap or transport duplicate — idempotent
    return;
  }
  if (rec.version != cur->version() + 1) {
    ++gaps_;  // reordered ahead of its predecessor — the re-ship closes it
    return;
  }
  auto folded = extend_chain(cur->num_vertices(), cur->stretch(),
                             cur->version(), cur->edge_keys(), rec);
  if (!folded) {
    // CRC-valid but semantically wrong (or checksum mismatch): the
    // follower's chain cannot extend this way. Explicit reject + resync —
    // the §11 "never silent divergence" guarantee.
    ++rejects_;
    need_snapshot_ = true;
    return;
  }
  SpannerSnapshot::Ptr next =
      SpannerSnapshot::restore(cur->num_vertices(), cur->stretch(),
                               rec.version, std::move(*folded), rec.checksum);
  if (dur_ != nullptr) {
    dur_->log_record(rec);
    dur_->maybe_checkpoint(next->version(), next->checksum(),
                           next->edge_keys());
  }
  store_.publish(std::move(next));
  ++records_applied_;
}

void FollowerReplica::pump() {
  while (auto frame = transport_->recv_frame()) {
    auto parsed = parse_frame(*frame);
    if (!parsed) {
      ++rejects_;  // mangled on the wire; the unchanged cursor re-ships it
      continue;
    }
    if (parsed->epoch < epoch_) {
      ++stale_drops_;  // a deposed leader's frame — dead on arrival
      continue;
    }
    if (parsed->type == FrameType::kSnapshot) {
      const DurableState& st = parsed->state;
      if (parsed->epoch == epoch_ && has_state() &&
          st.version <= applied_version()) {
        ++duplicates_;  // never adopt backwards within an epoch
        continue;
      }
      // Trust nothing: the checksum must re-derive from the shipped keys
      // before this state becomes ours (restore then reuses it).
      if (snapshot_content_checksum(st.n, st.stretch, st.version,
                                    st.snap_keys) != st.checksum) {
        ++rejects_;
        continue;
      }
      adopt_snapshot(parsed->epoch, std::move(parsed->state));
    } else {
      apply_record(parsed->epoch, parsed->rec);
    }
  }
  ReplicaCursor c;
  c.epoch = epoch_;
  c.version = applied_version();
  c.need_snapshot = !has_state() || need_snapshot_;
  transport_->send_cursor(c);
}

}  // namespace parspan
