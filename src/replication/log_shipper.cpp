#include "replication/log_shipper.hpp"

#include "durability/durable_shard.hpp"
#include "durability/wal_tail.hpp"

namespace parspan {

LogShipper::LogShipper(std::shared_ptr<Fs> fs, std::string dir, uint64_t epoch,
                       std::shared_ptr<ReplicationTransport> transport)
    : fs_(std::move(fs)), dir_(std::move(dir)), epoch_(epoch),
      transport_(std::move(transport)) {}

void LogShipper::ship_snapshot(uint64_t durable_version) {
  // The durable state is rebuilt from disk, not leader memory: what ships
  // is exactly what a leader crash would recover, so follower state can
  // never get ahead of recoverable state.
  auto state = read_durable_state(*fs_, dir_, durable_version);
  if (!state) return;  // nothing durable yet — next pump retries
  transport_->send_frame(make_snapshot_frame(epoch_, *state));
  ++snapshots_shipped_;
}

void LogShipper::pump(uint64_t durable_version) {
  // The newest cursor wins: earlier ones are superseded acks (or
  // duplicates a lossy control plane replayed).
  while (auto c = transport_->recv_cursor()) {
    cursor_ = *c;
    have_cursor_ = true;
  }
  if (!have_cursor_) return;  // not subscribed yet — nothing to aim at

  if (cursor_.epoch != epoch_ || cursor_.need_snapshot ||
      cursor_.version > durable_version) {
    ship_snapshot(durable_version);
    return;
  }
  if (cursor_.version == durable_version) return;  // caught up

  std::vector<WalRecord> records;
  if (!read_wal_range(*fs_, dir_, cursor_.version, durable_version,
                      &records)) {
    // History below the ack was GC'd (or the chain is torn short of the
    // watermark): incremental shipping is off the table, resync.
    ship_snapshot(durable_version);
    return;
  }
  for (const WalRecord& rec : records) {
    transport_->send_frame(make_record_frame(epoch_, rec));
    ++records_shipped_;
  }
}

}  // namespace parspan
