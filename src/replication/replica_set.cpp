#include "replication/replica_set.hpp"

#include <cassert>

namespace parspan {

namespace {

// The read-routing rule (DESIGN.md §11.5): the first of `n` followers, in
// round-robin order from `start`, whose snapshot is at version >=
// `version`; the leader serves only when none can honor the client's
// watermark. `follower_at(i)` yields follower i, or null to pass it over.
template <typename FollowerAt>
ReplicationGroup::ReadResult route_read(size_t n, size_t start,
                                        uint64_t version,
                                        FollowerAt&& follower_at,
                                        const SpannerService& leader) {
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    const FollowerReplica* f = follower_at(i);
    if (f == nullptr) continue;
    SpannerSnapshot::Ptr snap = f->snapshot();
    if (snap != nullptr && snap->version() >= version)
      return {std::move(snap), static_cast<int>(i)};
  }
  return {leader.snapshot(), -1};
}

}  // namespace

ReplicationGroup::ReplicationGroup(const SpannerService* leader, uint64_t epoch)
    : leader_(leader), epoch_(epoch) {
  assert(leader_ != nullptr && leader_->durability() != nullptr &&
         "ReplicationGroup needs a durability-enabled leader to tail");
}

FollowerReplica& ReplicationGroup::add_follower(
    std::shared_ptr<ReplicationTransport> transport,
    std::shared_ptr<Fs> follower_fs, std::string follower_dir,
    const DurabilityOptions& follower_opts) {
  return attach(std::make_unique<FollowerReplica>(
                    std::move(follower_fs), std::move(follower_dir),
                    follower_opts, transport),
                transport);
}

FollowerReplica& ReplicationGroup::attach(
    std::unique_ptr<FollowerReplica> follower,
    std::shared_ptr<ReplicationTransport> transport) {
  const ShardDurability* dur = leader_->durability();
  Member m;
  m.shipper = std::make_unique<LogShipper>(dur->fs(), dur->dir(), epoch_,
                                           transport);
  m.transport = std::move(transport);
  m.follower = std::move(follower);
  members_.push_back(std::move(m));
  return *members_.back().follower;
}

std::unique_ptr<FollowerReplica> ReplicationGroup::detach(size_t i) {
  std::unique_ptr<FollowerReplica> f = std::move(members_[i].follower);
  members_.erase(members_.begin() + static_cast<ptrdiff_t>(i));
  return f;
}

uint64_t ReplicationGroup::leader_durable() const {
  return leader_->durability()->durable_version();
}

void ReplicationGroup::pump() {
  const uint64_t durable = leader_durable();
  for (Member& m : members_) {
    m.shipper->pump(durable);
    m.follower->pump();
  }
}

bool ReplicationGroup::converged() const {
  const uint64_t durable = leader_durable();
  for (const Member& m : members_)
    if (m.follower->epoch() != epoch_ ||
        m.follower->applied_version() != durable)
      return false;
  return true;
}

ReplicationGroup::ReadResult ReplicationGroup::read_at_least(uint64_t version) {
  ReadResult r = route_read(
      members_.size(), rr_, version,
      [this](size_t i) -> const FollowerReplica* {
        const FollowerReplica* f = members_[i].follower.get();
        return f->epoch() == epoch_ ? f : nullptr;
      },
      *leader_);
  if (r.source >= 0) rr_ = static_cast<size_t>(r.source) + 1;
  return r;
}

ReplicatedShardedReader::ReplicatedShardedReader(
    const ShardedSpannerService* service)
    : service_(service), fleets_(service->num_shards()) {}

void ReplicatedShardedReader::add_follower(size_t shard,
                                           const FollowerReplica* follower) {
  fleets_.at(shard).push_back(follower);
}

ShardedView ReplicatedShardedReader::view_at_least(
    const VersionVector& vv, std::vector<int>* sources) const {
  assert(vv.v.size() == fleets_.size() &&
         "version vector must match the shard count");
  if (sources != nullptr) sources->assign(fleets_.size(), -1);
  std::vector<SpannerSnapshot::Ptr> snaps(fleets_.size());
  const size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  for (size_t s = 0; s < fleets_.size(); ++s) {
    // Leader fallback: its served version always dominates any flush()
    // vector it produced.
    const auto& fleet = fleets_[s];
    ReplicationGroup::ReadResult r = route_read(
        fleet.size(), start, vv.v[s], [&fleet](size_t i) { return fleet[i]; },
        service_->shard_service(s));
    snaps[s] = std::move(r.snap);
    if (sources != nullptr) (*sources)[s] = r.source;
    (r.source >= 0 ? follower_reads_ : leader_reads_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return ShardedView::compose(service_->router_ptr(), service_->vertex_space(),
                              std::move(snaps));
}

}  // namespace parspan
