// Read-only tailing of a live shard durability directory (DESIGN.md §11.1).
//
// The log shipper runs in the leader process but deliberately reads the
// shard's WAL/checkpoint chain through the same Fs seam recovery uses,
// never through ShardDurability's in-memory state: what ships is exactly
// what a crash would restore, so a follower that applied the shipped
// stream equals a leader that crashed and recovered — one convergence
// definition for both subsystems.
//
// The watermark rule: callers clamp every read at the shard's
// durable_version() (checkpoint version ∨ WalWriter::synced_version()).
// Bytes past the watermark may be readable — the writer's flush path can
// put staged frames in the page cache before any fsync — but they are not
// durable, and shipping them would let a follower get AHEAD of what the
// leader can recover, breaking failover's longest-durable-log election.
// Neither read_wal_range() nor read_durable_state() (the capped chain
// walk in durable_shard.hpp that snapshot resyncs ship) ever returns a
// record above its cap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durability/fs.hpp"
#include "durability/wal.hpp"
#include "util/types.hpp"

namespace parspan {

/// Collects the WAL records with versions in (from, to], in order, from
/// the segment chain. Fast path for incremental shipping: frames are CRC-
/// validated and version-contiguous (read_wal_segment's torn-tail rule)
/// but diffs are NOT re-folded here — the follower re-verifies every
/// record's content checksum before applying, so verification happens
/// once, on the consuming side. False when the chain cannot produce the
/// full range (segment GC'd, torn tail short of `to`, gap): the shipper
/// then falls back to a snapshot resync via read_durable_state().
bool read_wal_range(Fs& fs, const std::string& dir, uint64_t from,
                    uint64_t to, std::vector<WalRecord>* out);

}  // namespace parspan
