// SpannerSnapshot: one immutable, versioned view of the maintained spanner
// — the unit the serving layer publishes (DESIGN.md §8).
//
// A snapshot owns its whole representation (sorted canonical key list +
// symmetric CSR adjacency + a content checksum), so any number of reader
// threads may query one concurrently with no synchronization, and a reader
// that pinned version v keeps a fully valid view while the writer publishes
// v+1, v+2, ... — immutability is what makes the concurrent serving layer
// race-free by construction.
//
// Snapshots are built *incrementally*: version v+1 applies the batch's
// net SpannerDiff to version v's sorted key list (one three-pointer merge,
// apply_sorted_diff) and rebuilds the CSR from the merged keys — O(spanner)
// with small constants, instead of re-exporting spanner_edges() from the
// dynamic structure (which walks every partition's hash tables and
// re-sorts). The deterministic key-sorted diff contract of DESIGN.md §6 is
// what makes this replay well-defined: inserted keys are guaranteed absent,
// removed keys present.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "parallel/csr.hpp"
#include "util/types.hpp"

namespace parspan {

/// Hop distance exceeding the query limit (see SpannerSnapshot::distance).
inline constexpr uint32_t kSnapshotUnreached = static_cast<uint32_t>(-1);

/// The snapshot content checksum as a stable, serialization-grade function
/// of (n, stretch, version, sorted canonical keys) — a splitmix64 fold with
/// position-dependent key mixing (DESIGN.md §10.1). Every input is widened
/// to a fixed-width integer before mixing, so the value is independent of
/// the platform's size_t width and byte order: the durability layer logs it
/// on one machine and re-derives it on whatever machine replays the WAL.
/// The formula is FROZEN — checked-in logs and the golden-value test break
/// if it changes.
uint64_t snapshot_content_checksum(uint64_t n, uint32_t stretch,
                                   uint64_t version,
                                   std::span<const EdgeKey> keys);

class SpannerSnapshot {
 public:
  using Ptr = std::shared_ptr<const SpannerSnapshot>;

  /// Version 0 snapshot from a freshly constructed structure's exported
  /// spanner edge set (the only full export the service ever does).
  static Ptr initial(size_t n, const std::vector<Edge>& spanner_edges,
                     uint32_t stretch);

  /// Version prev.version()+1 by applying one batch's net diff to prev.
  static Ptr apply(const SpannerSnapshot& prev, const SpannerDiff& diff);

  /// Rebuilds a snapshot from verified state: sorted-unique canonical
  /// `keys` at an arbitrary `version` whose content checksum the caller
  /// has already derived as `checksum` (the chain walk of recovery, a
  /// follower's record or snapshot adoption — DESIGN.md §10.4, §11.3), so
  /// it is not folded a second time. Precondition: keys ascending, unique,
  /// in range, and `checksum` equal to snapshot_content_checksum over them
  /// (asserted in debug builds).
  static Ptr restore(size_t n, uint32_t stretch, uint64_t version,
                     std::vector<EdgeKey> keys, uint64_t checksum);

  uint64_t version() const { return version_; }
  uint32_t stretch() const { return stretch_; }
  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return keys_.size(); }

  /// True iff {u, v} is a spanner edge: binary search in the ascending
  /// neighbor list of the smaller-degree endpoint, O(log deg).
  bool has_edge(VertexId u, VertexId v) const;

  /// Neighbors of v in the spanner, ascending; empty for out-of-range v
  /// (like every other query here, tolerant of malformed client ids).
  /// Valid as long as the snapshot is alive (readers hold it via
  /// shared_ptr).
  std::span<const VertexId> neighbors(VertexId v) const {
    if (v >= n_) return {};
    return csr_.neighbors(v);
  }
  size_t degree(VertexId v) const { return v < n_ ? csr_.degree(v) : 0; }

  /// Sorted canonical keys of the spanner edge set.
  std::span<const EdgeKey> edge_keys() const { return keys_; }

  /// Materializes the edge set (ascending by canonical key).
  std::vector<Edge> edges() const;

  /// Bounded-BFS hop distance from u to v in the spanner, or
  /// kSnapshotUnreached if it exceeds `limit` hops. Allocation-light
  /// (scratch is proportional to the explored ball) and const — safe to
  /// call from many reader threads at once.
  uint32_t distance(VertexId u, VertexId v, uint32_t limit) const;

  /// distance() bounded by the structure's stretch guarantee: for any
  /// *graph* edge (u, v) the spanner promises hops <= stretch, so a
  /// kSnapshotUnreached here witnesses a stretch violation (or that (u, v)
  /// is not a graph edge).
  uint32_t stretch_of(VertexId u, VertexId v) const {
    return distance(u, v, stretch_);
  }

  /// Content checksum fixed at construction: a splitmix64 fold over
  /// (n, stretch, version, sorted keys). Readers re-derive it with
  /// consistent() to prove the view they see is the one the writer built
  /// (the torn-publish oracle of the concurrency tests).
  uint64_t checksum() const { return checksum_; }

  /// Recomputes the checksum from the key list and cross-checks the CSR's
  /// arc count against it. O(spanner); for tests and debug readers.
  bool consistent() const;

 private:
  SpannerSnapshot() = default;

  static Ptr finish(size_t n, uint32_t stretch, uint64_t version,
                    std::vector<EdgeKey> keys);

  uint64_t version_ = 0;
  uint32_t stretch_ = 0;
  size_t n_ = 0;
  std::vector<EdgeKey> keys_;  // ascending canonical keys
  CsrGraph csr_;               // symmetric adjacency over keys_
  uint64_t checksum_ = 0;
};

}  // namespace parspan
