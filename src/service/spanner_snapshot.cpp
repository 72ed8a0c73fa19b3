#include "service/spanner_snapshot.hpp"

#include <algorithm>
#include <cassert>

#include "container/flat_map.hpp"
#include "util/rng.hpp"

namespace parspan {

uint64_t snapshot_content_checksum(uint64_t n, uint32_t stretch,
                                   uint64_t version,
                                   std::span<const EdgeKey> keys) {
  uint64_t h = hash_combine(n << 32 | stretch, version);
  // Position-dependent fold: detects reordering and truncation, not just
  // membership changes. The index is widened to uint64_t explicitly — the
  // value must not depend on size_t's width (it is persisted in WAL
  // records and checkpoints).
  for (size_t i = 0; i < keys.size(); ++i)
    h = splitmix64(h ^ hash_combine(keys[i], uint64_t(i)));
  return h;
}

SpannerSnapshot::Ptr SpannerSnapshot::finish(size_t n, uint32_t stretch,
                                             uint64_t version,
                                             std::vector<EdgeKey> keys) {
  const uint64_t sum = snapshot_content_checksum(n, stretch, version, keys);
  return restore(n, stretch, version, std::move(keys), sum);
}

SpannerSnapshot::Ptr SpannerSnapshot::restore(size_t n, uint32_t stretch,
                                              uint64_t version,
                                              std::vector<EdgeKey> keys,
                                              uint64_t checksum) {
  assert(checksum == snapshot_content_checksum(n, stretch, version, keys) &&
         "restore: checksum does not match the keys");
  auto snap = std::shared_ptr<SpannerSnapshot>(new SpannerSnapshot());
  snap->version_ = version;
  snap->stretch_ = stretch;
  snap->n_ = n;
  snap->keys_ = std::move(keys);
  snap->csr_ = csr_build_from_keys(n, snap->keys_);
  snap->checksum_ = checksum;
  return snap;
}

SpannerSnapshot::Ptr SpannerSnapshot::initial(
    size_t n, const std::vector<Edge>& spanner_edges, uint32_t stretch) {
  return finish(n, stretch, 0, canonical_edge_keys(n, spanner_edges));
}

SpannerSnapshot::Ptr SpannerSnapshot::apply(const SpannerSnapshot& prev,
                                            const SpannerDiff& diff) {
  return finish(prev.n_, prev.stretch_, prev.version_ + 1,
                apply_sorted_diff(prev.keys_, diff_side_keys(diff.inserted),
                                  diff_side_keys(diff.removed)));
}

bool SpannerSnapshot::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= n_ || v >= n_) return false;
  if (csr_.degree(u) > csr_.degree(v)) std::swap(u, v);
  auto nbrs = csr_.neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> SpannerSnapshot::edges() const {
  std::vector<Edge> out(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) out[i] = edge_from_key(keys_[i]);
  return out;
}

uint32_t SpannerSnapshot::distance(VertexId u, VertexId v,
                                   uint32_t limit) const {
  if (u >= n_ || v >= n_) return kSnapshotUnreached;
  if (u == v) return 0;
  // Ball-proportional BFS: the visited set is a small flat table, so a
  // bounded query on a sparse spanner never touches O(n) scratch and needs
  // no per-thread state — every reader's query is self-contained.
  FlatHashSet<VertexId> visited;
  std::vector<VertexId> frontier{u}, next;
  visited.insert(u);
  for (uint32_t d = 1; d <= limit; ++d) {
    next.clear();
    for (VertexId x : frontier) {
      for (VertexId y : csr_.neighbors(x)) {
        if (!visited.insert(y)) continue;
        if (y == v) return d;
        next.push_back(y);
      }
    }
    if (next.empty()) break;
    frontier.swap(next);
  }
  return kSnapshotUnreached;
}

bool SpannerSnapshot::consistent() const {
  if (!std::is_sorted(keys_.begin(), keys_.end()) ||
      std::adjacent_find(keys_.begin(), keys_.end()) != keys_.end())
    return false;
  if (csr_.num_arcs() != 2 * keys_.size()) return false;
  if (csr_.num_vertices() != n_) return false;
  return checksum_ == snapshot_content_checksum(n_, stretch_, version_, keys_);
}

}  // namespace parspan
