// Batch diffs of a spanner edge set: the SpannerDiff result type, the
// per-batch net-diff accumulator every layer drains key-sorted, and the
// refcounted-contribution set built on it (DESIGN.md §6.4, §7.4).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/primitives.hpp"
#include "util/types.hpp"

namespace parspan {

/// Net change of a spanner edge set after one update batch. Producers in
/// core/ emit both sides sorted by canonical edge key, so equal spanner
/// evolutions compare equal element-wise.
struct SpannerDiff {
  std::vector<Edge> inserted;
  std::vector<Edge> removed;
};

/// Per-batch net-diff accumulator shared by the spanner layers: a flat
/// delta table plus the list of keys it holds. Draining by touched key
/// keeps diff compilation O(batch) — a clear() would scan the table's
/// whole high-water capacity every batch (DESIGN.md §6.4).
class DiffAccumulator {
 public:
  void bump(EdgeKey e, int32_t dir) {
    size_t before = delta_.size();
    int32_t& d = delta_[e];
    if (delta_.size() != before) touched_.push_back(e);
    d += dir;
  }
  void add(EdgeKey e) { bump(e, +1); }
  void remove(EdgeKey e) { bump(e, -1); }

  bool empty() const { return delta_.empty(); }

  /// Compiles the net diff (both sides sorted by canonical key) and leaves
  /// the accumulator empty. Net values must lie in [-1, 1].
  SpannerDiff drain() {
    SpannerDiff diff;
    for (EdgeKey ek : touched_) {
      int32_t* d = delta_.find(ek);
      assert(d != nullptr && *d >= -1 && *d <= 1);
      if (*d > 0) diff.inserted.push_back(edge_from_key(ek));
      if (*d < 0) diff.removed.push_back(edge_from_key(ek));
      delta_.erase(ek);
    }
    touched_.clear();
    parallel_sort(diff.inserted);
    parallel_sort(diff.removed);
    return diff;
  }

  /// Discards all accumulated state without compiling a diff.
  void reset() {
    delta_.clear();
    touched_.clear();
  }

 private:
  FlatHashMap<EdgeKey, int32_t> delta_;
  std::vector<EdgeKey> touched_;
};

/// An edge set whose members are refcounted contributions of several
/// components (tree edges and group representatives, H members, instance
/// forests). The one rule: count 0→1 adds the key to the batch diff, 1→0
/// erases it and records its removal; the diff drains key-sorted.
class ContribRefcounts {
 public:
  void add(EdgeKey e) {
    if (++count_[e] == 1) delta_.add(e);
  }
  void remove(EdgeKey e) {
    uint32_t* c = count_.find(e);
    assert(c != nullptr);
    if (--*c == 0) {
      count_.erase(e);
      delta_.remove(e);
    }
  }

  size_t size() const { return count_.size(); }
  bool contains(EdgeKey e) const { return count_.contains(e); }
  std::vector<EdgeKey> sorted_keys() const { return count_.sorted_keys(); }
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    count_.for_each([&](EdgeKey e, const uint32_t&) { fn(e); });
  }
  void reserve(size_t n) { count_.reserve(n); }

  bool delta_empty() const { return delta_.empty(); }
  SpannerDiff drain() { return delta_.drain(); }
  /// Keeps the counts but forgets the pending diff (construction-time
  /// contributions are not a diff).
  void discard_delta() { delta_.reset(); }

  /// True iff the counts equal `expect` exactly (the invariant oracles'
  /// from-scratch recount).
  bool matches(const FlatHashMap<EdgeKey, uint32_t>& expect) const {
    if (expect.size() != count_.size()) return false;
    bool ok = true;
    expect.for_each([&](EdgeKey e, uint32_t c) {
      const uint32_t* have = count_.find(e);
      if (have == nullptr || *have != c) ok = false;
    });
    return ok;
  }

 private:
  FlatHashMap<EdgeKey, uint32_t> count_;
  DiffAccumulator delta_;
};

}  // namespace parspan
