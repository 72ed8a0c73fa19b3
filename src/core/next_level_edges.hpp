// NextLevelEdges: the contracted-pair ledger shared by both contractions —
// Contract(G, x) of Lemma 4.1 (ContractionLayer) and ContractUltra of
// Lemma 5.1 (UltraSparseSpanner) — plus the representative lift
// S_i = H_i ∪ Bwd_i(S_{i+1}) that maps the next level's spanner back
// through the ledger.
//
// The ledger keeps, per contracted pair (c, c'), the members (alive edges
// whose endpoint heads are {c, c'}) and one designated representative (the
// paper's Bwd/FwdCorrespondence). Members are a small unordered vector with
// swap-pop erase: bucket sizes are degree-bounded and average a couple of
// entries, where a linear scan beats any hash structure and teardown is one
// vector free (the InterCluster trade-off of DESIGN.md §6.4). The first
// member of an empty bucket becomes its representative; after the
// represented member is erased, `members[0]` is re-elected. Owners call
// add/remove in serial deterministic phases (DESIGN.md §7), so every
// election is reproducible.
//
// As in change propagation, only the pairs a batch touched move to the next
// level: the first touch of a pair in a batch snapshots whether it existed
// and its representative, and drain() compares the snapshots with the
// current buckets in pair-key order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "container/flat_map.hpp"
#include "core/spanner_diff.hpp"
#include "util/types.hpp"

namespace parspan {

/// Member ids are uint32_t edge ids (ContractionLayer) or EdgeKeys
/// (UltraSparseSpanner). Pair keys are canonical EdgeKeys of the
/// contracted graph.
template <typename Id>
class NextLevelEdges {
 public:
  /// Adds member m to pair pk; kNoEdge (no contracted pair) is a no-op.
  void add(EdgeKey pk, Id m) {
    if (pk == kNoEdge) return;
    touch(pk);
    Bucket& b = buckets_[pk];
    if (b.members.empty()) b.rep = m;
    assert(std::find(b.members.begin(), b.members.end(), m) ==
           b.members.end());
    b.members.push_back(m);
  }

  /// Removes member m (must be present) from pair pk; kNoEdge is a no-op.
  void remove(EdgeKey pk, Id m) {
    if (pk == kNoEdge) return;
    touch(pk);
    Bucket* b = buckets_.find(pk);
    assert(b != nullptr);
    auto it = std::find(b->members.begin(), b->members.end(), m);
    assert(it != b->members.end());
    *it = b->members.back();
    b->members.pop_back();
    if (b->members.empty())
      buckets_.erase(pk);
    else if (b->rep == m)
      b->rep = b->members[0];
  }

  size_t size() const { return buckets_.size(); }

  /// Current representative of pair pk (must exist).
  Id rep(EdgeKey pk) const {
    const Bucket* b = buckets_.find(pk);
    assert(b != nullptr);
    return b->rep;
  }

  /// The contracted graph: every pair with at least one member, key-sorted.
  std::vector<Edge> pairs() const {
    std::vector<Edge> out;
    out.reserve(buckets_.size());
    for (EdgeKey pk : buckets_.sorted_keys()) out.push_back(edge_from_key(pk));
    return out;
  }

  /// Compiles the touched pairs, in pair-key order, into the next level's
  /// insertions (pair gained its first member), deletions (pair lost its
  /// last member) and representative changes (pair survived with another
  /// representative), then forgets the snapshots.
  void drain(std::vector<Edge>& next_ins, std::vector<Edge>& next_del,
             std::vector<Edge>& rep_changed) {
    std::sort(touched_keys_.begin(), touched_keys_.end());
    for (EdgeKey pk : touched_keys_) {
      const Snapshot& snap = *touched_.find(pk);
      const Bucket* b = buckets_.find(pk);
      if (snap.existed && b == nullptr) next_del.push_back(edge_from_key(pk));
      if (!snap.existed && b != nullptr) next_ins.push_back(edge_from_key(pk));
      if (snap.existed && b != nullptr && snap.old_rep != b->rep)
        rep_changed.push_back(edge_from_key(pk));
      touched_.erase(pk);
    }
    touched_keys_.clear();
  }

  /// Forgets the snapshots without compiling them (construction fills the
  /// ledger from empty; that is not a batch).
  void forget_touched() {
    touched_.clear();
    touched_keys_.clear();
  }

  /// Oracle: the buckets hold exactly the member sets of `expect` (pair ->
  /// members, any order), each with a representative among its members.
  bool matches(FlatHashMap<EdgeKey, std::vector<Id>>& expect) const {
    if (expect.size() != buckets_.size()) return false;
    bool ok = true;
    expect.for_each([&](EdgeKey pk, std::vector<Id>& members) {
      const Bucket* b = buckets_.find(pk);
      if (b == nullptr) {
        ok = false;
        return;
      }
      std::vector<Id> have = b->members;
      std::sort(members.begin(), members.end());
      std::sort(have.begin(), have.end());
      if (have != members ||
          !std::binary_search(have.begin(), have.end(), b->rep))
        ok = false;
    });
    return ok;
  }

 private:
  struct Bucket {
    std::vector<Id> members;
    Id rep{};
  };
  struct Snapshot {
    bool existed = false;
    Id old_rep{};
  };

  /// Snapshots pk on its first touch in the batch.
  void touch(EdgeKey pk) {
    size_t before = touched_.size();
    Snapshot& snap = touched_[pk];
    if (touched_.size() == before) return;
    touched_keys_.push_back(pk);
    if (const Bucket* b = buckets_.find(pk)) snap = Snapshot{true, b->rep};
  }

  FlatHashMap<EdgeKey, Bucket> buckets_;
  FlatHashMap<EdgeKey, Snapshot> touched_;
  std::vector<EdgeKey> touched_keys_;
};

/// Bwd(S_{i+1}) inside S_i: for every contracted pair of the next level's
/// spanner, the member edge currently standing in for it.
class LiftedReps {
 public:
  /// Applies the next level's spanner diff and the ledger's representative
  /// changes. rep_of(pair key) is the pair's current representative edge
  /// key. Calls remove(edge key) for every retired stand-in before
  /// add(edge key) for every new one: departing pairs, then stale
  /// representatives of surviving pairs; arriving pairs, then the fresh
  /// representatives. Construction lifts its whole initial next-level
  /// spanner as `inserted`.
  template <typename RepOf, typename Remove, typename Add>
  void apply(const SpannerDiff& next_diff,
             const std::vector<Edge>& rep_changed, RepOf rep_of,
             Remove remove, Add add) {
    for (const Edge& p : next_diff.removed) {
      EdgeKey* it = used_.find(p.key());
      assert(it != nullptr);
      remove(*it);
      used_.erase(p.key());
    }
    std::vector<EdgeKey> stale;
    for (const Edge& p : rep_changed) {
      EdgeKey* it = used_.find(p.key());
      if (it == nullptr) continue;  // pair not in the next level's spanner
      if (*it == rep_of(p.key())) continue;
      remove(*it);
      used_.erase(p.key());
      stale.push_back(p.key());
    }
    for (const Edge& p : next_diff.inserted) lift(p.key(), rep_of, add);
    for (EdgeKey pk : stale) lift(pk, rep_of, add);
  }

  /// Oracle: `s` is exactly `base` plus one current representative per
  /// pair of `next_spanner`, each disjoint from `base` and from the others,
  /// and the stand-ins recorded here are those representatives.
  template <typename RepOf>
  bool check(const std::vector<EdgeKey>& next_spanner, RepOf rep_of,
             FlatHashSet<EdgeKey> base, const FlatHashSet<EdgeKey>& s) const {
    if (used_.size() != next_spanner.size()) return false;
    for (EdgeKey pk : next_spanner) {
      const EdgeKey* it = used_.find(pk);
      if (it == nullptr || *it != rep_of(pk) || !base.insert(*it))
        return false;
    }
    if (base.size() != s.size()) return false;
    bool ok = true;
    base.for_each([&](EdgeKey ek) { ok = ok && s.contains(ek); });
    return ok;
  }

 private:
  template <typename RepOf, typename Add>
  void lift(EdgeKey pk, RepOf& rep_of, Add& add) {
    EdgeKey r = rep_of(pk);
    used_[pk] = r;
    add(r);
  }

  FlatHashMap<EdgeKey, EdgeKey> used_;  // pair -> stand-in edge key
};

}  // namespace parspan
