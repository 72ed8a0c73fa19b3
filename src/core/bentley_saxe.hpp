// BentleySaxe<Policy>: the decremental -> fully-dynamic reduction of paper
// §3.4 ([BS80, BS08]), shared by the fully-dynamic spanner (Theorem 1.1,
// Invariant B1) and the fully-dynamic sparsifier (Theorem 1.6, Invariant
// B2). DESIGN.md §6.1 describes the pipeline.
//
// Edges are kept in a partition E = E_0 ∪ E_1 ∪ ... ∪ E_b with
//
//   |E_i| <= 2^{i + l0}   (l0 is the caller's base-capacity exponent).
//
// E_0 carries no instance: every edge of E_0 is an output edge. Every other
// nonempty E_i runs its own decremental instance, and the output is the
// union of the per-partition outputs (spanners and sparsifiers are both
// decomposable: Observation 3.7, Lemma 6.7).
//
// A batch runs deletions first, then insertions:
//  * Deletions are routed to their partition through the flat Index table
//    and applied to all touched partitions concurrently; the per-partition
//    diffs are absorbed in partition order.
//  * Insertion batch U splits into U_r ∪ U_0 ∪ ... ∪ U_b with
//    |U_i| = 2^{l0+i} or empty (the binary representation of |U|); each
//    nonempty U_i is merged with E_i..E_{j-1} into the first empty slot E_j
//    (j >= i), U_r is appended to E_0 when it fits. A rebuild runs in three
//    phases: a serial prepare per chunk (merge by one parallel sort, Index
//    update, seed drawn in chunk order), one concurrent build of all
//    pending instances, and a serial install in job order.
// The returned diff is the net output change of the whole batch, compiled
// by the policy's netter, and is a deterministic function of (n, initial
// edges, seed, batch history) — independent of the worker count.
//
// A Policy supplies only what differs between the two reductions:
//
//   using Instance;   // decremental structure: delete_edges(span<const
//                     // Edge>) -> Diff, alive_edges(), check_invariants()
//   using Out;        // output element (Edge or WeightedEdge)
//   using Netter;     // add(Out) / remove(Out) / empty() / drain() -> Diff
//   std::unique_ptr<Instance> build(size_t n, std::vector<EdgeKey> sorted,
//                                   uint64_t seed) const;
//   static std::vector<Out> outputs(const Instance&);
//   static size_t output_size(const Instance&);
//   static Out unit(EdgeKey);          // an E_0 edge as output
//   static EdgeKey key(const Out&);
//
// Thread safety: update() parallelizes internally; external calls must be
// serialized.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/arena.hpp"
#include "parallel/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace parspan {

template <class Policy>
class BentleySaxe {
 public:
  using Instance = typename Policy::Instance;
  using Out = typename Policy::Out;
  using Netter = typename Policy::Netter;
  using Diff = decltype(std::declval<Netter&>().drain());

  /// Installs `initial` (canonicalized, deduplicated) in the smallest slot
  /// that holds it; its instance takes the first derived seed.
  BentleySaxe(size_t n, uint32_t l0, const std::vector<Edge>& initial,
              uint64_t seed, Policy policy);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return index_.size(); }
  bool has_edge(Edge e) const { return index_.contains(e.key()); }
  size_t num_partitions() const { return parts_.size(); }
  uint64_t rebuilds() const { return rebuilds_; }

  size_t output_size() const;
  std::vector<Out> outputs() const;

  /// Applies one batch (deletions first, then insertions; duplicates and
  /// no-ops are filtered) and returns the net output diff.
  Diff update(const std::vector<Edge>& insertions,
              const std::vector<Edge>& deletions);

  /// Oracle: the capacity invariant, Index consistency, every instance's
  /// own invariants, and outputs drawn from their partition. For tests.
  bool check_invariants() const;

 private:
  struct Partition {
    FlatHashSet<EdgeKey> edges;         // alive edges assigned here
    std::unique_ptr<Instance> instance;  // null for E_0
  };

  /// One pending rebuild: slot, derived seed, and the merged (sorted,
  /// unique) keys. `built` is filled by the concurrent build phase. A later
  /// chunk of the same batch may absorb a slot whose job is still pending;
  /// the job is then `cancelled` and its edges move into the larger merge
  /// (it contributed nothing to the diff yet).
  struct RebuildJob {
    uint32_t j = 0;
    uint64_t seed = 0;
    bool cancelled = false;
    std::vector<EdgeKey> merged;
    std::unique_ptr<Instance> built;
  };

  /// Index value of an edge accepted this batch but not yet assigned.
  static constexpr uint32_t kUnassigned = static_cast<uint32_t>(-1);

  size_t capacity(size_t i) const { return size_t{1} << (i + l0_); }
  void ensure_parts(size_t j) {
    while (parts_.size() <= j) parts_.emplace_back();
  }

  void absorb(const Diff& d) {
    for (const Out& o : d.removed) netter_.remove(o);
    for (const Out& o : d.inserted) netter_.add(o);
  }

  /// Prepare phase of one chunk: merges `fresh` with E_lo..E_{j-1} into the
  /// first empty slot j >= lo, accounts the departing outputs, updates
  /// Index, and queues the instance construction as a RebuildJob.
  void prepare_rebuild(size_t lo, std::vector<EdgeKey> fresh,
                       std::vector<RebuildJob>& jobs);

  size_t n_ = 0;
  uint32_t l0_ = 0;
  uint64_t seed_ = 0;
  Policy policy_;
  std::vector<Partition> parts_;
  FlatHashMap<EdgeKey, uint32_t> index_;  // alive edge -> partition
  Netter netter_;                         // per-batch diff
  uint64_t rebuilds_ = 0;
  uint64_t instance_counter_ = 0;  // fresh seeds for built instances
};

template <class Policy>
BentleySaxe<Policy>::BentleySaxe(size_t n, uint32_t l0,
                                 const std::vector<Edge>& initial,
                                 uint64_t seed, Policy policy)
    : n_(n), l0_(l0), seed_(seed), policy_(std::move(policy)) {
  std::vector<EdgeKey> keys = canonical_edge_keys(n, initial);
  size_t j = 0;
  while (capacity(j) < keys.size()) ++j;
  ensure_parts(j);
  index_.reserve(keys.size());
  parts_[j].edges.reserve(keys.size());
  for (EdgeKey ek : keys) {
    parts_[j].edges.insert(ek);
    index_[ek] = uint32_t(j);
  }
  if (j > 0)
    parts_[j].instance = policy_.build(
        n_, std::move(keys), hash_combine(seed_, ++instance_counter_));
}

template <class Policy>
size_t BentleySaxe<Policy>::output_size() const {
  size_t s = 0;
  for (const Partition& p : parts_)
    s += p.instance ? Policy::output_size(*p.instance) : p.edges.size();
  return s;
}

template <class Policy>
auto BentleySaxe<Policy>::outputs() const -> std::vector<Out> {
  std::vector<Out> out;
  for (const Partition& p : parts_) {
    if (p.instance) {
      std::vector<Out> h = Policy::outputs(*p.instance);
      out.insert(out.end(), h.begin(), h.end());
    } else {
      p.edges.for_each([&](EdgeKey ek) { out.push_back(Policy::unit(ek)); });
    }
  }
  return out;
}

template <class Policy>
void BentleySaxe<Policy>::prepare_rebuild(size_t lo,
                                          std::vector<EdgeKey> fresh,
                                          std::vector<RebuildJob>& jobs) {
  size_t j = lo;
  while (j < parts_.size() && !parts_[j].edges.empty()) ++j;
  ensure_parts(j);
  ++rebuilds_;
  std::vector<EdgeKey> merged = std::move(fresh);
  size_t total = merged.size();
  for (size_t i = lo; i < j; ++i) total += parts_[i].edges.size();
  merged.reserve(total);
  for (size_t i = lo; i < j; ++i) {
    Partition& p = parts_[i];
    if (p.edges.empty()) {
      p.instance.reset();
      continue;
    }
    // A slot filled earlier in this batch whose instance is still pending:
    // cancel the job and take its edges. Its outputs never entered the
    // diff (they are added at install), so nothing leaves here.
    RebuildJob* pending = nullptr;
    for (RebuildJob& job : jobs)
      if (!job.cancelled && job.j == uint32_t(i)) pending = &job;
    if (pending != nullptr) {
      assert(!p.instance);
      pending->cancelled = true;
      merged.insert(merged.end(), pending->merged.begin(),
                    pending->merged.end());
    } else {
      if (p.instance) {
        for (const Out& o : Policy::outputs(*p.instance)) netter_.remove(o);
      } else {
        p.edges.for_each([&](EdgeKey ek) { netter_.remove(Policy::unit(ek)); });
      }
      p.edges.for_each([&](EdgeKey ek) { merged.push_back(ek); });
    }
    p.edges = FlatHashSet<EdgeKey>{};  // release the absorbed slot array
    p.instance.reset();
  }
  // U_i ∪ E_lo..E_{j-1} as one parallel sort (partitions are disjoint and
  // fresh keys are new, so the union is already duplicate-free).
  parallel_sort(merged);
  assert(std::adjacent_find(merged.begin(), merged.end()) == merged.end());
  assert(merged.size() <= capacity(j));
  Partition& pj = parts_[j];
  pj.edges.reserve(merged.size());
  for (EdgeKey ek : merged) {
    pj.edges.insert(ek);
    index_[ek] = uint32_t(j);
  }
  if (j == 0) {  // E_0 outputs everything; no instance to build
    for (EdgeKey ek : merged) netter_.add(Policy::unit(ek));
    return;
  }
  RebuildJob job;
  job.j = uint32_t(j);
  job.seed = hash_combine(seed_, ++instance_counter_);
  job.merged = std::move(merged);
  jobs.push_back(std::move(job));
}

template <class Policy>
auto BentleySaxe<Policy>::update(const std::vector<Edge>& insertions,
                                 const std::vector<Edge>& deletions)
    -> Diff {
  assert(netter_.empty() && "previous batch drained its diff");
  // Batch-scoped scratch lives on the calling thread's bump arena
  // (DESIGN.md §12.5); job payloads that outlive the batch stay on the heap.
  ArenaScope batch_scratch;

  // --- Deletions: route through Index, delete per partition concurrently.
  // Partitions are disjoint structures; each delete_edges call is itself
  // parallel and nests on the same scheduler.
  ArenaVector<ArenaVector<Edge>> per_part(parts_.size());
  for (const Edge& e : deletions) {
    uint32_t* slot = index_.find(e.key());
    if (slot == nullptr) continue;
    per_part[*slot].push_back(e);
    index_.erase(e.key());
  }
  std::vector<Diff> pdiffs(parts_.size());
  parallel_for(
      0, per_part.size(),
      [&](size_t i) {
        if (per_part[i].empty()) return;
        Partition& p = parts_[i];
        for (const Edge& e : per_part[i]) p.edges.erase(e.key());
        if (p.instance) pdiffs[i] = p.instance->delete_edges(per_part[i]);
      },
      /*grain=*/1);
  for (size_t i = 0; i < per_part.size(); ++i) {
    if (parts_[i].instance) {
      absorb(pdiffs[i]);
    } else {
      for (const Edge& e : per_part[i]) netter_.remove(Policy::unit(e.key()));
    }
  }

  // --- Insertions: split U by the binary representation of |U|. ---
  ArenaVector<EdgeKey> u;
  for (const Edge& e : insertions) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    EdgeKey ek = e.key();
    if (index_.contains(ek)) continue;  // already alive (or seen this batch)
    index_[ek] = kUnassigned;           // assigned by the prepare phase
    u.push_back(ek);
  }
  std::vector<RebuildJob> jobs;
  size_t pos = 0;
  size_t top = 0;
  while (capacity(top + 1) <= u.size()) ++top;
  for (size_t i = top + 1; i-- > 0;) {  // chunks U_i, highest first
    size_t chunk = capacity(i);
    if (u.size() - pos < chunk) continue;
    prepare_rebuild(
        i, std::vector<EdgeKey>(u.begin() + pos, u.begin() + pos + chunk),
        jobs);
    pos += chunk;
  }
  if (pos < u.size()) {  // remainder U_r (< 2^{l0})
    ensure_parts(0);
    if (parts_[0].edges.size() + (u.size() - pos) <= capacity(0)) {
      for (; pos < u.size(); ++pos) {
        parts_[0].edges.insert(u[pos]);
        index_[u[pos]] = 0;
        netter_.add(Policy::unit(u[pos]));
      }
    } else {
      prepare_rebuild(0, std::vector<EdgeKey>(u.begin() + pos, u.end()), jobs);
    }
  }

  // --- Build phase: jobs target disjoint slots and share no state, so all
  // pending instances are constructed concurrently (grain 1: few, heavy
  // iterations, each parallel inside).
  parallel_for(
      0, jobs.size(),
      [&](size_t idx) {
        RebuildJob& job = jobs[idx];
        if (!job.cancelled)
          job.built = policy_.build(n_, std::move(job.merged), job.seed);
      },
      /*grain=*/1);
  // --- Install phase, serial in job order: the diff stays deterministic no
  // matter how the build phase was scheduled.
  for (RebuildJob& job : jobs) {
    if (job.cancelled) continue;
    Partition& p = parts_[job.j];
    p.instance = std::move(job.built);
    for (const Out& o : Policy::outputs(*p.instance)) netter_.add(o);
  }
  return netter_.drain();
}

template <class Policy>
bool BentleySaxe<Policy>::check_invariants() const {
  size_t total = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    const Partition& p = parts_[i];
    if (p.edges.size() > capacity(i)) return false;  // Invariant B1 / B2
    total += p.edges.size();
    bool ok = true;
    p.edges.for_each([&](EdgeKey ek) {
      const uint32_t* slot = index_.find(ek);
      if (slot == nullptr || *slot != i) ok = false;
    });
    if (!ok) return false;
    if (i == 0 ? p.instance != nullptr : !p.instance && !p.edges.empty())
      return false;
    if (p.instance) {
      if (!p.instance->check_invariants()) return false;
      // The instance's alive edges must be exactly p.edges.
      if (p.instance->alive_edges() != p.edges.size()) return false;
      for (const Out& o : Policy::outputs(*p.instance))
        if (!p.edges.contains(Policy::key(o))) return false;
    }
  }
  return total == index_.size();
}

}  // namespace parspan
