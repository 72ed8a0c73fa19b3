// SnapshotStore: the single-writer / multi-reader publication point of the
// serving layer (DESIGN.md §8).
//
// The store holds one strong reference to the current SpannerSnapshot.
// publish() (writer only) swings that reference to the next version;
// acquire() (any thread, any time) returns its own strong reference to
// whatever version is current. Both sides cross one pointer-copy critical
// section — a mutex held for a two-word shared_ptr copy, nothing else —
// whose lock/unlock pair is also the release/acquire edge that makes every
// byte of the immutable snapshot (all written before publish) visible to
// the reader that observed it.
//
// Why a mutex and not C++20 std::atomic<std::shared_ptr>: libstdc++'s
// _Sp_atomic unlocks its spin-bit with memory_order_relaxed on the load
// path, so a reader's pointer read and the writer's next store have no
// formal happens-before edge — ThreadSanitizer reports it (correctly, per
// the C++ memory model), and this layer's whole test story is "TSan-clean
// with zero suppressions" (DESIGN.md §8.4). The critical section is a
// refcount increment; readers amortize it by serving a block of queries
// per acquire, so it is never the scaling bottleneck — and it is trivially
// starvation- and tear-free on every platform.
//
// Reclamation is reference counting: a reader that pinned version v keeps
// it alive across any number of later publishes, and v is destroyed
// exactly when its last holder (reader or store) lets go — no epochs, no
// hazard pointers, no deferred free lists.
#pragma once

#include <cassert>
#include <memory>
#include <mutex>

#include "service/spanner_snapshot.hpp"

namespace parspan {

class SnapshotStore {
 public:
  using Ptr = SpannerSnapshot::Ptr;

  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Current snapshot (null until the first publish). Callable from any
  /// thread; the returned reference keeps the version alive for as long as
  /// the caller holds it.
  Ptr acquire() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cur_;
  }

  /// Installs `next` as the current snapshot. Single writer; versions must
  /// be strictly increasing (checked in debug builds — the monotonicity
  /// readers assert on). The previous version's store reference is
  /// released *outside* the critical section, so a reader never waits on
  /// snapshot destruction.
  void publish(Ptr next) { install(std::move(next), /*monotone=*/true); }

  /// Installs `next` as the first version of a new publish chain, at any
  /// version: a follower adopting another epoch's history, where a rebase
  /// reuses version numbers with different content. Same single writer
  /// and reader guarantees as publish().
  void restart(Ptr next) { install(std::move(next), /*monotone=*/false); }

 private:
  void install(Ptr next, [[maybe_unused]] bool monotone) {
    assert(next != nullptr);
    Ptr prev;
    {
      std::lock_guard<std::mutex> lk(mu_);
      assert(!monotone || cur_ == nullptr ||
             next->version() > cur_->version());
      prev = std::move(cur_);
      cur_ = std::move(next);
    }
    // prev drops here; if this was the last reference, the old version's
    // teardown happens on the writer thread, off the readers' path.
  }

  mutable std::mutex mu_;
  Ptr cur_;
};

}  // namespace parspan
