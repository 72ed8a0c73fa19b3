// In-repo work-stealing task scheduler — the single parallel substrate for
// every layer of the repo (DESIGN.md §12).
//
// PRs 1-5 ran two schedulers against each other: the work-depth loops
// (parallel_for / sort / scan) forked OpenMP teams while the sharded
// service drained through its own hand-rolled thread pool, so a shard
// drain that entered a parallel loop oversubscribed the machine, and
// libgomp's uninstrumented futex barriers forced the TSan CI job to
// serialize everything (`PARSPAN_FORCE_SERIAL`). This scheduler replaces
// both: one process-wide pool of workers executes loop tasks AND service
// drain tasks, nested fork-join steals instead of spawning, and every
// synchronization edge is std::atomic / std::mutex — fully visible to
// sanitizers, so the concurrency CI finally checks real interleavings.
//
// Structure (all in-process, no dependencies):
//  * per-worker Chase-Lev deques (owner pushes/pops the bottom lock-free,
//    thieves CAS the top) hold fork-join tasks — the memory-order recipe
//    follows Le et al., "Correct and Efficient Work-Stealing for Weak
//    Memory Models" (PPoPP'13);
//  * per-worker mailboxes take root tasks with an affinity hint (a shard
//    prefers its home worker for cache locality) but stay stealable: any
//    worker scans all mailboxes before parking, so affinity never
//    serializes under imbalance;
//  * a global injection queue takes unhinted root tasks and roots
//    submitted by external (non-worker) threads;
//  * parked workers sleep on a doorbell (std::atomic wait/notify — a futex
//    on Linux) with an epoch counter so a push racing a park can never be
//    lost: the parker snapshots the epoch, rescans every queue, and only
//    sleeps while the epoch is unchanged.
//
// Loop parallelism vs pool width. num_workers() (what loops and grain
// heuristics consult, and what set_num_workers adjusts) is deliberately
// decoupled from the spawned thread count: the pool always keeps at least
// kMinPoolThreads threads so service drains overlap even on a 1-core
// container (matching the old dedicated WorkerPool), while loops stay
// serial there exactly as OpenMP-with-1-thread did. PARSPAN_NUM_WORKERS
// overrides the initial loop parallelism; PARSPAN_FORCE_SERIAL=1 is kept
// as the documented alias for PARSPAN_NUM_WORKERS=1 (it no longer
// disables instrumentation-visible threading — there is nothing opaque
// left to hide from TSan).
//
// Determinism. Work stealing moves *who executes a chunk*, never *what the
// chunks are*: parallel_for applies f(i) exactly once per index with
// data-parallel bodies (disjoint writes), parallel_reduce combines over a
// tree whose shape depends only on (n, grain) — see parallel_for.hpp — and
// every commit phase that orders results stays serial in its caller. The
// byte-identical 1-vs-4-worker diff/checksum contract of DESIGN.md §6/§9.4
// therefore survives unchanged.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace parspan {

/// One schedulable unit. Concrete tasks embed their context and a plain
/// function pointer (no virtual dispatch, no std::function on the fork-join
/// hot path). `run` must also release the task's storage if it owns any.
struct Task {
  void (*run)(Task*);
};

namespace detail {

/// Chase-Lev work-stealing deque of Task*. The owner pushes and pops at the
/// bottom without locks; thieves compete for the top with a CAS. Buffers
/// grow geometrically; retired buffers are kept until destruction so a
/// thief racing a grow never reads freed memory (the classic lazy
/// reclamation, bounded by log2(max size) buffers).
class TaskDeque {
 public:
  TaskDeque() : buf_(new Buffer(kInitialCap)) {}
  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;
  ~TaskDeque() {
    delete buf_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  /// Owner only.
  void push(Task* t) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t top = top_.load(std::memory_order_acquire);
    Buffer* buf = buf_.load(std::memory_order_relaxed);
    if (b - top > buf->cap - 1) {
      buf = grow(buf, top, b);
    }
    buf->put(b, t);
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only.
  Task* pop() {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buf_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t top = top_.load(std::memory_order_relaxed);
    if (top > b) {  // empty: restore
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* t = buf->get(b);
    if (top == b) {  // last element: race thieves for it
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        t = nullptr;  // a thief won
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return t;
  }

  /// Any thread.
  Task* steal() {
    int64_t top = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_acquire);
    if (top >= b) return nullptr;
    Buffer* buf = buf_.load(std::memory_order_consume);
    Task* t = buf->get(top);
    if (!top_.compare_exchange_strong(top, top + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;  // lost the race
    return t;
  }

  /// Approximate size; owner-accurate, advisory for thieves and for the
  /// lazy-splitting heuristic (parallel_for splits while this runs low).
  size_t size() const {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? size_t(b - t) : 0;
  }

 private:
  static constexpr int64_t kInitialCap = 256;

  struct Buffer {
    explicit Buffer(int64_t c) : cap(c), mask(c - 1), arr(new Slot[c]) {}
    ~Buffer() { delete[] arr; }
    int64_t cap;
    int64_t mask;
    struct Slot {
      std::atomic<Task*> v{nullptr};
    }* arr;
    // The fences in push/steal already order the slot access; the
    // release/acquire pair on the slot itself (a plain mov on x86) is what
    // lets ThreadSanitizer, which does not model standalone fences, see the
    // hand-off of the task's contents from the pusher to the thief.
    Task* get(int64_t i) const {
      return arr[i & mask].v.load(std::memory_order_acquire);
    }
    void put(int64_t i, Task* t) {
      arr[i & mask].v.store(t, std::memory_order_release);
    }
  };

  Buffer* grow(Buffer* old, int64_t top, int64_t bottom) {
    Buffer* bigger = new Buffer(old->cap * 2);
    for (int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
    buf_.store(bigger, std::memory_order_release);
    retired_.push_back(old);  // thieves may still hold the old pointer
    return bigger;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buf_;
  std::vector<Buffer*> retired_;  // owner only
};

}  // namespace detail

class Scheduler {
 public:
  /// The process-wide scheduler. Workers are spawned on first use.
  static Scheduler& instance();

  /// Loop parallelism: the worker count parallel_for / parallel_reduce and
  /// the grain heuristics see. >= 1.
  int num_workers() const { return active_p_.load(std::memory_order_relaxed); }

  /// Sets the loop parallelism (spawning pool threads as needed). Global;
  /// intended for benchmarks sweeping worker counts and for the
  /// determinism tests — call it only while no parallel work is in flight.
  void set_num_workers(int p);

  /// Total executor threads that may ever run task bodies. Per-executor
  /// scratch pools (cf. UltraSparseSpanner) size themselves with this, NOT
  /// with num_workers(): stealing lets any pool thread run a loop body
  /// regardless of the active loop parallelism.
  int executor_slots() const {
    return spawned_.load(std::memory_order_acquire) + 1;  // +1: slot 0 is
                                                          // for external
                                                          // (serial) callers
  }

  /// True on a scheduler worker thread — the replacement for
  /// omp_in_parallel() at the call sites that pick atomic vs plain counter
  /// updates.
  static bool on_worker() { return tl_worker_index_ >= 0; }

  /// Executor slot of the calling thread: workers map to [1,
  /// executor_slots()), external threads (which only run loop bodies on the
  /// serial-inline path, never concurrently with workers of the same
  /// structure) share slot 0.
  static int worker_slot() { return tl_worker_index_ + 1; }

  /// Submits a root task: `fn` runs once on some pool thread. `affinity`
  /// >= 0 lands the task in that worker's mailbox (modulo pool size) —
  /// a locality hint, not a binding: any worker steals from any mailbox
  /// when its own work runs dry.
  void submit(std::function<void()> fn, int affinity = -1);

  // --- Fork-join surface (used by the templates in parallel_for.hpp). ---

  /// Pushes a fork-join task. Must be called on a worker thread.
  void spawn(Task* t) {
    assert(tl_worker_index_ >= 0);
    stat_spawned_.fetch_add(1, std::memory_order_relaxed);
    workers_[size_t(tl_worker_index_)]->deque.push(t);
    ring_doorbell();
  }

  /// Pushes a stack-allocated root task from an external thread (the
  /// caller must block until the task completes before releasing it).
  void inject(Task* t) {
    stat_spawned_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(global_mu_);
      global_.push_back(t);
    }
    ring_doorbell();
  }

  /// True when the current worker's deque is nearly dry — the lazy binary
  /// splitting predicate: a loop task keeps splitting while thieves (or
  /// its own pop path) are draining the deque, and stops splitting the
  /// moment enough parallel slack exists.
  bool want_split() const {
    assert(tl_worker_index_ >= 0);
    return workers_[size_t(tl_worker_index_)]->deque.size() < 2;
  }

  /// Runs one available *fork-join* task: the caller's own deque first,
  /// then steals from the other workers' deques. Root tasks (mailboxes,
  /// global queue) are deliberately excluded — a nested join must not
  /// swallow an unrelated long-running drain. Returns false when nothing
  /// ran. Worker threads only.
  bool help_one();

  /// Joins a fork-join context: runs/steals tasks until `pending` drops to
  /// zero. On workers this is a help-first loop; external threads (and
  /// workers that run out of stealable work) sleep on the counter itself
  /// (futex wait), woken by the final decrement.
  void join(std::atomic<size_t>& pending) {
    for (;;) {
      size_t p = pending.load(std::memory_order_acquire);
      if (p == 0) return;
      if (tl_worker_index_ >= 0 && help_one()) continue;
      pending.wait(p, std::memory_order_acquire);
    }
  }

  /// Lifetime observability for tests and benches.
  uint64_t tasks_spawned() const {
    return stat_spawned_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_stolen() const {
    return stat_stolen_.load(std::memory_order_relaxed);
  }
  uint64_t parks() const {
    return stat_parks_.load(std::memory_order_relaxed);
  }

  ~Scheduler();

 private:
  Scheduler();

  struct Worker {
    detail::TaskDeque deque;
    std::mutex mail_mu;
    std::deque<Task*> mailbox;
    std::thread thread;
  };

  void worker_loop(int index);
  Task* find_root_task(int self);
  Task* try_steal(int self);
  void ring_doorbell();
  void park(int self);
  void ensure_threads_locked(int want);

  // Pool configuration. workers_ only grows (under config_mu_), and slots
  // are fully constructed before spawned_ publishes them — lock-free
  // readers (spawn/steal paths) index only below spawned_.
  static constexpr int kMinPoolThreads = 4;
  std::mutex config_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> spawned_{0};   // constructed & running pool threads
  std::atomic<int> active_p_{1};  // loop parallelism (num_workers())

  std::mutex global_mu_;
  std::deque<Task*> global_;

  // Doorbell: epoch bumps on every push; parkers re-scan after snapshotting
  // it and sleep only while it is unchanged (no lost wakeups).
  std::atomic<uint64_t> doorbell_{0};
  std::atomic<int> parked_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<uint64_t> stat_spawned_{0};
  std::atomic<uint64_t> stat_stolen_{0};
  std::atomic<uint64_t> stat_parks_{0};

  // -1 on non-pool threads. Defined inline with its constant initializer,
  // so accesses need no TLS wrapper call: with the out-of-line definition,
  // gcc 12's UBSan reports a null load in on_worker().
  static inline thread_local int tl_worker_index_ = -1;
};

/// Loop parallelism of the process-wide scheduler (compat shim for the
/// former OpenMP-backed API).
inline int num_workers() { return Scheduler::instance().num_workers(); }

/// Sets the loop parallelism (benchmarks sweeping worker counts, the
/// determinism tests). Call while no parallel work is in flight.
inline void set_num_workers(int p) { Scheduler::instance().set_num_workers(p); }

/// True when called from inside a scheduler worker (i.e. potentially
/// concurrently with siblings of the same loop) — replaces
/// omp_in_parallel().
inline bool in_parallel() { return Scheduler::on_worker(); }

/// Executor slot for per-thread scratch pools sized executor_slots() —
/// replaces omp_get_thread_num().
inline int worker_slot() { return Scheduler::worker_slot(); }

/// Scratch pools indexed by worker_slot() must hold this many slots.
inline int executor_slots() { return Scheduler::instance().executor_slots(); }

}  // namespace parspan
