#include "parallel/scheduler.hpp"

#include <cstdlib>
#include <string>

namespace parspan {

namespace {

// A submitted std::function root task: heap-allocated, self-deleting.
struct RootTask {
  Task task;
  std::function<void()> fn;
  static void invoke(Task* t) {
    RootTask* self = reinterpret_cast<RootTask*>(t);
    // Exceptions escaping a detached root task have nowhere to go; callers
    // that need propagation (parallel_for et al.) catch inside their
    // task bodies. Matching the old WorkerPool, let it terminate loudly
    // rather than swallow.
    self->fn();
    delete self;
  }
};

int initial_loop_parallelism() {
  if (const char* s = std::getenv("PARSPAN_NUM_WORKERS")) {
    int v = std::atoi(s);
    if (v >= 1) return v;
  }
  // Documented compatibility alias: the old TSan kill-switch now just means
  // "loop parallelism 1" — the scheduler itself stays multi-threaded and
  // fully instrumented.
  if (const char* s = std::getenv("PARSPAN_FORCE_SERIAL")) {
    if (s[0] != '\0' && s[0] != '0') return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : int(hw);
}

}  // namespace

Scheduler& Scheduler::instance() {
  // Leaked on purpose: worker threads may outlive main()'s static
  // destructors (detached service users), and the OS reclaims everything.
  static Scheduler* s = new Scheduler();
  return *s;
}

Scheduler::Scheduler() {
  int p = initial_loop_parallelism();
  active_p_.store(p, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(config_mu_);
  // Always spawn at least kMinPoolThreads so service drains overlap even
  // when loops run serial (1-core container parity with the old
  // dedicated WorkerPool threads).
  ensure_threads_locked(p > kMinPoolThreads ? p : kMinPoolThreads);
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  doorbell_.fetch_add(1, std::memory_order_release);
  doorbell_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

void Scheduler::ensure_threads_locked(int want) {
  int have = spawned_.load(std::memory_order_relaxed);
  while (int(workers_.size()) < want)
    workers_.push_back(std::make_unique<Worker>());
  for (int i = have; i < want; ++i) {
    workers_[size_t(i)]->thread = std::thread([this, i] { worker_loop(i); });
    // Publish after the slot is fully constructed: lock-free paths only
    // index workers_ below spawned_.
    spawned_.store(i + 1, std::memory_order_release);
  }
}

void Scheduler::set_num_workers(int p) {
  if (p < 1) p = 1;
  {
    std::lock_guard<std::mutex> lk(config_mu_);
    // Grow-only: shrinking would strand queued mailbox tasks and race
    // in-flight drains; inactive workers simply find no loop work and park.
    if (p > spawned_.load(std::memory_order_relaxed)) ensure_threads_locked(p);
  }
  active_p_.store(p, std::memory_order_relaxed);
}

void Scheduler::submit(std::function<void()> fn, int affinity) {
  RootTask* rt = new RootTask{{&RootTask::invoke}, std::move(fn)};
  stat_spawned_.fetch_add(1, std::memory_order_relaxed);
  if (affinity >= 0) {
    int n = spawned_.load(std::memory_order_acquire);
    Worker& w = *workers_[size_t(affinity % n)];
    std::lock_guard<std::mutex> lk(w.mail_mu);
    w.mailbox.push_back(&rt->task);
  } else {
    std::lock_guard<std::mutex> lk(global_mu_);
    global_.push_back(&rt->task);
  }
  ring_doorbell();
}

void Scheduler::ring_doorbell() {
  doorbell_.fetch_add(1, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire) > 0) doorbell_.notify_all();
}

Task* Scheduler::find_root_task(int self) {
  {
    std::lock_guard<std::mutex> lk(global_mu_);
    if (!global_.empty()) {
      Task* t = global_.front();
      global_.pop_front();
      return t;
    }
  }
  // Own mailbox first (the affinity hint), then sweep the others so a
  // backlogged worker's shards never wait on it alone.
  int n = spawned_.load(std::memory_order_acquire);
  for (int k = 0; k < n; ++k) {
    Worker& w = *workers_[size_t((self + k) % n)];
    std::lock_guard<std::mutex> lk(w.mail_mu);
    if (!w.mailbox.empty()) {
      Task* t = w.mailbox.front();
      w.mailbox.pop_front();
      if (k != 0) stat_stolen_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

Task* Scheduler::try_steal(int self) {
  int n = spawned_.load(std::memory_order_acquire);
  // Rotating start point spreads thieves across victims without RNG (RNG
  // would make schedules harder to replay under the determinism tests,
  // though correctness never depends on the victim order).
  for (int k = 1; k < n; ++k) {
    int victim = (self + k) % n;
    if (Task* t = workers_[size_t(victim)]->deque.steal()) {
      stat_stolen_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

bool Scheduler::help_one() {
  int self = tl_worker_index_;
  assert(self >= 0);
  if (Task* t = workers_[size_t(self)]->deque.pop()) {
    t->run(t);
    return true;
  }
  if (Task* t = try_steal(self)) {
    t->run(t);
    return true;
  }
  return false;
}

void Scheduler::park(int self) {
  (void)self;
  uint64_t e0 = doorbell_.load(std::memory_order_acquire);
  // Re-scan AFTER snapshotting the epoch: a push that lands between our
  // empty scan and the wait bumps the epoch, so the wait falls through.
  if (Task* t = try_steal(self)) {
    t->run(t);
    return;
  }
  if (Task* t = find_root_task(self)) {
    t->run(t);
    return;
  }
  if (shutdown_.load(std::memory_order_acquire)) return;
  stat_parks_.fetch_add(1, std::memory_order_relaxed);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  // Releasing-edge check: a doorbell rung before parked_ went visible
  // shows up as an epoch change here.
  if (doorbell_.load(std::memory_order_acquire) == e0 &&
      !shutdown_.load(std::memory_order_acquire)) {
    doorbell_.wait(e0, std::memory_order_acquire);
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

void Scheduler::worker_loop(int index) {
  tl_worker_index_ = index;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (Task* t = workers_[size_t(index)]->deque.pop()) {
      t->run(t);
      continue;
    }
    if (Task* t = find_root_task(index)) {
      t->run(t);
      continue;
    }
    if (Task* t = try_steal(index)) {
      t->run(t);
      continue;
    }
    park(index);
  }
  tl_worker_index_ = -1;
}

}  // namespace parspan
