// ConcurrentFixedMap: the concurrent stand-in for the CRCW hash table of
// [GMV91] (see DESIGN.md §1) — an open-addressing CAS table for uint64
// keys, insert/find only, used in hot parallel phases with pre-known
// capacity (the cluster spanner's edge index).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>

#include "util/rng.hpp"

namespace parspan {

/// Fixed-capacity open-addressing hash map for uint64 keys (values uint64),
/// with lock-free concurrent insert/find. No erase; keys must be != kEmpty.
/// Used in parallel phases where the batch size bounds the capacity.
class ConcurrentFixedMap {
 public:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  explicit ConcurrentFixedMap(size_t capacity_hint = 16) { rebuild(capacity_hint); }

  /// Re-initializes with capacity for at least `n` keys (not thread-safe).
  void rebuild(size_t n) {
    size_t cap = 16;
    while (cap < 2 * n + 8) cap <<= 1;
    keys_ = std::make_unique<std::atomic<uint64_t>[]>(cap);
    vals_ = std::make_unique<std::atomic<uint64_t>[]>(cap);
    cap_ = cap;
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      keys_[i].store(kEmpty, std::memory_order_relaxed);
      vals_[i].store(0, std::memory_order_relaxed);
    }
    size_.store(0, std::memory_order_relaxed);
  }

  /// Inserts key -> value if absent; returns true if this call inserted.
  /// Concurrent inserts of the same key keep the first value.
  bool insert(uint64_t key, uint64_t value) {
    assert(key != kEmpty);
    size_t i = splitmix64(key) & mask_;
    while (true) {
      uint64_t cur = keys_[i].load(std::memory_order_acquire);
      if (cur == key) return false;
      if (cur == kEmpty) {
        uint64_t expected = kEmpty;
        if (keys_[i].compare_exchange_strong(expected, key,
                                             std::memory_order_acq_rel)) {
          vals_[i].store(value, std::memory_order_release);
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        if (expected == key) return false;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Looks up `key`; returns the value or nullopt.
  std::optional<uint64_t> find(uint64_t key) const {
    size_t i = splitmix64(key) & mask_;
    while (true) {
      uint64_t cur = keys_[i].load(std::memory_order_acquire);
      if (cur == kEmpty) return std::nullopt;
      if (cur == key) return vals_[i].load(std::memory_order_acquire);
      i = (i + 1) & mask_;
    }
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t capacity() const { return cap_; }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> keys_;
  std::unique_ptr<std::atomic<uint64_t>[]> vals_;
  size_t cap_ = 0;
  size_t mask_ = 0;
  std::atomic<size_t> size_{0};
};

}  // namespace parspan
