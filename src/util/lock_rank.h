// Lock ranks — a global acquisition-order contract for every mutex in the
// runtime, validated at runtime.
//
// The fleet nests locks (the work-stealing scheduler's control lock over
// its run-queue shards; frame-pool shard over spill), and nested locking
// deadlocks silently the first time two threads acquire the same pair in
// opposite orders. This module makes the ordering a checked contract
// instead of a convention:
//
//  * LockRank is the global rank table. A thread may only acquire a mutex
//    whose rank is STRICTLY GREATER than every rank it already holds —
//    acquisition order follows rank order, so a cycle (the deadlock
//    precondition) is impossible by construction. Ranks are spaced so
//    future tiers slot between existing ones without renumbering.
//  * RankedMutex wraps std::mutex with a rank + a name, registers itself
//    in the process-wide LockRankRegistry, and (when rank checking is
//    compiled in) asserts the strictly-increasing rule on every lock().
//    It carries Clang thread-safety CAPABILITY annotations, so GUARDED_BY
//    fields and the -Wthread-safety lane work through it unchanged.
//  * LockGuard is the RAII holder (SCOPED_CAPABILITY); use it instead of
//    std::lock_guard so the static analysis sees the acquire/release pair
//    on every toolchain (libstdc++'s lock_guard is not annotated).
//
// Rank checking defaults ON in every build (DARPA_LOCK_RANK_CHECKS=1): the
// validator is two thread-local vector operations per lock/unlock on locks
// that sit at screenshot/epoch frequency, never inside the detector's hot
// loops. A violation aborts with a "lock-rank" diagnostic naming both
// mutexes (death-tested in tests/lock_rank_test.cpp). Define
// DARPA_LOCK_RANK_CHECKS=0 to compile the wrapper down to a bare
// std::mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/thread_annotations.h"

#ifndef DARPA_LOCK_RANK_CHECKS
#define DARPA_LOCK_RANK_CHECKS 1
#endif

namespace darpa::util {

/// The global lock-rank table, lowest rank acquired first. Gaps are
/// deliberate: a new lock tier slots between existing ranks without
/// renumbering. DESIGN.md §12 documents who holds what while acquiring
/// what.
enum class LockRank : int {
  /// Fleet-level orchestration: the work-stealing scheduler's global state
  /// (active-session count, idle cv).
  kFleetControl = 100,
  /// Per-shard session run queues (work-stealing scheduler). All shards
  /// share this rank, so a thread may never hold two shard locks at once —
  /// the steal protocol releases its own shard before probing a sibling.
  kSessionQueue = 200,
  /// Fleet-wide shared verdict tier stripes (core::SharedVerdictTier).
  /// All shards share this rank (at most one shard lock held at a time;
  /// nothing is called out to under it). Below kStatMerge and the
  /// frame-pool ranks so a tier operation can never be entangled with a
  /// retirement fold or a slab release.
  kVerdictTier = 400,
  /// Sharded stat-merge locks (core::StatMergeShards): sessions fold their
  /// stats/ledger at retirement, snapshots read shards one at a time.
  kStatMerge = 500,
  /// gfx::FramePool per-shard free lists. Near-leaf: slab release runs
  /// from arbitrary call depth (any last FramePtr drop, on any thread,
  /// possibly while a scheduler or tier lock is held), so the pool
  /// locks must be acquirable under everything else. All shards share this
  /// rank; a thread holds at most one shard lock at a time.
  kFramePool = 600,
  /// gfx::FramePool global spill list — the overflow tier behind the
  /// per-shard free lists. Strictly above kFramePool because the spill is
  /// probed while the caller's shard lock is held.
  kFramePoolSpill = 650,
};

[[nodiscard]] const char* lockRankName(LockRank rank);

/// Process-wide registry of every live RankedMutex, keyed by rank. Lets
/// tests (and postmortems) assert the runtime's lock population carries
/// the ranks DESIGN.md documents, and catches two unrelated locks sharing
/// a rank by accident.
class LockRankRegistry {
 public:
  struct Entry {
    LockRank rank;
    const char* name;  ///< The mutex's debug name (static string).
    int live = 0;      ///< RankedMutexes currently constructed.
  };

  /// The singleton. Construction order safe: function-local static.
  [[nodiscard]] static LockRankRegistry& instance();

  /// Snapshot of the registered ranks, sorted ascending by rank then name.
  [[nodiscard]] std::vector<Entry> snapshot() const;

  /// Live mutexes registered under `rank` (0 when none).
  [[nodiscard]] int liveCount(LockRank rank) const;

 private:
  friend class RankedMutex;
  void add(LockRank rank, const char* name);
  void remove(LockRank rank, const char* name);

  // The registry's own lock is internal bookkeeping, not part of the
  // ranked world: it is only ever held across a vector scan in
  // add/remove/snapshot and never while any ranked lock is acquired.
  mutable std::mutex mutex_;  // detlint: allow(mutex-missing-guarded-by) — registry internals, see above
  std::vector<Entry> entries_;
};

/// Per-thread validator for the strictly-increasing acquisition rule.
/// RankedMutex calls these; tests may query the introspection helpers.
class RankValidator {
 public:
  /// Aborts with a "lock-rank" diagnostic when `rank` is not strictly
  /// greater than every rank the calling thread already holds.
  static void onAcquire(LockRank rank, const char* name);
  /// Removes the (topmost matching) held entry; aborts if not held.
  static void onRelease(LockRank rank, const char* name);

  /// Ranks currently held by the calling thread (introspection).
  [[nodiscard]] static int heldCount();
  /// Highest rank held, or -1 when none.
  [[nodiscard]] static int topRank();
};

/// std::mutex + rank + name. Lock/unlock validate rank order (when
/// DARPA_LOCK_RANK_CHECKS) and carry the thread-safety annotations that
/// make GUARDED_BY(mutex_) fields checkable by -Wthread-safety.
class CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {
#if DARPA_LOCK_RANK_CHECKS
    LockRankRegistry::instance().add(rank_, name_);
#endif
  }
  ~RankedMutex() {
#if DARPA_LOCK_RANK_CHECKS
    LockRankRegistry::instance().remove(rank_, name_);
#endif
  }
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() ACQUIRE() {
#if DARPA_LOCK_RANK_CHECKS
    RankValidator::onAcquire(rank_, name_);
#endif
    impl_.lock();
  }

  void unlock() RELEASE() {
    impl_.unlock();
#if DARPA_LOCK_RANK_CHECKS
    RankValidator::onRelease(rank_, name_);
#endif
  }

  [[nodiscard]] LockRank rank() const { return rank_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  LockRank rank_;
  const char* name_;
  std::mutex impl_;  // detlint: allow(mutex-missing-guarded-by) — the wrapper IS the guard
};

/// RAII lock holder for RankedMutex, visible to the thread-safety analysis
/// on every toolchain. Use this (not std::lock_guard) for ranked locks.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(RankedMutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  RankedMutex& mutex_;
};

/// Condition variable usable with RankedMutex. condition_variable_any takes
/// the mutex as its Lockable, so the unlock/relock inside wait() goes
/// through RankedMutex::lock()/unlock() and the rank validator's held-stack
/// stays correct across the block.
///
/// Contract: the waiting thread must hold `mutex` as its HIGHEST-ranked
/// lock (typically its only one). wait() releases it mid-wait; if a
/// higher-ranked lock were still held, the re-acquisition after wakeup
/// would violate the strictly-increasing rule and abort. Spurious wakeups
/// happen — always wait in a predicate loop.
class RankedConditionVariable {
 public:
  void wait(RankedMutex& mutex) REQUIRES(mutex) { cv_.wait(mutex); }
  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace darpa::util
