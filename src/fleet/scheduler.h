// WorkStealingScheduler — drives the fleet's sessions.
//
// Sessions are resumable TASKS: each carries a cursor (the next slice of
// simulated time to run) and lives in a per-shard run queue keyed by its
// next-wake simulated time. Workers pop the most-behind session from their
// own shard and STEAL the furthest-ahead session from a sibling's queue
// when theirs is dry — no phase, no join, no global barrier. One straggler
// slows only itself.
//
// Slice j of a session is one advanceTo(target(j)), target(j) =
// min(duration, j*epoch). Detection runs inline inside the slice, on the
// worker advancing the session (core/detection_executor.h), so a slice
// leaves nothing behind: the session is re-enqueued for slice j+1 at once,
// or retires after its last slice.
//
// The determinism contract: sessions share no mutable state (with the
// shared verdict tier off), so WHO runs a slice and WHEN in wall clock is
// irrelevant; only each session's own slice sequence matters, and that is
// fixed by the config. Merged fig8/Table III/Table VII digests are
// therefore byte-identical for any worker count, any steal interleaving,
// any rerun, and equal to an epoch-barrier reference that advances every
// session epoch by epoch (FleetSchedulerTest holds the two equal).
//
// After its final slice a session RETIRES: the worker stamps its finish
// wall time and drops it from the active count. Its stats stay in the
// session; Fleet::snapshot() reads them with one in-order scan after run()
// has joined every worker.
//
// Lock order (see util/lock_rank.h): control (100) -> shard queue (200)
// while enqueuing. A slice itself runs with no scheduler lock held, so the
// pipeline's own locks (verdict tier stripes, frame pool) are taken from
// an empty rank stack. Shard locks share a rank — a thread never holds two
// (stealing probes siblings only after releasing its own shard).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fleet/device_session.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace darpa::fleet {

/// Wall-clock / scheduling observability for one run. NONE of it feeds a
/// digest — steals and finish times vary with thread timing by design; the
/// digest-stable outputs live in the sessions' stats/ledgers, which are
/// scheduling-independent.
struct SchedulerMetrics {
  std::int64_t slicesRun = 0;
  std::int64_t localPops = 0;       ///< Sessions taken from the home shard.
  std::int64_t steals = 0;          ///< Sessions taken from a sibling shard.
  /// Wall-clock ms from run() start to each session's retirement, indexed
  /// by session id. The straggler-tail metrics (p99 session lag) in
  /// bench_fleet_throughput derive from this.
  std::vector<double> finishWallMs;
};

class WorkStealingScheduler {
 public:
  struct Config {
    Millis epoch{1000};      ///< Slice quantum.
    Millis duration{60'000}; ///< Simulated time every session covers.
    int workers = 1;         ///< Worker threads == run-queue shards.
  };

  /// The sessions are borrowed and must outlive the scheduler.
  WorkStealingScheduler(std::vector<std::unique_ptr<DeviceSession>>& sessions,
                        Config config);
  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  /// Drives every session from 0 to duration (sessions must already be
  /// start()ed) and blocks until all have retired. Call once.
  void run();

  /// Valid after run().
  [[nodiscard]] const SchedulerMetrics& metrics() const { return metrics_; }

 private:
  /// One resumable session task. Fields are owned by whichever worker is
  /// currently running or retiring the session (hand-offs go through the
  /// shard queues, whose lock acquire/release pairs are the happens-before
  /// edges).
  struct Task {
    DeviceSession* session = nullptr;
    /// Next slice to run; slice j advances to target(j).
    int cursor CONFINED_TO("owning worker") = 1;
  };

  /// One run-queue shard (home of sessions with id % workers == index).
  struct Shard {
    util::RankedMutex mutex{util::LockRank::kSessionQueue,
                            "fleet.WorkStealingScheduler.shard"};
    /// Ordered by (next-wake simulated ms, session id): begin() is the
    /// most-behind session (the home pop), rbegin() the furthest-ahead
    /// (what a thief takes, leaving the urgent work local).
    std::set<std::pair<std::int64_t, int>> queue GUARDED_BY(mutex);
  };

  struct WorkerStats {
    std::int64_t slices = 0;
    std::int64_t localPops = 0;
    std::int64_t steals = 0;
  };

  [[nodiscard]] Millis target(int slice) const {
    const std::int64_t t =
        static_cast<std::int64_t>(slice) * config_.epoch.count;
    return t >= config_.duration.count ? config_.duration : Millis{t};
  }

  void workerLoop(int worker);
  /// Pops the front (back when stealing) of one shard's queue; -1 if empty.
  [[nodiscard]] int popFrom(int shardIndex, bool stealBack);
  /// Own-shard pop, then steal sweep over the siblings; -1 when no work.
  [[nodiscard]] int findWork(int worker, WorkerStats& ws);
  /// Blocks until work may exist. False when the fleet has fully retired.
  [[nodiscard]] bool idleWait();

  /// Runs one slice of one session, then re-enqueues or retires it.
  void runSlice(int id);
  void retire(int id);

  void enqueueLocked(int id) REQUIRES(control_);

  Config config_;

  std::vector<Task> tasks_;  ///< Fixed after construction; index = id.
  std::vector<std::unique_ptr<Shard>> shards_;  ///< Fixed; one per worker.

  /// Global scheduler state: liveness and the idle protocol.
  mutable util::RankedMutex control_{util::LockRank::kFleetControl,
                                     "fleet.WorkStealingScheduler.control"};
  util::RankedConditionVariable idleCv_;
  int active_ GUARDED_BY(control_) = 0;  ///< Sessions not yet retired.

  /// Fast runnable signal for idle workers: queue inserts increment,
  /// pops decrement. A stale read only costs one extra probe loop.
  std::atomic<int> runnableHint_{0};

  double runStartWall_ = 0.0;
  SchedulerMetrics metrics_;  ///< Merged under control_ at worker exit.
};

}  // namespace darpa::fleet
