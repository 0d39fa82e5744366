// Fleet — N DeviceSessions driven to a common simulated horizon across W
// workers by the work-stealing scheduler (fleet/scheduler.h).
//
// The determinism model, in one paragraph: simulated time is sliced into
// epochs. A session's slice j covers (target(j-1), target(j)] where
// target(j) = min(duration, j*epoch). Every session detects inline, on the
// worker advancing it (core/detection_executor.h), so a slice is
// self-contained. Sessions share no mutable state with the shared verdict
// tier off, so WHO runs a slice and WHEN in wall clock is irrelevant; only
// the slice sequence matters, and it is fixed by the config. A fleet run's
// aggregated DarpaStats/WorkLedger are therefore identical across repeated
// runs and across worker counts; only wall-clock changes.
//
// Aggregation: the sessions outlive run(), so snapshot() is one scan of
// every session in id order once the workers have joined. The fixed order
// keeps the double summation in the ledger bit-reproducible.
// perf::DeviceModel consumes the roll-up unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detection_executor.h"
#include "core/verdict_tier.h"
#include "fleet/device_session.h"
#include "fleet/scheduler.h"
#include "util/thread_annotations.h"

namespace darpa::fleet {

struct FleetConfig {
  int sessions = 1;
  int workers = 1;        ///< Worker threads (1 = run on the calling thread).
  Millis epoch{1000};     ///< Scheduling slice quantum.
  Millis duration{60'000};
  std::uint64_t seed = 606;
  core::DarpaConfig darpa;  ///< Per-session service config (the executor
                            ///< and verdict tier are overridden by the
                            ///< fleet).
  android::WindowManager::Config window;
  bool monkey = true;
  std::string packagePrefix = "com.fleet.app";
  /// Per-session config hook, applied after the fleet's own seeding and
  /// before the session is built. Lets tests and benches skew individual
  /// sessions (e.g. one deliberately hyperactive straggler for the
  /// steal-heavy path). The fleet re-asserts its own wiring (id, executor,
  /// frame pool) afterwards.
  std::function<void(int, DeviceSession::Config&)> sessionTweak;
  /// Share one FramePool across every session's screen captures. Off, each
  /// capture heap-allocates (the pre-pool behavior); on, slabs recycle
  /// across sessions and epochs. Results are byte-identical either way —
  /// the pool only changes where the bytes live.
  bool pooledFrames = true;
  /// Own a fleet-wide SharedVerdictTier (the L2 behind every session's
  /// verdict cache) and point every session at it. Off by default: a
  /// tier-less fleet is byte-identical to the pre-tier build. On, sessions
  /// share verdicts for recurring screens — per-session verdicts are
  /// unchanged, only who pays for them moves, so digests trade
  /// byte-equality for verdict equivalence (see verdict_tier.h). The
  /// tier has one stripe per worker.
  bool sharedVerdictTier = false;
};

/// Fleet-wide roll-up.
struct FleetSnapshot {
  int sessions = 0;
  Millis simTime{0};             ///< Simulated time covered per session.
  core::DarpaStats stats;        ///< Summed over sessions.
  core::WorkLedger ledger;       ///< Merged over sessions.
  std::int64_t eventsEmitted = 0;
  std::int64_t auiExposures = 0;
  std::int64_t auisCovered = 0;
  gfx::FramePool::Stats framePool;  ///< Zeroed when pooling is off.
  /// Shared L2 counters (zeroed when the tier is off). Observability only
  /// — hit totals depend on cross-session timing, so nothing digest-stable
  /// may consume them.
  core::SharedVerdictTier::Stats verdictTier;
};

class Fleet {
 public:
  /// The detector and executor are borrowed and shared by every session;
  /// both must outlive the fleet. Each session calls the executor inline
  /// from the worker advancing it.
  Fleet(const cv::Detector& detector, core::DetectionExecutor& executor,
        FleetConfig config);

  /// Destroys the sessions, then returns the freed heap to the allocator
  /// in one pass (see fleet.cpp).
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drives every session over the whole configured duration. Single-use:
  /// a second call aborts (a fleet's sessions have already consumed their
  /// event streams, so "run again" has no meaningful semantics).
  void run();

  [[nodiscard]] int sessionCount() const {
    return static_cast<int>(sessions_.size());
  }
  /// Aborts on an out-of-range index.
  [[nodiscard]] DeviceSession& session(int i) {
    checkSessionIndex(i);
    return *sessions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const DeviceSession& session(int i) const {
    checkSessionIndex(i);
    return *sessions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] Millis now() const { return now_; }

  /// Aggregates every session's stats/ledger/coverage by scanning the
  /// sessions in id order. Per-session state is session-confined, so this
  /// may only run while no session is being advanced: before or after
  /// run(), or between the steps of a caller driving the sessions itself.
  [[nodiscard]] FleetSnapshot snapshot() const;

  /// Scheduling observability (steals, per-session finish wall times).
  /// Meaningful after run().
  [[nodiscard]] const SchedulerMetrics* schedulerMetrics() const {
    return &scheduler_->metrics();
  }

  /// The shared frame pool, or null when pooledFrames is off.
  [[nodiscard]] gfx::FramePool* framePool() { return pool_.get(); }
  [[nodiscard]] const gfx::FramePool* framePool() const { return pool_.get(); }

  /// The fleet-wide verdict tier, or null when sharedVerdictTier is off.
  [[nodiscard]] core::SharedVerdictTier* verdictTier() { return tier_.get(); }
  [[nodiscard]] const core::SharedVerdictTier* verdictTier() const {
    return tier_.get();
  }

 private:
  void checkSessionIndex(int i) const;  ///< Aborts when out of range.

  FleetConfig config_;
  /// Declared before sessions_: every pooled Bitmap's slab-return deleter
  /// points back into the pool, so it must outlive all session state.
  std::unique_ptr<gfx::FramePool> pool_;
  /// Declared before sessions_ for the same lifetime rule: every session's
  /// service holds a borrowed tier pointer.
  std::unique_ptr<core::SharedVerdictTier> tier_;
  /// The vector itself is fixed after construction; each element is
  /// confined to the worker currently running its slice (hand-offs happen
  /// through the scheduler's queues), and to the control thread outside
  /// run().
  std::vector<std::unique_ptr<DeviceSession>> sessions_;
  std::unique_ptr<WorkStealingScheduler> scheduler_;
  Millis now_ CONFINED_TO("control thread"){0};
  bool started_ CONFINED_TO("control thread") = false;
};

}  // namespace darpa::fleet
