// Work-stealing scheduler tests: the hard contract is that the barrier-free
// driver's merged paper digests (fig8 counts, Table III stats, ledger
// totals, Table VII metrics) are BYTE-identical to the epoch-barrier oracle
// (fleet_oracle.h) — across worker counts, pooling on/off, reruns, and a
// deliberately skewed workload that forces steals. Plus the fleet's
// single-use / bounds guards and the sharded live stat-merge.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detection_executor.h"
#include "fleet/fleet.h"
#include "fleet_oracle.h"
#include "perf/device_model.h"

namespace darpa::fleet {
namespace {

/// Deterministic, thread-safe detector: every screen yields one confident
/// UPO (so the verdict/act stages run), at a fixed modeled cost.
class StubDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    ++calls_;
    return {cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0e6; }

 private:
  mutable std::atomic<std::int64_t> calls_{0};
};

/// The paper-facing output digest, fixed-point formatted so comparisons are
/// exact string equality, not epsilon tolerance. Same axes as the
/// bench_frame_pool / bench_fleet_throughput digests.
std::string digestOf(const FleetSnapshot& snap) {
  const perf::DeviceModel device;
  const Millis window{static_cast<std::int64_t>(snap.sessions) *
                      snap.simTime.count};
  const perf::PerfMetrics perf = device.withWork(snap.ledger, window);

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fig8: analyses=%lld events=%lld exposures=%lld covered=%lld\n"
      "stats: shots=%lld flagged=%lld decorated=%lld bypass=%lld lint=%lld "
      "lintskip=%lld cachehits=%lld anchors=%lld\n"
      "ledger: cpuMs=%.6f cacheHits=%lld cacheMisses=%lld "
      "peakFrameBytes=%lld\n"
      "table7: cpu=%.4f mem=%.4f fps=%.4f power=%.4f\n",
      static_cast<long long>(snap.ledger.analyses()),
      static_cast<long long>(snap.eventsEmitted),
      static_cast<long long>(snap.auiExposures),
      static_cast<long long>(snap.auisCovered),
      static_cast<long long>(snap.stats.screenshotsTaken),
      static_cast<long long>(snap.stats.auisFlagged),
      static_cast<long long>(snap.stats.decorationsDrawn),
      static_cast<long long>(snap.stats.bypassClicks),
      static_cast<long long>(snap.stats.lintRuns),
      static_cast<long long>(snap.stats.cvSkippedByLint),
      static_cast<long long>(snap.stats.verdictCacheHits),
      static_cast<long long>(snap.stats.anchorMeasurements),
      snap.ledger.totalCpuMs(), static_cast<long long>(snap.ledger.cacheHits()),
      static_cast<long long>(snap.ledger.cacheMisses()),
      static_cast<long long>(snap.ledger.peakFrameBytes()), perf.cpuPercent,
      perf.memoryMb, perf.frameRate, perf.powerMw);
  return buf;
}

struct RunOutcome {
  std::string digest;
  SchedulerMetrics scheduler;
};

FleetConfig testConfig(
    int sessions, int workers, bool pooled,
    const std::function<void(int, DeviceSession::Config&)>& tweak) {
  FleetConfig config;
  config.sessions = sessions;
  config.workers = workers;
  config.epoch = ms(500);
  config.duration = ms(3000);
  config.pooledFrames = pooled;
  config.sessionTweak = tweak;
  return config;
}

/// Fleet::run() on the work-stealing scheduler.
RunOutcome runFleet(
    int sessions, int workers, bool pooled,
    const std::function<void(int, DeviceSession::Config&)>& tweak = nullptr) {
  StubDetector detector;
  core::InlineExecutor executor;
  Fleet fleet(detector, executor,
              testConfig(sessions, workers, pooled, tweak));
  fleet.run();
  return {digestOf(fleet.snapshot()), *fleet.schedulerMetrics()};
}

/// The same fleet driven by the epoch-barrier oracle.
std::string runOracle(
    int sessions, bool pooled,
    const std::function<void(int, DeviceSession::Config&)>& tweak = nullptr) {
  StubDetector detector;
  core::InlineExecutor executor;
  Fleet fleet(detector, executor, testConfig(sessions, 1, pooled, tweak));
  return digestOf(runEpochBarrierOracle(fleet));
}

// ------------------------------------------- oracle byte equality

TEST(FleetSchedulerTest, InlineDigestsMatchLockstep) {
  const std::string reference = runOracle(64, true);
  ASSERT_FALSE(reference.empty());

  EXPECT_EQ(runFleet(64, 1, true).digest, reference);
  EXPECT_EQ(runFleet(64, 4, true).digest, reference);
  // Rerun at W=4: steal interleavings differ, the digest must not.
  EXPECT_EQ(runFleet(64, 4, true).digest, reference);

  // Pooling off, both drivers: the pool only moves where bytes live.
  EXPECT_EQ(runOracle(64, false), reference);
  EXPECT_EQ(runFleet(64, 4, false).digest, reference);
}

// --------------------------------------------------- steal-heavy skew

TEST(FleetSchedulerTest, SkewedWorkloadStealsAndMatchesLockstep) {
  // Session 0 is a deliberate straggler: a hyperactive monkey makes its
  // slices far more expensive than everyone else's, so its home worker
  // stays pinned while the siblings drain — and then rob — its shard.
  const auto straggler = [](int id, DeviceSession::Config& config) {
    if (id == 0) {
      config.monkeyMinGapMs = 10;
      config.monkeyMaxGapMs = 25;
    }
  };
  const std::string reference = runOracle(16, true, straggler);
  const RunOutcome ws = runFleet(16, 4, true, straggler);
  EXPECT_EQ(ws.digest, reference)
      << "steal interleavings must never reach the digest";
  EXPECT_GT(ws.scheduler.steals, 0)
      << "a pinned home worker should have its queue drained by siblings";
}

// ------------------------------------------------- sharded live merge

TEST(FleetSchedulerTest, SnapshotLiveMergeMatchesManualSessionScan) {
  StubDetector detector;
  core::InlineExecutor executor;
  const FleetConfig config = testConfig(16, 4, true, nullptr);
  Fleet fleet(detector, executor, config);
  fleet.run();

  const FleetSnapshot snap = fleet.snapshot();

  core::DarpaStats stats;
  core::WorkLedger ledger;
  std::int64_t events = 0;
  std::int64_t exposures = 0;
  std::int64_t covered = 0;
  for (int i = 0; i < fleet.sessionCount(); ++i) {
    const DeviceSession& session = fleet.session(i);
    stats.merge(session.stats().snapshot());
    ledger.merge(session.ledger().snapshot());
    events += session.eventsEmitted();
    exposures += session.auiExposures();
    covered += session.auisCovered();
  }

  // The retirement folds must reproduce the quiescent scan bit-for-bit —
  // including the double summation order (ascending session id).
  EXPECT_EQ(snap.stats.analysesRun, stats.analysesRun);
  EXPECT_EQ(snap.stats.screenshotsTaken, stats.screenshotsTaken);
  EXPECT_EQ(snap.stats.decorationsDrawn, stats.decorationsDrawn);
  EXPECT_EQ(snap.stats.verdictCacheHits, stats.verdictCacheHits);
  EXPECT_DOUBLE_EQ(snap.ledger.totalCpuMs(), ledger.totalCpuMs());
  EXPECT_EQ(snap.ledger.analyses(), ledger.analyses());
  EXPECT_EQ(snap.ledger.cacheHits(), ledger.cacheHits());
  EXPECT_EQ(snap.ledger.peakFrameBytes(), ledger.peakFrameBytes());
  EXPECT_EQ(snap.eventsEmitted, events);
  EXPECT_EQ(snap.auiExposures, exposures);
  EXPECT_EQ(snap.auisCovered, covered);

  // Scheduler bookkeeping sanity.
  const SchedulerMetrics* metrics = fleet.schedulerMetrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->slicesRun, static_cast<std::int64_t>(config.sessions));
  EXPECT_EQ(metrics->localPops + metrics->steals, metrics->slicesRun)
      << "every slice was popped from exactly one queue";
  ASSERT_EQ(metrics->finishWallMs.size(),
            static_cast<std::size_t>(config.sessions));
  for (const double msToFinish : metrics->finishWallMs) {
    EXPECT_GT(msToFinish, 0.0);
  }
}

// ------------------------------------------------------ fleet guards

TEST(FleetSchedulerTest, RunTwiceAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  core::InlineExecutor executor;
  FleetConfig config;
  config.sessions = 1;
  config.duration = ms(200);
  Fleet fleet(detector, executor, config);
  fleet.run();
  EXPECT_DEATH(fleet.run(), "single-use");
}

TEST(FleetSchedulerTest, SessionIndexOutOfRangeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  core::InlineExecutor executor;
  FleetConfig config;
  config.sessions = 2;
  config.duration = ms(200);
  Fleet fleet(detector, executor, config);
  EXPECT_DEATH((void)fleet.session(2), "out of range");
  EXPECT_DEATH((void)fleet.session(-1), "out of range");
}

}  // namespace
}  // namespace darpa::fleet
