// Fleet-scale tests: the inline detection executor, fleet-of-1 equivalence
// with the hand-wired harness, fleet determinism across worker counts and
// reruns, and the Looper's lazy-deletion GC bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "android/looper.h"
#include "android/system.h"
#include "apps/app_model.h"
#include "core/darpa_service.h"
#include "core/detection_executor.h"
#include "fleet/device_session.h"
#include "fleet/fleet.h"

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

  [[nodiscard]] std::int64_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::int64_t> calls_{0};
};

// ------------------------------------------------------------- executors

TEST(ExecutorTest, InlineExecutorCompletesSynchronously) {
  StubDetector detector;
  core::InlineExecutor inline_;
  auto frame = std::make_shared<core::ScreenFrame>(android::UiDump{}, "test");
  frame->attachPixels(gfx::Bitmap(4, 4));
  std::weak_ptr<const core::ScreenFrame> watch = frame;

  const std::vector<cv::Detection> detections =
      inline_.detect(detector, std::move(frame));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].label, dataset::BoxLabel::kUpo);
  EXPECT_EQ(detector.calls(), 1);
  // The executor held the last reference and dropped it after the model
  // ran: the frame is gone (scrubbed) by the time detect() returns.
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------- fleet-of-1 equivalence

void expectStatsEq(const core::DarpaStats& a, const core::DarpaStats& b) {
  EXPECT_EQ(a.eventsReceived, b.eventsReceived);
  EXPECT_EQ(a.analysesRun, b.analysesRun);
  EXPECT_EQ(a.screenshotsTaken, b.screenshotsTaken);
  EXPECT_EQ(a.auisFlagged, b.auisFlagged);
  EXPECT_EQ(a.decorationsDrawn, b.decorationsDrawn);
  EXPECT_EQ(a.bypassClicks, b.bypassClicks);
  EXPECT_EQ(a.lintRuns, b.lintRuns);
  EXPECT_EQ(a.cvSkippedByLint, b.cvSkippedByLint);
  EXPECT_EQ(a.verdictCacheHits, b.verdictCacheHits);
  EXPECT_EQ(a.anchorMeasurements, b.anchorMeasurements);
}

TEST(FleetTest, DeviceSessionMatchesHandWiredHarness) {
  StubDetector detector;
  const core::DarpaConfig darpa;
  const Millis length = ms(15'000);
  Rng rng(123);
  const apps::AppProfile profile = apps::randomAppProfile("com.app.x", rng);
  const std::uint64_t appSeed = rng.next();
  const std::uint64_t monkeySeed = rng.next();

  // The pre-fleet hand-wired harness, verbatim.
  android::AndroidSystem system;
  core::DarpaService service(detector, darpa);
  system.accessibility.connect(service);
  apps::AppSession app(system, profile, appSeed);
  apps::MonkeyDriver monkey(system, monkeySeed);
  app.start(length);
  monkey.start(system.clock.now() + length, 1500, 4000);
  system.looper.runUntil(system.clock.now() + length);

  // The same device as a fleet-of-1 DeviceSession (default InlineExecutor).
  DeviceSession::Config config;
  config.darpa = darpa;
  config.profile = profile;
  config.appSeed = appSeed;
  config.monkeySeed = monkeySeed;
  config.duration = length;
  DeviceSession device(detector, std::move(config));
  device.runToCompletion();

  expectStatsEq(device.stats(), service.stats());
  EXPECT_EQ(device.ledger().analyses(), service.ledger().analyses());
  EXPECT_EQ(device.ledger().tally(core::Stage::kDetect).runs,
            service.ledger().tally(core::Stage::kDetect).runs);
  EXPECT_DOUBLE_EQ(device.ledger().totalCpuMs(),
                   service.ledger().totalCpuMs());
  EXPECT_EQ(device.eventsEmitted(), system.accessibility.totalEmitted());
  EXPECT_EQ(device.auiExposures(),
            static_cast<std::int64_t>(app.exposures().size()));
  EXPECT_GT(device.stats().analysesRun, 0);
}

// --------------------------------------------------- fleet determinism

struct FleetFingerprint {
  core::DarpaStats stats;
  std::int64_t analyses = 0;
  std::int64_t detectRuns = 0;
  double totalCpuMs = 0.0;
  std::int64_t eventsEmitted = 0;
  std::int64_t auiExposures = 0;
  std::int64_t auisCovered = 0;
};

void expectFingerprintEq(const FleetFingerprint& a, const FleetFingerprint& b) {
  expectStatsEq(a.stats, b.stats);
  EXPECT_EQ(a.analyses, b.analyses);
  EXPECT_EQ(a.detectRuns, b.detectRuns);
  EXPECT_DOUBLE_EQ(a.totalCpuMs, b.totalCpuMs);
  EXPECT_EQ(a.eventsEmitted, b.eventsEmitted);
  EXPECT_EQ(a.auiExposures, b.auiExposures);
  EXPECT_EQ(a.auisCovered, b.auisCovered);
}

FleetFingerprint runFleet(int sessions, int workers) {
  StubDetector detector;
  core::InlineExecutor executor;
  FleetConfig config;
  config.sessions = sessions;
  config.workers = workers;
  config.epoch = ms(500);
  config.duration = ms(3000);
  Fleet fleet(detector, executor, config);
  fleet.run();
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions, sessions);
  EXPECT_EQ(snap.simTime, ms(3000));
  return {snap.stats,
          snap.ledger.analyses(),
          snap.ledger.tally(core::Stage::kDetect).runs,
          snap.ledger.totalCpuMs(),
          snap.eventsEmitted,
          snap.auiExposures,
          snap.auisCovered};
}

TEST(FleetTest, SixtyFourSessionsDeterministicAcrossWorkersAndRuns) {
  const FleetFingerprint serial = runFleet(64, 1);
  const FleetFingerprint fourWorkers = runFleet(64, 4);
  const FleetFingerprint repeat = runFleet(64, 4);
  EXPECT_GT(serial.analyses, 0);
  expectFingerprintEq(serial, fourWorkers);
  expectFingerprintEq(fourWorkers, repeat);
}

TEST(FleetTest, InlineFleetMatchesIndependentDeviceSessions) {
  // A fleet on the InlineExecutor is just N independent sessions; its merged
  // snapshot must equal the sum of running each session by hand.
  StubDetector detector;
  core::InlineExecutor inline_;
  FleetConfig config;
  config.sessions = 4;
  config.epoch = ms(1000);
  config.duration = ms(5000);
  Fleet fleet(detector, inline_, config);
  fleet.run();
  const FleetSnapshot snap = fleet.snapshot();

  core::DarpaStats manual;
  Rng rng(config.seed);
  for (int i = 0; i < config.sessions; ++i) {
    DeviceSession::Config session;
    session.id = i;
    session.profile =
        apps::randomAppProfile("com.fleet.app" + std::to_string(i), rng);
    session.appSeed = rng.next();
    session.monkeySeed = rng.next();
    session.duration = config.duration;
    DeviceSession device(detector, std::move(session));
    device.runToCompletion();
    manual += device.stats();
  }
  expectStatsEq(snap.stats, manual);
}

// ------------------------------------------------------------ looper GC

TEST(LooperGcTest, CancelHeavyRunStaysBounded) {
  SimClock clock;
  android::Looper looper(clock);
  std::int64_t executed = 0;

  // The fleet debounce pattern at its worst: every posted timer is cancelled
  // by the next event. Lazy-deletion markers must never accumulate.
  for (int round = 0; round < 200; ++round) {
    std::vector<android::TaskId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(looper.postDelayed([&] { ++executed; }, ms(10'000 + i)));
    }
    for (const android::TaskId id : ids) looper.cancel(id);
    const android::Looper::GcStats gc = looper.gcStats();
    EXPECT_EQ(gc.queueDepth, gc.pendingCount + gc.cancelledCount);
    EXPECT_LE(gc.cancelledCount,
              std::max(android::Looper::kCompactionFloor, gc.queueDepth / 2));
  }

  const android::Looper::GcStats gc = looper.gcStats();
  EXPECT_EQ(gc.pendingCount, 0u);
  EXPECT_GT(gc.compactions, 0);
  EXPECT_GT(gc.purged, 0);
  EXPECT_LE(gc.queueDepth, android::Looper::kCompactionFloor);
  looper.runUntilIdle();
  EXPECT_EQ(executed, 0);
}

TEST(LooperGcTest, PoppedMarkersArePurgedEagerly) {
  SimClock clock;
  android::Looper looper(clock);
  std::int64_t executed = 0;
  const android::TaskId cancelled =
      looper.postDelayed([&] { ++executed; }, ms(10));
  looper.postDelayed([&] { ++executed; }, ms(20));
  looper.cancel(cancelled);

  looper.runUntilIdle();
  EXPECT_EQ(executed, 1);
  const android::Looper::GcStats gc = looper.gcStats();
  EXPECT_EQ(gc.queueDepth, 0u);
  EXPECT_EQ(gc.cancelledCount, 0u);
  EXPECT_EQ(gc.purged, 1);
}

}  // namespace
}  // namespace darpa::fleet
