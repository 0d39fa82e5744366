// Unit tests for the staged analysis pipeline: the work ledger, the screen
// fingerprint, and the verdict cache (hits, invalidation, LRU bounds,
// trusted-package bypass, screenshot-failure accounting).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "android/system.h"
#include "core/darpa_service.h"
#include "core/decoration.h"
#include "core/pipeline.h"
#include "core/work_ledger.h"

namespace darpa::core {
namespace {

class FakeDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detections;
  mutable int calls = 0;

  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    ++calls;
    return detections;
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

struct Harness {
  android::AndroidSystem system;
  FakeDetector detector;
  DarpaService service;

  explicit Harness(DarpaConfig config = {},
                   android::WindowManager::Config wmConfig = {})
      : system(wmConfig), service(detector, config) {
    system.accessibility.connect(service);
  }

  /// Replaces the top app window with `root` under `package` and lets the
  /// debounce timer fire.
  void showAndSettle(const std::string& package,
                     std::unique_ptr<android::View> root) {
    if (system.windowManager.appWindowCount() > 0) {
      system.windowManager.popAppWindow();
    }
    system.windowManager.showAppWindow(package, std::move(root), false);
    system.looper.runUntilIdle();
  }
};

cv::Detection upoAt(Rect box) {
  return cv::Detection{box, dataset::BoxLabel::kUpo, 0.9f};
}

/// A deterministic screen; different variants differ in child geometry.
std::unique_ptr<android::View> makeScreen(int variant) {
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  auto button = std::make_unique<android::Button>();
  button->setFrame({10 + 10 * variant, 50, 60, 24});
  root->addChild(std::move(button));
  return root;
}

// ------------------------------------------------------------ WorkLedger

TEST(WorkLedgerTest, TalliesRunsSkipsAndCpu) {
  WorkLedger ledger;
  ledger.recordEvent(ms(10));
  ledger.beginAnalysis(ms(200), ms(190));
  ledger.recordRun(Stage::kScreenshot, 2.2);
  ledger.recordRun(Stage::kDetect, 11.0);
  ledger.recordSkip(Stage::kLint);
  ledger.recordDecoration();
  ledger.recordBypass();
  ledger.endAnalysis();
  EXPECT_EQ(ledger.tally(Stage::kEvent).runs, 1);
  EXPECT_EQ(ledger.tally(Stage::kScreenshot).runs, 1);
  EXPECT_EQ(ledger.tally(Stage::kLint).skips, 1);
  EXPECT_EQ(ledger.tally(Stage::kAct).runs, 2);  // decoration + bypass
  EXPECT_EQ(ledger.decorations(), 1);
  EXPECT_EQ(ledger.bypassClicks(), 1);
  EXPECT_EQ(ledger.analyses(), 1);
  EXPECT_EQ(ledger.totalDebounceLatency().count, 190);
  EXPECT_DOUBLE_EQ(ledger.analysisCpuMs(),
                   ledger.totalCpuMs() - ledger.tally(Stage::kEvent).cpuMs);
  // The pass's modeled latency covers exactly its in-analysis stages.
  EXPECT_DOUBLE_EQ(ledger.lastAnalysisCpuMs(), ledger.analysisCpuMs());
}

TEST(WorkLedgerTest, MergeAccumulatesCounters) {
  WorkLedger a;
  a.recordRuns(Stage::kDetect, 3, 10.0);
  a.recordCacheHit();
  WorkLedger b;
  b.recordRuns(Stage::kDetect, 2, 10.0);
  b.recordCacheMiss();
  a += b;
  EXPECT_EQ(a.tally(Stage::kDetect).runs, 5);
  EXPECT_DOUBLE_EQ(a.tally(Stage::kDetect).cpuMs, 50.0);
  EXPECT_EQ(a.cacheHits(), 1);
  EXPECT_EQ(a.cacheMisses(), 1);
}

TEST(WorkLedgerTest, ChromeTraceIsWellFormedAndBounded) {
  WorkLedger ledger;
  ledger.setTraceEnabled(true, /*maxEvents=*/3);
  ledger.beginAnalysis(ms(1000));
  ledger.recordRun(Stage::kScreenshot, 2.0);
  ledger.recordRun(Stage::kDetect, 10.0);
  ledger.recordRun(Stage::kVerdict, 0.02);
  ledger.recordRun(Stage::kAct, 45.0);  // beyond capacity: dropped
  ledger.endAnalysis();
  EXPECT_EQ(ledger.traceEventCount(), 3u);
  EXPECT_EQ(ledger.tally(Stage::kAct).runs, 1);  // counters unaffected
  std::ostringstream out;
  ledger.writeChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"screenshot\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"detect\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\": \"act\""), std::string::npos);
  // The two stages are laid back-to-back: detect starts where screenshot
  // ends (1,000,000 us + 2,000 us).
  EXPECT_NE(json.find("\"ts\": 1002000.000"), std::string::npos);
}

// ---------------------------------------------------------- VerdictCache

TEST(VerdictCacheTest, LruEvictsOldestAndRefreshesOnFind) {
  VerdictCache cache(2);
  cache.put(1, {true, {}});
  cache.put(2, {false, {}});
  EXPECT_NE(cache.find(1), nullptr);  // refresh 1: now 2 is the LRU entry
  cache.put(3, {true, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(2), nullptr);  // 2 was evicted
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_TRUE(cache.find(1)->isAui);
  ASSERT_NE(cache.find(3), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
}

TEST(VerdictCacheTest, ZeroCapacityStoresNothing) {
  VerdictCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, {true, {}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
  // A disabled cache never counts phantom evictions either.
  EXPECT_EQ(cache.evictions(), 0);
  cache.clear();  // clearing an empty disabled cache is a no-op, not a fault
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCacheTest, CapacityOneHoldsExactlyTheLastKey) {
  VerdictCache cache(1);
  EXPECT_TRUE(cache.enabled());
  cache.put(1, {true, {upoAt({1, 2, 3, 4})}});
  ASSERT_NE(cache.find(1), nullptr);
  cache.put(2, {false, {}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_FALSE(cache.find(2)->isAui);
  // Re-putting the resident key refreshes in place: no eviction churn.
  cache.put(2, {true, {upoAt({5, 6, 7, 8})}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_TRUE(cache.find(2)->isAui);
}

TEST(VerdictCacheTest, RepeatedFindPutOfSameKeyKeepsLruOrderHonest) {
  VerdictCache cache(2);
  cache.put(1, {true, {}});
  cache.put(2, {false, {}});
  // Hammer key 2 with finds and re-puts: it must stay ONE entry, and the
  // churn must not perturb key 1's slot or fabricate evictions.
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(cache.find(2), nullptr);
    cache.put(2, {i % 2 == 0, {}});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0);
  // After the churn, 1 is the least recently used: the next insert evicts
  // it and only it.
  cache.put(3, {true, {}});
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_FALSE(cache.find(2)->isAui);  // the last re-put (i=7) won
  EXPECT_NE(cache.find(3), nullptr);
}

// ----------------------------------------------------------- fingerprint

TEST(FingerprintTest, StableForIdenticalScreensAcrossWindows) {
  android::WindowManager wm;
  wm.showAppWindow("com.app", makeScreen(1), false);
  const std::uint64_t first = wm.topWindowFingerprint();
  wm.popAppWindow();
  wm.showAppWindow("com.app", makeScreen(1), false);
  EXPECT_EQ(wm.topWindowFingerprint(), first);
  wm.popAppWindow();
  wm.showAppWindow("com.app", makeScreen(2), false);
  EXPECT_NE(wm.topWindowFingerprint(), first);
}

TEST(FingerprintTest, IgnoresOverlaysAndDecorationNodes) {
  android::WindowManager wm;
  wm.showAppWindow("com.app", makeScreen(3), false);
  const std::uint64_t clean = wm.topWindowFingerprint();
  // Overlay views (DARPA's decorations live there) are not part of the app
  // window dump, so they cannot shift the fingerprint.
  wm.addOverlay(std::make_unique<DecorationView>(colors::kGreen, 3),
                {20, 20, 40, 40});
  EXPECT_EQ(wm.topWindowFingerprint(), clean);
  // Defense in depth: even a decoration node spliced into the dump itself
  // is skipped by the hash.
  android::UiDump dump = wm.dumpTopWindow();
  android::UiNode decoration;
  decoration.className = "DarpaDecorationView";
  decoration.boundsOnScreen = {20, 20, 40, 40};
  dump.push_back(decoration);
  EXPECT_EQ(android::WindowManager::fingerprint(dump), clean);
}

// -------------------------------------------------- pipeline + cache

TEST(PipelineCacheTest, RepeatScreenServedFromCache) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.detector.calls, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 1);
  EXPECT_TRUE(h.service.lastWasAui());

  // Same screen re-stabilizes: the verdict comes from the cache, without
  // lint, screenshot, or CV work — but with identical detections.
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().analysesRun, 2);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 1);
  EXPECT_EQ(h.detector.calls, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 1);
  EXPECT_TRUE(h.service.lastWasAui());
  ASSERT_EQ(h.service.lastDetections().size(), 1u);
  EXPECT_EQ(h.service.lastDetections()[0].box, Rect({30, 60, 20, 20}));
  // The ledger shows the skip routing.
  EXPECT_GE(h.service.ledger().tally(Stage::kScreenshot).skips, 1);
  EXPECT_GE(h.service.ledger().tally(Stage::kDetect).skips, 1);
  EXPECT_EQ(h.service.ledger().cacheHits(), 1);
}

TEST(PipelineCacheTest, RealScreenChangeInvalidates) {
  Harness h;
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.detector.calls, 1);
  // A structurally different screen must re-run the full pipeline.
  h.showAndSettle("com.app", makeScreen(1));
  EXPECT_EQ(h.detector.calls, 2);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 2);
}

TEST(PipelineCacheTest, OwnDecorationsDoNotPoisonCache) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);  // decorated
  // The decorated screen re-stabilizes. If DARPA's own overlay entered the
  // fingerprint, this would miss the cache (decorations are cleared before
  // each pass) and CV would re-run. It must hit.
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().verdictCacheHits, 1);
  EXPECT_EQ(h.detector.calls, 1);
  // The cached AUI verdict redraws the decoration (it was cleared).
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);
}

TEST(PipelineCacheTest, LruEvictionStaysBounded) {
  DarpaConfig config;
  config.verdictCacheCapacity = 2;
  Harness h(config);
  for (int round = 0; round < 2; ++round) {
    for (int variant = 0; variant < 3; ++variant) {
      h.showAndSettle("com.app", makeScreen(variant));
      EXPECT_LE(h.service.pipeline().cache().size(), 2u);
    }
  }
  EXPECT_EQ(h.service.pipeline().cache().capacity(), 2u);
  EXPECT_GT(h.service.pipeline().cache().evictions(), 0);
  // Three screens cycling through a 2-entry cache: every revisit was
  // already evicted, so the detector ran every time.
  EXPECT_EQ(h.detector.calls, 6);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

TEST(PipelineCacheTest, TrustedPackageNeverTouchesCacheOrPipeline) {
  DarpaConfig config;
  config.trustedPackages = {"com.trusted"};
  Harness h(config);
  h.showAndSettle("com.untrusted", makeScreen(0));
  const auto analysesBefore = h.service.stats().analysesRun;
  EXPECT_GE(analysesBefore, 1);
  const std::size_t cacheBefore = h.service.pipeline().cache().size();

  // A trusted app reaches the foreground. Its events are filtered at
  // delivery, and even a directly forced analysis must bail before the
  // cache: trusted screens are neither probed nor seeded.
  h.showAndSettle("com.trusted", makeScreen(1));
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().analysesRun, analysesBefore);
  EXPECT_EQ(h.service.pipeline().cache().size(), cacheBefore);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

TEST(PipelineCacheTest, FailedScreenshotIsNotCountedOrCached) {
  // A 0x0 display: takeScreenshot() yields an empty bitmap, the §IV-B
  // capture failure. The analysis runs but takes no screenshot, bills no
  // screenshot work, runs no CV, and must not seed the cache with the
  // evidence-free verdict.
  Harness h({}, android::WindowManager::Config{{0, 0}, 0, 0});
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().analysesRun, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 0);
  EXPECT_EQ(h.detector.calls, 0);
  EXPECT_EQ(h.service.ledger().tally(Stage::kScreenshot).runs, 0);
  EXPECT_EQ(h.service.pipeline().cache().size(), 0u);
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

// ------------------------------------------- anchor-overlay measurement

TEST(ActPathTest, DecorationPathMeasuresAnchorOnce) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.service.stats().anchorMeasurements, 1);
}

TEST(ActPathTest, AutoBypassSkipsAnchorMeasurement) {
  DarpaConfig config;
  config.autoBypass = true;
  Harness h(config);
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_GT(h.service.stats().auisFlagged, 0);
  EXPECT_EQ(h.service.stats().anchorMeasurements, 0);
}

TEST(ActPathTest, FlaggingWithoutDecorationSkipsAnchor) {
  DarpaConfig config;
  config.decorate = false;
  Harness h(config);
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_GT(h.service.stats().auisFlagged, 0);
  EXPECT_EQ(h.service.stats().anchorMeasurements, 0);
}

}  // namespace
}  // namespace darpa::core
