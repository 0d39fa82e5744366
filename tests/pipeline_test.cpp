// Unit tests for the analysis pass: the work ledger, the screen
// fingerprint, the verdict cache (hits, invalidation, LRU bounds,
// trusted-package bypass, screenshot-failure accounting) and the exact
// record every route of a pass leaves.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/screen_generator.h"
#include "core/darpa_service.h"
#include "core/decoration.h"
#include "core/verdict_cache.h"
#include "core/verdict_tier.h"
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

TEST(VerdictCacheTest, ClearEmptiesWithoutCountingEvictions) {
  VerdictCache cache(2);
  cache.put(1, {true, {}});
  cache.put(2, {false, {}});
  cache.put(3, {true, {}});  // evicts 1
  ASSERT_EQ(cache.evictions(), 1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1);  // dropped entries are not evictions
  EXPECT_EQ(cache.find(2), nullptr);
  // The cleared cache refills from empty: two puts evict nothing.
  cache.put(4, {true, {}});
  cache.put(5, {false, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
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

/// Checks the live-tree fingerprint against the hash of the dump of the
/// same screen, and returns the dump's virtual-node count.
int expectWalkMatchesDump(const android::WindowManager& wm) {
  const android::UiDump dump = wm.dumpTopWindow();
  EXPECT_EQ(wm.topWindowFingerprint(),
            android::WindowManager::fingerprint(dump));
  int virtualNodes = 0;
  for (const android::UiNode& node : dump) virtualNodes += node.isVirtual;
  return virtualNodes;
}

TEST(FingerprintTest, TreeWalkEqualsDumpHash) {
  android::WindowManager wm;
  expectWalkMatchesDump(wm);  // no app window: both hash the empty stream

  // Generated benign, hard-negative and AUI screens, some of them WebView
  // interstitials whose virtual nodes are inlined under their host.
  apps::ScreenGenerator::Params params;
  params.webViewAuiProb = 0.5;
  int virtualNodes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    apps::ScreenGenerator gen(params, seed);
    for (int kind = 0; kind < 6; ++kind) {
      apps::GeneratedScreen screen =
          kind == 0   ? gen.makeBenign()
          : kind == 1 ? gen.makeHardNegative()
                      : gen.makeAui(gen.randomSpec());
      wm.showAppWindow("com.gen", std::move(screen.root), kind % 2 == 0);
      virtualNodes += expectWalkMatchesDump(wm);
      wm.popAppWindow();
    }
  }
  EXPECT_GT(virtualNodes, 0);

  // Hidden subtrees, a decoration view spliced into the app tree, and
  // alphas on and just below the 1/1024 quantization steps.
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  android::View* hidden = root->addChild(std::make_unique<android::View>());
  hidden->setFrame({5, 5, 100, 100});
  hidden->setVisible(false);
  hidden->addChild(std::make_unique<android::Button>())->setFrame({1, 1, 9, 9});
  android::View* decorated =
      root->addChild(std::make_unique<android::View>());
  decorated->setFrame({-4, 300, 200, 80});
  decorated->addChild(std::make_unique<DecorationView>(colors::kGreen, 3))
      ->setFrame({2, 2, 40, 40});
  android::View* faded = root->addChild(std::make_unique<android::View>());
  faded->setAlpha(0.5);
  for (const int step : {0, 1, 2, 511, 512, 1023, 1024}) {
    for (const double alpha :
         {step / 1024.0, std::nextafter(step / 1024.0, 0.0)}) {
      android::View* child =
          faded->addChild(std::make_unique<android::IconView>());
      child->setFrame({step % 300, step / 4, 12, 12});
      child->setAlpha(alpha);
      child->addChild(std::make_unique<android::View>())->setAlpha(alpha);
    }
  }
  wm.showAppWindow("com.crafted", std::move(root), false);
  expectWalkMatchesDump(wm);
}

/// The documented fingerprint stream, one byte at a time: FNV-1a 64 over
/// each node's class, resource id and text (each followed by 0x1f), then
/// bounds x/y/width/height, depth, clickable, background ARGB, content ARGB
/// (-1 without content colour) and trunc(effAlpha * 1024), each as eight
/// little-endian bytes of an int64; virtual nodes append their virtualId
/// (plus 0x1f) and the int 1. DarpaDecorationView nodes are skipped, the
/// hashed node count closes the stream, and splitmix64's finalizer mixes
/// the result.
std::uint64_t byteLoopFingerprint(const android::UiDump& dump) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  const auto str = [&](const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    byte(0x1f);
  };
  const auto i64 = [&](std::int64_t v) {
    const auto bits = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(bits >> (8 * i)));
    }
  };
  std::int64_t nodes = 0;
  for (const android::UiNode& n : dump) {
    if (n.className == "DarpaDecorationView") continue;
    ++nodes;
    str(n.className);
    str(n.resourceId);
    str(n.text);
    i64(n.boundsOnScreen.x);
    i64(n.boundsOnScreen.y);
    i64(n.boundsOnScreen.width);
    i64(n.boundsOnScreen.height);
    i64(n.depth);
    i64(n.clickable ? 1 : 0);
    i64(n.background.toArgb());
    i64(n.hasContentColor ? std::int64_t{n.contentColor.toArgb()} : -1);
    i64(static_cast<std::int64_t>(n.effAlpha * 1024.0));
    if (n.isVirtual) {
      str(n.virtualId);
      i64(1);
    }
  }
  i64(nodes);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

TEST(FingerprintTest, MatchesByteLoopReference) {
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  android::UiDump dump;
  EXPECT_EQ(android::WindowManager::fingerprint(dump),
            byteLoopFingerprint(dump));

  android::UiNode root;
  root.className = "View";
  root.boundsOnScreen = {0, 24, 360, 648};
  root.background = colors::kWhite;
  dump.push_back(root);

  android::UiNode far;  // negative and near-INT_MAX bounds
  far.className = "TextView";
  far.resourceId = "txt_far";
  far.text = "far away";
  far.boundsOnScreen = {-7, kMin, kMax, kMax - 1};
  far.depth = 1;
  far.clickable = true;
  far.background = Color::fromArgb(0xFF00FF00);  // zero middle bytes
  far.contentColor = Color::fromArgb(0x00FF0000);
  far.hasContentColor = true;
  far.effAlpha = 1023.0 / 1024.0;
  dump.push_back(far);

  android::UiNode plain;  // no content colour hashes as -1
  plain.className = "ImageView";
  plain.boundsOnScreen = {256, 65536, 1 << 24, 255};
  plain.depth = 2;
  plain.background = Color::fromArgb(0x01000000);
  plain.contentColor = colors::kRed;  // ignored: hasContentColor is false
  plain.effAlpha = std::nextafter(0.5, 0.0);
  dump.push_back(plain);

  android::UiNode decoration;  // skipped by both
  decoration.className = "DarpaDecorationView";
  decoration.boundsOnScreen = {20, 20, 40, 40};
  dump.push_back(decoration);

  android::UiNode web;
  web.className = "android.widget.Button";
  web.text = "Close";
  web.boundsOnScreen = {300, 40, 24, 24};
  web.depth = 4;
  web.clickable = true;
  web.contentColor = Color::fromArgb(0xFF000000);
  web.hasContentColor = true;
  web.effAlpha = 0.0;
  web.isVirtual = true;
  web.virtualId = "ad-close";
  dump.push_back(web);
  android::UiNode anonymous = web;  // empty virtualId
  anonymous.virtualId.clear();
  anonymous.text.clear();
  anonymous.hasContentColor = false;
  anonymous.depth = 5;
  dump.push_back(anonymous);

  EXPECT_EQ(android::WindowManager::fingerprint(dump),
            byteLoopFingerprint(dump));
  // Each crafted node reaches the hash on its own.
  for (std::size_t drop = 0; drop < dump.size(); ++drop) {
    android::UiDump fewer = dump;
    fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_EQ(android::WindowManager::fingerprint(fewer),
              byteLoopFingerprint(fewer));
  }

  // Generated dumps, WebView interstitials included.
  apps::ScreenGenerator::Params params;
  params.webViewAuiProb = 1.0;
  apps::ScreenGenerator gen(params, 17);
  android::WindowManager wm;
  for (int i = 0; i < 8; ++i) {
    apps::AuiSpec spec = gen.randomSpec();
    spec.host = i % 2 == 0 ? apps::AuiHost::kThirdParty : spec.host;
    wm.showAppWindow("com.gen", gen.makeAui(spec).root, false);
    const android::UiDump generated = wm.dumpTopWindow();
    EXPECT_EQ(android::WindowManager::fingerprint(generated),
              byteLoopFingerprint(generated));
    wm.popAppWindow();
  }
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
      EXPECT_LE(h.service.verdictCache().size(), 2u);
    }
  }
  EXPECT_EQ(h.service.verdictCache().capacity(), 2u);
  EXPECT_GT(h.service.verdictCache().evictions(), 0);
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
  const std::size_t cacheBefore = h.service.verdictCache().size();

  // A trusted app reaches the foreground. Its events are filtered at
  // delivery, and even a directly forced analysis must bail before the
  // cache: trusted screens are neither probed nor seeded.
  h.showAndSettle("com.trusted", makeScreen(1));
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().analysesRun, analysesBefore);
  EXPECT_EQ(h.service.verdictCache().size(), cacheBefore);
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
  EXPECT_EQ(h.service.verdictCache().size(), 0u);
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

// ------------------------------------------------ route characterization
//
// Pins the exact ledger record of one analysis pass on every route the
// routing can take: which stages ran or were skipped, what each was
// priced, the cache hit/miss counters, every DarpaStats field and the
// ordered "ph": "X" trace spans (name, simulated ts, modeled dur).

/// Lint rule scripted by the screen: a node whose resource id is
/// "lint:<score>" yields one finding of that score on the node's bounds
/// under each of the three structural rule ids. Their weights sum to 0.85
/// and the route screen is neither modal nor a symmetric pair, so the
/// merged lint score is 0.85x the scripted one and a screen picks its lint
/// verdict: 0.0 is confident-clean, 0.3 unconfident, 0.9 confident-AUI.
class ScriptedLintRule : public analysis::LintRule {
 public:
  [[nodiscard]] std::string_view id() const override { return "scripted"; }
  void run(const analysis::LintContext& ctx,
           std::vector<analysis::LintFinding>& out) const override {
    for (std::size_t i = 0; i < ctx.dump().size(); ++i) {
      const android::UiNode& node = ctx.dump()[i];
      if (node.resourceId.rfind("lint:", 0) != 0) continue;
      for (const char* ruleId : {"aui-size-asymmetry", "aui-corner-upo",
                                 "aui-contrast-asymmetry"}) {
        analysis::LintFinding finding;
        finding.ruleId = ruleId;
        finding.severity = analysis::Severity::kError;
        finding.nodeIndex = static_cast<int>(i);
        finding.box = node.boundsOnScreen;
        finding.score = std::stod(node.resourceId.substr(5));
        out.push_back(finding);
      }
    }
  }
};

analysis::LintEngine scriptedLint() {
  analysis::LintEngine engine;
  engine.addRule(std::make_unique<ScriptedLintRule>());
  return engine;
}

/// One clickable button at window (10, 50, 60, 24) — screen (10, 74) under
/// the 24 px status bar — carrying `resourceId`.
std::unique_ptr<android::View> routeScreen(const std::string& resourceId) {
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  auto button = std::make_unique<android::Button>();
  button->setFrame({10, 50, 60, 24});
  button->setClickable(true);
  button->setResourceId(resourceId);
  root->addChild(std::move(button));
  return root;
}

const Rect kRouteButton{10, 74, 60, 24};

struct StageWant {
  std::int64_t runs = 0;
  std::int64_t skips = 0;
  double cpuMs = 0.0;
};

/// The record one pass must leave. Stage rows follow kAllStages (event,
/// lint, screenshot, detect, verdict, act); stats are the pass's delta.
struct PassWant {
  std::array<StageWant, kStageCount> stages{};
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  DarpaStats stats;
  std::vector<std::string> spans;  ///< "name@ts+dur" in trace order.
};

std::string statsDelta(const DarpaStats& a, const DarpaStats& b) {
  std::ostringstream out;
  out << "events=" << a.eventsReceived - b.eventsReceived
      << " analyses=" << a.analysesRun - b.analysesRun
      << " shots=" << a.screenshotsTaken - b.screenshotsTaken
      << " flagged=" << a.auisFlagged - b.auisFlagged
      << " decorations=" << a.decorationsDrawn - b.decorationsDrawn
      << " bypasses=" << a.bypassClicks - b.bypassClicks
      << " lintRuns=" << a.lintRuns - b.lintRuns
      << " cvSkippedByLint=" << a.cvSkippedByLint - b.cvSkippedByLint
      << " l1Hits=" << a.verdictCacheHits - b.verdictCacheHits
      << " l2Hits=" << a.verdictTierHits - b.verdictTierHits
      << " anchors=" << a.anchorMeasurements - b.anchorMeasurements;
  return out.str();
}

/// The trace's complete ("ph": "X") events as "name@ts+dur", in order.
std::vector<std::string> completeSpans(const WorkLedger& ledger) {
  std::ostringstream json;
  ledger.writeChromeTrace(json);
  std::istringstream lines(json.str());
  auto between = [](const std::string& line, const std::string& open,
                    char close) {
    const std::size_t start = line.find(open) + open.size();
    return line.substr(start, line.find(close, start) - start);
  };
  std::vector<std::string> spans;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    spans.push_back(between(line, "\"name\": \"", '"') + "@" +
                    between(line, "\"ts\": ", ',') + "+" +
                    between(line, "\"dur\": ", ','));
  }
  return spans;
}

/// Runs one analysis pass on a fresh ledger and checks its whole record.
void expectPass(DarpaService& service, const PassWant& want) {
  const DarpaStats before = service.stats();
  service.ledger() = WorkLedger{};
  service.ledger().setTraceEnabled(true);
  service.analyzeNow();
  const WorkLedger& ledger = service.ledger();
  for (const Stage stage : kAllStages) {
    const StageTally& got = ledger.tally(stage);
    const StageWant& expected = want.stages[static_cast<std::size_t>(stage)];
    EXPECT_EQ(got.runs, expected.runs) << stageName(stage);
    EXPECT_EQ(got.skips, expected.skips) << stageName(stage);
    EXPECT_NEAR(got.cpuMs, expected.cpuMs, 1e-12) << stageName(stage);
  }
  EXPECT_EQ(ledger.cacheHits(), want.cacheHits);
  EXPECT_EQ(ledger.cacheMisses(), want.cacheMisses);
  EXPECT_EQ(statsDelta(service.stats(), before),
            statsDelta(want.stats, DarpaStats{}));
  EXPECT_EQ(completeSpans(ledger), want.spans);
}

TEST(PipelineRouteTest, EveryRouteRecordsExactStagesStatsAndSpans) {
  const StageCosts costs;
  const double lookup = costs.cacheLookupCpuMs;
  const double merge = costs.verdictCpuMs;
  const double shot = costs.screenshotCpuMs;
  const double detect = 1.0e6 / costs.macsPerCpuMs;  // FakeDetector's MACs
  const double decoration = costs.decorationCpuMs;
  const std::vector<cv::Detection> upo = {upoAt(kRouteButton)};
  const analysis::LintEngine lint = scriptedLint();
  DarpaConfig lintConfig;
  lintConfig.lintPrefilter = &lint;

  {
    SCOPED_TRACE("L1 hit");
    Harness h;
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    h.service.analyzeNow();
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {0, 1, 0}, {0, 1, 0},
                            {1, 1, lookup}, {1, 0, decoration}}},
                .cacheHits = 1,
                .stats = {.analysesRun = 1, .auisFlagged = 1,
                          .decorationsDrawn = 1, .verdictCacheHits = 1,
                          .anchorMeasurements = 1},
                .spans = {"verdict@0.000+80.000", "act@80.000+45000.000"}});
    EXPECT_EQ(h.detector.calls, 1);
  }
  {
    SCOPED_TRACE("L2 hit");
    SharedVerdictTier tier({.shards = 1, .capacityPerShard = 8});
    DarpaConfig config;
    config.verdictTier = &tier;
    Harness publisher(config);
    publisher.detector.detections = upo;
    publisher.system.windowManager.showAppWindow("com.app", routeScreen(""),
                                                 false);
    publisher.service.analyzeNow();
    Harness h(config);
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {0, 1, 0}, {0, 1, 0},
                            {2, 1, lookup + lookup}, {1, 0, decoration}}},
                .cacheHits = 1,
                .stats = {.analysesRun = 1, .auisFlagged = 1,
                          .decorationsDrawn = 1, .verdictTierHits = 1,
                          .anchorMeasurements = 1},
                .spans = {"verdict@0.000+80.000", "verdict@80.000+80.000",
                          "act@160.000+45000.000"}});
    EXPECT_EQ(h.detector.calls, 0);
    EXPECT_EQ(h.service.lastDetections().size(), 1u);
  }
  {
    SCOPED_TRACE("confident-clean lint");
    Harness h(lintConfig);
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen("lint:0.0"),
                                         false);
    expectPass(h.service,
               {.stages = {{{}, {1, 0, costs.lintCpuMs}, {0, 1, 0},
                            {0, 1, 0}, {2, 0, lookup + merge}, {0, 1, 0}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1, .lintRuns = 1,
                          .cvSkippedByLint = 1},
                .spans = {"verdict@0.000+80.000", "lint@80.000+180.000",
                          "verdict@260.000+20.000"}});
    EXPECT_EQ(h.detector.calls, 0);
  }
  {
    SCOPED_TRACE("confident-AUI lint");
    Harness h(lintConfig);
    h.system.windowManager.showAppWindow("com.app", routeScreen("lint:0.9"),
                                         false);
    expectPass(h.service,
               {.stages = {{{}, {1, 0, costs.lintCpuMs}, {0, 1, 0},
                            {0, 1, 0}, {2, 0, lookup + merge},
                            {1, 0, decoration}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1, .auisFlagged = 1,
                          .decorationsDrawn = 1, .lintRuns = 1,
                          .cvSkippedByLint = 1, .anchorMeasurements = 1},
                .spans = {"verdict@0.000+80.000", "lint@80.000+180.000",
                          "verdict@260.000+20.000",
                          "act@280.000+45000.000"}});
    EXPECT_EQ(h.detector.calls, 0);
    ASSERT_EQ(h.service.lastDetections().size(), 1u);
    EXPECT_EQ(h.service.lastDetections()[0].box, kRouteButton);
  }
  {
    SCOPED_TRACE("unconfident lint, then detect");
    Harness h(lintConfig);
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen("lint:0.3"),
                                         false);
    expectPass(h.service,
               {.stages = {{{}, {1, 0, costs.lintCpuMs}, {1, 0, shot},
                            {1, 0, detect}, {2, 0, lookup + merge},
                            {1, 0, decoration}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1, .screenshotsTaken = 1,
                          .auisFlagged = 1, .decorationsDrawn = 1,
                          .lintRuns = 1, .anchorMeasurements = 1},
                .spans = {"verdict@0.000+80.000", "lint@80.000+180.000",
                          "screenshot@260.000+2200.000",
                          "detect@2460.000+555.556",
                          "verdict@3015.556+20.000",
                          "act@3035.556+45000.000"}});
    EXPECT_EQ(h.detector.calls, 1);
  }
  {
    SCOPED_TRACE("failed capture");
    Harness h({}, android::WindowManager::Config{{0, 0}, 0, 0});
    h.detector.detections = upo;
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {0, 1, 0}, {0, 1, 0},
                            {2, 0, lookup + merge}, {0, 1, 0}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1},
                .spans = {"verdict@0.000+80.000", "verdict@80.000+20.000"}});
    EXPECT_EQ(h.detector.calls, 0);
  }
  const PassWant detectAndDecorate = {
      .stages = {{{}, {0, 1, 0}, {1, 0, shot}, {1, 0, detect},
                  {2, 0, lookup + merge}, {1, 0, decoration}}},
      .cacheMisses = 1,
      .stats = {.analysesRun = 1, .screenshotsTaken = 1, .auisFlagged = 1,
                .decorationsDrawn = 1, .anchorMeasurements = 1},
      .spans = {"verdict@0.000+80.000", "screenshot@80.000+2200.000",
                "detect@2280.000+555.556", "verdict@2835.556+20.000",
                "act@2855.556+45000.000"}};
  {
    SCOPED_TRACE("detect, then decorate");
    Harness h;
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    expectPass(h.service, detectAndDecorate);
    EXPECT_EQ(h.service.decorationRects().size(), 1u);
  }
  {
    SCOPED_TRACE("detect, then bypass");
    DarpaConfig config;
    config.autoBypass = true;
    Harness h(config);
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {1, 0, shot}, {1, 0, detect},
                            {2, 0, lookup + merge},
                            {1, 0, costs.bypassClickCpuMs}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1, .screenshotsTaken = 1,
                          .auisFlagged = 1, .bypassClicks = 1},
                .spans = {"verdict@0.000+80.000", "screenshot@80.000+2200.000",
                          "detect@2280.000+555.556",
                          "verdict@2835.556+20.000",
                          "act@2855.556+1500.000"}});
  }
  {
    SCOPED_TRACE("non-AUI");
    Harness h;
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {1, 0, shot}, {1, 0, detect},
                            {2, 0, lookup + merge}, {0, 1, 0}}},
                .cacheMisses = 1,
                .stats = {.analysesRun = 1, .screenshotsTaken = 1},
                .spans = {"verdict@0.000+80.000", "screenshot@80.000+2200.000",
                          "detect@2280.000+555.556",
                          "verdict@2835.556+20.000"}});
    EXPECT_FALSE(h.service.lastWasAui());
  }
  {
    // A service's window manager comes with its connection; a service
    // that was never connected has none, and a forced pass is a no-op.
    SCOPED_TRACE("no window manager");
    FakeDetector detector;
    DarpaService service(detector);
    expectPass(service, {});
    EXPECT_EQ(service.ledger().analyses(), 0);
    EXPECT_EQ(detector.calls, 0);
  }
  {
    SCOPED_TRACE("both caches off");
    DarpaConfig config;
    config.verdictCacheCapacity = 0;
    Harness h(config);
    h.detector.detections = upo;
    h.system.windowManager.showAppWindow("com.app", routeScreen(""), false);
    h.service.analyzeNow();  // a cache-less service never serves a repeat
    expectPass(h.service,
               {.stages = {{{}, {0, 1, 0}, {1, 0, shot}, {1, 0, detect},
                            {1, 0, merge}, {1, 0, decoration}}},
                .stats = {.analysesRun = 1, .screenshotsTaken = 1,
                          .auisFlagged = 1, .decorationsDrawn = 1,
                          .anchorMeasurements = 1},
                .spans = {"screenshot@0.000+2200.000",
                          "detect@2200.000+555.556", "verdict@2755.556+20.000",
                          "act@2775.556+45000.000"}});
    EXPECT_EQ(h.detector.calls, 2);
  }
}

}  // namespace
}  // namespace darpa::core
