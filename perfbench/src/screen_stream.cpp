// screen_stream: the user's screen-to-decoration path with nothing cached.
//
// One device with the paper's DarpaService config (no lint prefilter, L1
// on). A seeded stream of distinct screens — half AUIs (a quarter of the
// third-party ones WebView-hosted), the rest benign and hard-negative — is
// pushed onto the WindowManager and each screen is analyzed with
// analyzeNow(). The first pass covers the whole stream and defines the
// output digest and the quality metrics; later passes replay the same
// stream on a fresh device until the time is up, and every verdict they
// produce must equal the first pass's.
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/screen_generator.h"
#include "core/darpa_service.h"
#include "layers.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace darpa;

constexpr double kAuiShare = 0.5;
constexpr double kBenignShare = 0.3;  ///< The rest are hard negatives.
constexpr double kWebViewAuiProb = 0.25;
constexpr char kPackage[] = "com.stream.app";
/// screens_per_s is the median over chunks of this many analyses.
constexpr std::size_t kRateChunk = 25;

/// Deterministic screen source: the same seed yields the same stream.
class ScreenStream {
 public:
  explicit ScreenStream(std::uint64_t seed)
      : generator_(params(), seed), mix_(seed ^ 0x5c4ee9u) {}

  apps::GeneratedScreen next() {
    const double r = mix_.uniform();
    if (r < kAuiShare) return generator_.makeAui(generator_.randomSpec());
    if (r < kAuiShare + kBenignShare) return generator_.makeBenign();
    return generator_.makeHardNegative();
  }

 private:
  static apps::ScreenGenerator::Params params() {
    const android::WindowManager wm;
    const Rect frame = wm.appFrame(false);
    apps::ScreenGenerator::Params p;
    p.frame = {frame.width, frame.height};
    p.webViewAuiProb = kWebViewAuiProb;
    return p;
  }

  apps::ScreenGenerator generator_;
  Rng mix_;
};

/// One simulated phone running DARPA with the paper's config, plus a
/// second connected service that only serves the layer probe's timed
/// decorate() call.
struct Device {
  android::AndroidSystem system;
  core::DarpaService service;
  core::DarpaService decorator;
  std::int64_t verdicts = 0;  ///< Analysis-listener callbacks.

  explicit Device(const cv::Detector& detector)
      : service(detector, {}), decorator(detector, {}) {
    system.accessibility.connect(service);
    system.accessibility.connect(decorator);
    service.setAnalysisListener(
        [this](bool, const std::vector<cv::Detection>&) { ++verdicts; });
  }
  ~Device() {
    system.accessibility.disconnect(decorator);
    system.accessibility.disconnect(service);
  }
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Puts the screen on top; false when its fingerprint was already shown
  /// on this device (the generator can repeat a layout), so the stream
  /// only ever analyzes distinct screens.
  bool show(apps::GeneratedScreen screen) {
    android::WindowManager& wm = system.windowManager;
    if (wm.appWindowCount() > 0) wm.popAppWindow();
    wm.showAppWindow(kPackage, std::move(screen.root), false);
    return seen_.insert(wm.topWindowFingerprint()).second;
  }

  /// Times one analyzeNow(), then takes the decorations down so the next
  /// screen (and the layer probe) captures clean pixels.
  double analyze() {
    const Clock::time_point t0 = Clock::now();
    service.analyzeNow();
    const double took = msSince(t0);
    service.clearDecorations();
    return took;
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
};

std::uint64_t verdictHash(const core::DarpaService& service) {
  Digest d;
  d.add(service.lastWasAui() ? 1 : 0);
  for (const cv::Detection& det : service.lastDetections()) {
    d.add(static_cast<std::uint64_t>(det.label));
    d.addSigned(det.box.x);
    d.addSigned(det.box.y);
    d.addSigned(det.box.width);
    d.addSigned(det.box.height);
    d.addFloat(det.confidence);
  }
  return d.value();
}

struct Totals {
  core::DarpaStats stats;
  std::int64_t verdicts = 0;
  std::int64_t events = 0;

  void add(const Device& device) {
    stats += device.service.stats();
    verdicts += device.verdicts;
    events += device.system.accessibility.totalEmitted();
  }
};

}  // namespace

RunResult runScreenStream(const RunOptions& options) {
  const int streamLength = options.tiny ? 12 : 1000;
  const int lapLength = options.tiny ? 6 : 150;  ///< Replay laps.
  const int warmupScreens = options.tiny ? 2 : 10;
  const int setupReps = options.tiny ? 2 : 15;

  RunResult result;
  const analysis::LintEngine lint = analysis::LintEngine::withDefaultRules();

  // Set-up, repeated: load the model, build the device, warm it up on
  // screens outside the measured stream. The last detector is kept.
  std::vector<double> setupMs;
  std::unique_ptr<cv::OneStageDetector> detector;
  for (int rep = 0; rep < setupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    detector = loadDetector(options.modelPath);
    Device device(*detector);
    ScreenStream warmup(options.seed ^ 0x77a12b3u);
    for (int i = 0; i < warmupScreens; ++i) {
      if (device.show(warmup.next())) device.analyze();
    }
    setupMs.push_back(msSince(t0));
  }
  const double firstTimedS =
      std::chrono::duration<double>(Clock::now() - processStart()).count();

  // Pass 0: the whole stream, untraced. Defines the digests and quality.
  const Clock::time_point runStart = Clock::now();
  std::vector<double> verdictMs;
  std::vector<std::uint64_t> reference;
  Digest outputs;
  Digest inputs;
  Totals totals;
  std::int64_t auiScreens = 0, auiFlagged = 0, agree = 0;
  int distinct = 0;
  {
    Device device(*detector);
    ScreenStream stream(options.seed);
    for (int i = 0; i < streamLength; ++i) {
      apps::GeneratedScreen screen = stream.next();
      const apps::ScreenTruth truth = screen.truth;
      const bool fresh = device.show(std::move(screen));
      inputs.add(device.system.windowManager.topWindowFingerprint());
      if (!fresh) {
        reference.push_back(0);
        continue;
      }
      inputs.add(truth.isAui ? 1 : 0);
      inputs.add(truth.hardNegative ? 1 : 0);
      ++distinct;
      verdictMs.push_back(device.analyze());
      const std::uint64_t h = verdictHash(device.service);
      reference.push_back(h);
      outputs.add(h);
      const bool flagged = device.service.lastWasAui();
      agree += flagged == truth.isAui ? 1 : 0;
      if (truth.isAui) {
        ++auiScreens;
        auiFlagged += flagged ? 1 : 0;
      }
    }
    totals.add(device);
  }

  // Laps over the stream's first lapLength screens, each on a fresh
  // device, every verdict checked against pass 0's. Untraced laps run
  // until the time is up (at least two); traced runs add one lap with
  // the timed detector and the layer probe.
  const double budgetMs = options.seconds * 1000.0;
  int mismatches = 0;
  const auto replay = [&](const cv::Detector& serving, LayerProbe* probe,
                          std::vector<double>& samples, auto keepGoing) {
    auto device = std::make_unique<Device>(serving);
    auto stream = std::make_unique<ScreenStream>(options.seed);
    for (int i = 0; keepGoing(i); ++i) {
      const std::size_t k = static_cast<std::size_t>(i % lapLength);
      if (k == 0 && i > 0) {
        // A new lap over the same stream: a fresh device, so the screens
        // are distinct again on it.
        totals.add(*device);
        device = std::make_unique<Device>(serving);
        stream = std::make_unique<ScreenStream>(options.seed);
      }
      if (!device->show(stream->next())) continue;
      samples.push_back(device->analyze());
      if (verdictHash(device->service) != reference[k]) ++mismatches;
      if (probe != nullptr) {
        probe->sample(device->system, device->decorator, *detector, lint);
      }
    }
    totals.add(*device);
  };

  const double untracedBudgetMs = options.trace ? budgetMs * 0.5 : budgetMs;
  replay(*detector, nullptr, verdictMs, [&](int i) {
    return i < 2 * lapLength || msSince(runStart) < untracedBudgetMs;
  });

  if (options.trace) {
    TimedDetector timed(*detector);
    LayerProbe probe;
    std::vector<double> tracedMs;
    replay(timed, &probe, tracedMs, [&](int i) {
      return i < lapLength;
    });
    const std::vector<double> detectMs = timed.callsMs();
    double detectTotal = 0.0, tracedTotal = 0.0;
    for (const double v : detectMs) detectTotal += v;
    for (const double v : tracedMs) tracedTotal += v;

    Metrics& m = result.perLayer;
    probe.emit(m, mean(verdictMs));
    m.set("trace.overhead_ratio", median(tracedMs) / median(verdictMs),
          "ratio");
    m.set("cv.detect_calls", static_cast<double>(detectMs.size()), "count");
    m.set("cv.detect_ms_mean", mean(detectMs), "ms");
    m.set("cv.detect_busy_share",
          tracedTotal > 0.0 ? detectTotal / tracedTotal : 0.0, "ratio");
  }

  const core::DarpaStats& s = totals.stats;
  const std::int64_t needCapture = s.analysesRun - s.verdictCacheHits -
                                   s.verdictTierHits - s.cvSkippedByLint;
  result.attempted = s.analysesRun;
  result.failed = std::max<std::int64_t>(0, s.analysesRun - totals.verdicts) +
                  std::max<std::int64_t>(0, needCapture - s.screenshotsTaken);

  const double accuracy =
      static_cast<double>(agree) / static_cast<double>(distinct);
  Metrics& e = result.endToEnd;
  e.set("setup_s", median(setupMs) / 1000.0, "s");
  e.set("screens_per_s", medianChunkRate(verdictMs, kRateChunk), "1/s");
  e.set("verdict_accuracy", accuracy, "ratio");
  e.set("aui_coverage",
        auiScreens == 0 ? 0.0
                        : static_cast<double>(auiFlagged) /
                              static_cast<double>(auiScreens),
        "ratio");
  e.set("peak_rss_mb", peakRssMb(), "MB");

  if (options.trace) {
    Metrics& m = result.perLayer;
    m.set("core.l1_hit_ratio",
          static_cast<double>(s.verdictCacheHits) /
              static_cast<double>(std::max<std::int64_t>(1, s.analysesRun)),
          "ratio");
    m.set("core.l2_hit_ratio", 0.0, "ratio");
    m.set("core.l2_publishes", 0.0, "count");
    m.set("analysis.lint_shortcircuit_ratio", 0.0, "ratio");
    m.set("android.events", static_cast<double>(totals.events), "count");
    m.set("core.decorations", static_cast<double>(s.decorationsDrawn),
          "count");
    m.set("gfx.frame_pool_reuse_ratio", 0.0, "ratio");
    m.set("fleet.steals", 0.0, "count");
    m.set("fleet.finish_ms_p99", 0.0, "ms");
  }

  const Tail tail = resolvableTail(verdictMs);
  char line[256];
  std::snprintf(line, sizeof line,
                "verdict_ms_p50 %.4f ms, verdict_ms_%s %.4f ms over %zu "
                "analyzeNow() calls (%d distinct screens)",
                median(verdictMs), tail.label.c_str(), tail.value,
                verdictMs.size(), distinct);
  result.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "first timed operation %.3f s after process start", firstTimedS);
  result.notes.push_back(line);

  result.outputDigest = outputs.hex();
  result.inputDigest = inputs.hex();
  if (mismatches > 0) {
    result.correct = false;
    result.notes.push_back("replayed verdicts disagree with the first pass (" +
                           std::to_string(mismatches) + " screens)");
  }
  // The paper-scale model reaches ~0.88 on this mix; the --quick model
  // ~0.60. Anything this low means the wrong or a broken model.
  if (!options.tiny && accuracy < 0.75) {
    result.correct = false;
    result.notes.push_back("verdict accuracy below 0.75: wrong model?");
  }
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
