// DarpaService — the paper's primary contribution, end to end.
//
// Implements the Fig.-5 life-cycle as an AccessibilityService:
//
//   1. Event registration: subscribes to all 23 accessibility event types
//      with a 200 ms notification delay.
//   2. Event delivery: every UI-update event resets a cut-off timer (ct);
//      a screen only gets analyzed once it has been stable for ct — the
//      debounce that makes run-time CV affordable (§IV-B, Table VIII).
//   3. Analysis: one pass in analyzeNow() — verdict-cache probe (session
//      L1, then the optional fleet L2), lint pre-filter, screenshot, CV
//      detection, verdict merge, act. A cache hit short-circuits a
//      re-stabilized identical screen past every expensive step.
//   4. AUI decoration: detected options are highlighted with DecorationViews
//      added through WindowManager.addView, calibrating screen-to-window
//      coordinates with the invisible anchor-view trick (§IV-D, Fig. 4);
//      optionally the UPO is auto-clicked instead (the bypass mode).
//
// Every step of a pass is priced into a WorkLedger the simulated device's
// performance model consumes for Table VII/VIII accounting; a step the
// routing skips is recorded as a skip.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "android/accessibility.h"
#include "core/decoration.h"
#include "core/detection_executor.h"
#include "core/screen_frame.h"
#include "core/security.h"
#include "core/verdict_cache.h"
#include "core/work_ledger.h"
#include "cv/detector.h"
#include "util/thread_annotations.h"

namespace darpa::analysis {
class LintEngine;
}

namespace darpa::core {

class SharedVerdictTier;

struct DarpaConfig {
  /// Cut-off time: analyze a screen only after it stayed stable this long.
  Millis cutoff{200};
  /// Notification delay registered with the Accessibility framework.
  Millis notificationDelay{200};
  /// Highlight the detected options with decoration views.
  bool decorate = true;
  /// Automatically click the UPO to dismiss the AUI (§IV-D's alternative).
  bool autoBypass = false;
  /// Decoration colors: UPO gets the attention color (users want it),
  /// AGO gets the warning color.
  Color upoColor = Color::rgb(30, 200, 80);
  Color agoColor = Color::rgb(230, 40, 40);
  /// User-customizable decoration shape (§IV-D: "we also allow users to
  /// customize the shape and color of the decoration view").
  DecorationStyle upoStyle = DecorationStyle::kRect;
  DecorationStyle agoStyle = DecorationStyle::kRect;
  /// Selective monitoring (§VI-D): when non-empty, events from these
  /// packages are ignored entirely — "selectively running DARPA on those
  /// less-trusted apps" cuts the overhead on trusted ones.
  std::set<std::string> trustedPackages;
  /// Optional static-lint pre-filter (borrowed; must outlive the service).
  /// When set, every stable screen is linted from its UI dump first — a
  /// zero-screenshot pass costing microseconds — and screens the lint
  /// clears or flags *confidently* skip the screenshot + CV stage entirely.
  /// Unconfident verdicts fall through to the full CV path.
  const analysis::LintEngine* lintPrefilter = nullptr;
  /// Capacity of the screen-fingerprint verdict cache (0 disables it). A
  /// re-stabilized structurally identical screen is served its previous
  /// verdict without lint, screenshot, or CV work.
  std::size_t verdictCacheCapacity = 32;
  /// Optional fleet-wide shared L2 behind the session cache (borrowed;
  /// must outlive the service). Probed on L1 miss, refilled by promotion,
  /// published to on evidence-backed verdicts. Null (the default) keeps the
  /// pass byte-identical to the tier-less build. Fleets own one tier
  /// and point every session at it (FleetConfig::sharedVerdictTier).
  SharedVerdictTier* verdictTier = nullptr;
  /// Detection backend (borrowed; must outlive the service). When null the
  /// service uses the shared InlineExecutor. Either way detect() runs
  /// synchronously on the thread advancing the service.
  DetectionExecutor* executor = nullptr;
};

/// Per-session counters. Session-confined like the WorkLedger (see the
/// thread-ownership rule in core/work_ledger.h): only the thread advancing
/// the owning session writes them; fleets sum them once the session has
/// retired.
struct DarpaStats {
  std::int64_t eventsReceived CONFINED_TO("owning session") = 0;
  std::int64_t analysesRun CONFINED_TO("owning session") = 0;
  /// Successful captures only.
  std::int64_t screenshotsTaken CONFINED_TO("owning session") = 0;
  std::int64_t auisFlagged CONFINED_TO("owning session") = 0;
  std::int64_t decorationsDrawn CONFINED_TO("owning session") = 0;
  std::int64_t bypassClicks CONFINED_TO("owning session") = 0;
  /// Static pre-filter passes.
  std::int64_t lintRuns CONFINED_TO("owning session") = 0;
  /// Analyses resolved without CV.
  std::int64_t cvSkippedByLint CONFINED_TO("owning session") = 0;
  /// Analyses served from the session L1 cache.
  std::int64_t verdictCacheHits CONFINED_TO("owning session") = 0;
  /// Analyses served from the fleet-wide L2 tier (disjoint from
  /// verdictCacheHits: each cache-served analysis counts in exactly one).
  std::int64_t verdictTierHits CONFINED_TO("owning session") = 0;
  /// §IV-D offset calibrations.
  std::int64_t anchorMeasurements CONFINED_TO("owning session") = 0;

  DarpaStats& operator+=(const DarpaStats& o) {
    eventsReceived += o.eventsReceived;
    analysesRun += o.analysesRun;
    screenshotsTaken += o.screenshotsTaken;
    auisFlagged += o.auisFlagged;
    decorationsDrawn += o.decorationsDrawn;
    bypassClicks += o.bypassClicks;
    lintRuns += o.lintRuns;
    cvSkippedByLint += o.cvSkippedByLint;
    verdictCacheHits += o.verdictCacheHits;
    verdictTierHits += o.verdictTierHits;
    anchorMeasurements += o.anchorMeasurements;
    return *this;
  }
};

class DarpaService : public android::AccessibilityService {
 public:
  /// The detector is borrowed and must outlive the service.
  DarpaService(const cv::Detector& detector, DarpaConfig config = {});
  ~DarpaService() override;

  void onServiceConnected() override;
  void onAccessibilityEvent(const android::AccessibilityEvent& event) override;

  /// Listener invoked after every analysis with the AUI verdict; used by the
  /// coverage experiments. Cache-served analyses report their cached verdict
  /// here exactly like a freshly computed one.
  void setAnalysisListener(
      std::function<void(bool isAui, const std::vector<cv::Detection>&)>
          listener) {
    analysisListener_ = std::move(listener);
  }

  [[nodiscard]] const DarpaStats& stats() const { return stats_; }
  [[nodiscard]] const DarpaConfig& darpaConfig() const { return config_; }
  [[nodiscard]] const ScreenshotVault& vault() const { return vault_; }
  [[nodiscard]] const PermissionManifest& permissions() const {
    return permissions_;
  }

  /// The work ledger every step of a pass prices into (perf accounting).
  /// The mutable overload lets harnesses enable tracing or swap cost tables.
  [[nodiscard]] const WorkLedger& ledger() const { return ledger_; }
  [[nodiscard]] WorkLedger& ledger() { return ledger_; }

  /// The session L1 verdict cache, for inspection.
  [[nodiscard]] const VerdictCache& verdictCache() const { return cache_; }

  /// The detection backend this service submits to (config_.executor, or
  /// the shared InlineExecutor when unset).
  [[nodiscard]] DetectionExecutor& detectionExecutor() const;

  /// Detections from the most recent analysis (screen coordinates).
  [[nodiscard]] const std::vector<cv::Detection>& lastDetections() const {
    return lastDetections_;
  }
  [[nodiscard]] bool lastWasAui() const { return lastWasAui_; }

  /// Screen rects of the decoration overlays currently shown.
  [[nodiscard]] std::vector<Rect> decorationRects() const;

  /// Removes all decoration overlays (also done before every screenshot).
  void clearDecorations();

  /// Runs one analysis pass immediately (normally driven by the ct timer):
  /// build the frame, probe L1 then L2, lint, capture, detect, merge and
  /// store the verdict, act. The pass is complete when this returns.
  void analyzeNow();

  // --- act helpers (driven by analyzeNow() on an AUI verdict) ---------------
  /// Decorates the given detections, measuring the §IV-D window offset via
  /// the anchor-overlay trick first — the offset is only ever measured on
  /// this path, where it is actually consumed.
  void decorate(const std::vector<cv::Detection>& detections);

  /// Decorates a *virtual* (WebView) node by its page-global id: resolves
  /// the node's screen bounds through the top window's hybrid dump — the
  /// host WebView's position carries the page-coordinate bounds into
  /// screen space — and draws one decoration ring around it. Virtual
  /// nodes have no native View to anchor an overlay to, so targeting
  /// through the hosting view is the only route. Returns false when the
  /// id does not resolve in the current top window.
  bool decorateVirtualNode(std::string_view virtualId, bool asUpo = true);

  /// Clicks the most confident UPO, subject to the bypass cooldown.
  void tryBypass(const std::vector<cv::Detection>& detections);

 private:
  /// Probes L1, then L2 on an L1 miss, pricing each lookup and counting a
  /// hit against the tier that served it; an L2 hit is promoted into L1.
  /// True, with `verdict` filled, on a hit. Neither cache on: no probe.
  bool probeCaches(const ScreenFrame& frame, Verdict& verdict);
  /// True when L1 or L2 is on — the only readers of the frame fingerprint.
  [[nodiscard]] bool cachesEnabled() const;
  /// Dumps the top window and lints it. True when the lint verdict is
  /// confident; a confident AUI's option boxes are appended to
  /// `detections`.
  bool lint(std::vector<cv::Detection>& detections);
  /// Takes the screenshot into `frame` and the vault. False, recording a
  /// skip, when the capture came back empty.
  bool capture(const std::shared_ptr<ScreenFrame>& frame);

  /// The §IV-D anchor-view trick: returns the current app window's offset
  /// on screen.
  [[nodiscard]] Point measureWindowOffset();
  void decorateDetections(const std::vector<cv::Detection>& detections,
                          Point windowOffset);

  const cv::Detector* detector_;
  DarpaConfig config_;
  PermissionManifest permissions_;
  ScreenshotVault vault_;
  DarpaStats stats_;
  WorkLedger ledger_;
  /// Session L1; capacity 0 disables it.
  VerdictCache cache_ CONFINED_TO("owning session");
  std::function<void(bool, const std::vector<cv::Detection>&)>
      analysisListener_;
  android::TaskId pendingAnalysis_ = 0;
  Millis burstStartAt_{-1};  ///< First event of the pending debounce burst.
  Rect lastBypassBox_;
  Millis lastBypassAt_{-1'000'000};
  std::vector<int> decorationOverlayIds_;
  std::vector<cv::Detection> lastDetections_;
  bool lastWasAui_ = false;
};

}  // namespace darpa::core
