#include "core/darpa_service.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "analysis/lint.h"
#include "core/decoration.h"
#include "core/verdict_tier.h"
#include "util/log.h"

namespace darpa::core {

namespace {

/// Decorate at most this many options per class (most confident first);
/// the product behaviour is one highlighted escape option + one warning.
constexpr int kMaxDecorationsPerClass = 1;
/// Auto-bypass cooldown: never re-click the same region within this window.
/// Without it the bypass click's own accessibility events re-trigger
/// analysis and, if the AUI survives the click, DARPA would click forever.
constexpr Millis kBypassCooldown{3000};

}  // namespace

DarpaService::DarpaService(const cv::Detector& detector, DarpaConfig config)
    : detector_(&detector),
      config_(config),
      cache_(config.verdictCacheCapacity) {}

DarpaService::~DarpaService() {
  if (connected()) clearDecorations();
}

void DarpaService::onServiceConnected() {
  // Fig. 5 "Event registration": all 23 event types, 200 ms notification
  // delay to avoid being overwhelmed by redundant UI updates.
  setEventTypesMask(android::kAllEventTypesMask);
  setNotificationTimeout(config_.notificationDelay);
  logInfo("DARPA connected: ct=", config_.cutoff.count, "ms decorate=",
          config_.decorate, " bypass=", config_.autoBypass,
          " cache=", config_.verdictCacheCapacity);
}

void DarpaService::onAccessibilityEvent(
    const android::AccessibilityEvent& event) {
  // Selective monitoring: trusted packages are exempt before any work is
  // accounted (the framework still wakes us, but we return immediately).
  if (!config_.trustedPackages.empty() &&
      config_.trustedPackages.contains(event.packageName)) {
    return;
  }
  ++stats_.eventsReceived;
  ledger_.recordEvent(event.time);
  logDebug("DARPA event ", android::eventTypeName(event.type), " from ",
           event.packageName);
  // Debounce to stability: any UI update resets the ct timer, so only
  // screens that stay unchanged for `cutoff` get analyzed.
  android::Looper* loop = looper();
  if (loop == nullptr) return;
  if (pendingAnalysis_ != 0) {
    loop->cancel(pendingAnalysis_);
  } else {
    // First event of a new burst: the screen's debounce wait is measured
    // from here until the analysis actually fires.
    burstStartAt_ = event.time;
  }
  pendingAnalysis_ = loop->postDelayed(
      [this] {
        pendingAnalysis_ = 0;
        analyzeNow();
      },
      config_.cutoff);
}

DetectionExecutor& DarpaService::detectionExecutor() const {
  return config_.executor != nullptr ? *config_.executor
                                     : defaultInlineExecutor();
}

void DarpaService::analyzeNow() {
  if (!connected()) return;
  // A connected service always has its window manager.
  android::WindowManager& wm = *windowManager();

  // Selective-monitoring guard for mid-debounce app transitions: if a
  // trusted package reached the foreground after the trigger event, its
  // screen must not be analyzed — and in particular must never touch the
  // verdict cache (neither probing it nor seeding it).
  const android::Window* top = wm.topAppWindow();
  if (top != nullptr && config_.trustedPackages.contains(top->packageName())) {
    clearDecorations();
    burstStartAt_ = Millis{-1};
    return;
  }

  ++stats_.analysesRun;
  const Millis now = looper() != nullptr ? looper()->now() : Millis{0};
  Millis debounceLatency{0};
  if (burstStartAt_.count >= 0) {
    debounceLatency = now - burstStartAt_;
    burstStartAt_ = Millis{-1};
  }
  ledger_.beginAnalysis(now, debounceLatency);

  // Remove our own decorations before the pass so the model never sees
  // (and re-detects) DARPA's overlay.
  clearDecorations();

  // One ScreenFrame per pass, later joined by the pixels. Its fingerprint
  // is hashed straight off the live view tree, and only when a verdict
  // cache will read it; no dump is built unless lint runs. Decoration
  // overlays live outside the app window, so a decorated screen
  // fingerprints like its clean self.
  const auto frame = std::make_shared<ScreenFrame>(
      cachesEnabled() ? wm.topWindowFingerprint() : 0,
      top != nullptr ? top->packageName() : std::string{});

  Verdict verdict;
  if (probeCaches(*frame, verdict)) {
    // A hit in either tier resolves the analysis: straight to act.
    for (const Stage stage :
         {Stage::kLint, Stage::kScreenshot, Stage::kDetect, Stage::kVerdict}) {
      ledger_.recordSkip(stage);
    }
  } else {
    // A confident lint verdict resolves the screen without pixels.
    bool resolvedByLint = false;
    if (config_.lintPrefilter != nullptr) {
      resolvedByLint = lint(verdict.detections);
    } else {
      ledger_.recordSkip(Stage::kLint);
    }
    bool captured = false;
    if (resolvedByLint) {
      ledger_.recordSkip(Stage::kScreenshot);
    } else {
      captured = capture(frame);
    }
    if (captured) {
      // Custody of the frame moves out of the vault into the executor — a
      // refcount move, not a pixel copy.
      verdict.detections =
          detectionExecutor().detect(*detector_, vault_.take());
      ledger_.recordRun(Stage::kDetect, detector_->costMacsPerImage() /
                                            ledger_.costs().macsPerCpuMs);
    } else {
      ledger_.recordSkip(Stage::kDetect);
    }

    // A screen is an AUI when at least one UPO is detected (the detector's
    // context features keep benign close buttons below threshold; see
    // §IV-C footnote 4). An AGO alone never flags a screen.
    verdict.isAui = std::any_of(
        verdict.detections.begin(), verdict.detections.end(),
        [](const cv::Detection& det) {
          return det.label == dataset::BoxLabel::kUpo;
        });
    ledger_.recordRun(Stage::kVerdict, ledger_.costs().verdictCpuMs);
    // Cache only verdicts that rest on real evidence (a lint resolution or
    // a usable capture); a transient screenshot failure must stay
    // transient. The fleet L2 gets the evidence grade, and its poisoning
    // guard enforces the same rule fleet-wide (an unevidenced publish is
    // counted and dropped there).
    if (cache_.enabled() && (resolvedByLint || captured)) {
      cache_.put(frame->fingerprint(), verdict);
    }
    if (config_.verdictTier != nullptr) {
      const auto evidence = resolvedByLint
                                ? SharedVerdictTier::Evidence::kLint
                                : (captured
                                       ? SharedVerdictTier::Evidence::kCapture
                                       : SharedVerdictTier::Evidence::kNone);
      config_.verdictTier->publish(frame->fingerprint(), verdict, evidence);
    }
  }

  // Act on an AUI verdict: the auto-bypass click or decoration overlays.
  if (verdict.isAui) {
    ++stats_.auisFlagged;
    if (config_.autoBypass) {
      tryBypass(verdict.detections);
    } else if (config_.decorate) {
      decorate(verdict.detections);
    }
  } else {
    ledger_.recordSkip(Stage::kAct);
  }

  lastDetections_ = verdict.detections;
  lastWasAui_ = verdict.isAui;
  ledger_.endAnalysis();
  if (analysisListener_) analysisListener_(verdict.isAui, verdict.detections);
}

bool DarpaService::cachesEnabled() const {
  return cache_.enabled() || config_.verdictTier != nullptr;
}

bool DarpaService::probeCaches(const ScreenFrame& frame, Verdict& verdict) {
  if (!cachesEnabled()) return false;
  SharedVerdictTier* tier = config_.verdictTier;
  ledger_.recordRun(Stage::kVerdict, ledger_.costs().cacheLookupCpuMs);
  if (cache_.enabled()) {
    if (const Verdict* cached = cache_.find(frame.fingerprint())) {
      ledger_.recordCacheHit();
      ++stats_.verdictCacheHits;
      verdict = *cached;
      return true;
    }
    // The L2 probe is a second lookup, priced as one.
    if (tier != nullptr) {
      ledger_.recordRun(Stage::kVerdict, ledger_.costs().cacheLookupCpuMs);
    }
  }
  if (tier != nullptr) {
    if (std::optional<Verdict> shared = tier->find(frame.fingerprint())) {
      ledger_.recordCacheHit();
      ++stats_.verdictTierHits;
      verdict = std::move(*shared);
      // Promote, so the next repeat of this screen is a session-local hit.
      if (cache_.enabled()) cache_.put(frame.fingerprint(), verdict);
      return true;
    }
  }
  ledger_.recordCacheMiss();
  return false;
}

bool DarpaService::lint(std::vector<cv::Detection>& detections) {
  // The screen cannot change within a pass, so this dump holds the nodes
  // the pass's fingerprint hashed.
  const android::WindowManager& wm = *windowManager();
  const analysis::LintVerdict verdict =
      config_.lintPrefilter->run(wm.dumpTopWindow(), wm.config().screenSize)
          .verdict;
  ++stats_.lintRuns;
  ledger_.recordRun(Stage::kLint, ledger_.costs().lintCpuMs);
  if (!verdict.confident) return false;
  ++stats_.cvSkippedByLint;
  if (verdict.isAui) {
    // Lint option boxes stand in for detections.
    const auto confidence = static_cast<float>(verdict.score);
    for (const Rect& box : verdict.upoBoxes) {
      detections.push_back({box, dataset::BoxLabel::kUpo, confidence});
    }
    for (const Rect& box : verdict.agoBoxes) {
      detections.push_back({box, dataset::BoxLabel::kAgo, confidence});
    }
  }
  return true;
}

bool DarpaService::capture(const std::shared_ptr<ScreenFrame>& frame) {
  gfx::Bitmap shot = takeScreenshot();
  if (shot.empty()) {
    // A failed capture is not billable work and must not drift the stats:
    // no screenshot was taken, so none is counted, priced, or vaulted.
    ledger_.recordSkip(Stage::kScreenshot);
    return false;
  }
  // The allocation axis reads the capture's slab provenance: a pooled
  // reuse is the allocation the FramePool saved, anything else is a fresh
  // heap buffer. Neither record adds modeled CPU.
  if (shot.source() == gfx::SlabSource::kPoolReused) {
    ledger_.recordPooledReuse(Stage::kScreenshot, shot.pixelBytes());
  } else {
    ledger_.recordAlloc(Stage::kScreenshot, shot.pixelBytes());
  }
  // The pixels join the pass's frame (zero-copy) and the vault takes
  // shared custody of the same frame — one buffer, every holder.
  frame->attachPixels(std::move(shot));
  vault_.store(frame);
  ++stats_.screenshotsTaken;
  ledger_.recordRun(Stage::kScreenshot, ledger_.costs().screenshotCpuMs);
  return true;
}

void DarpaService::decorate(const std::vector<cv::Detection>& detections) {
  decorateDetections(detections, measureWindowOffset());
}

bool DarpaService::decorateVirtualNode(std::string_view virtualId,
                                       bool asUpo) {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr || virtualId.empty()) return false;
  // The hybrid dump already carries every virtual node's bounds in screen
  // coordinates (page bounds translated through the hosting WebView), so
  // resolving the id is a linear scan — no native findViewById analogue
  // exists for virtual nodes.
  const android::UiDump dump = wm->dumpTopWindow();
  for (const android::UiNode& node : dump) {
    if (!node.isVirtual || node.virtualId != virtualId) continue;
    cv::Detection det;
    det.box = node.boundsOnScreen;
    det.label = asUpo ? dataset::BoxLabel::kUpo : dataset::BoxLabel::kAgo;
    det.confidence = 1.0f;
    decorateDetections({det}, measureWindowOffset());
    return true;
  }
  return false;
}

void DarpaService::tryBypass(const std::vector<cv::Detection>& detections) {
  // Click the most confident UPO to dismiss the AUI on the user's behalf.
  const cv::Detection* bestUpo = nullptr;
  for (const cv::Detection& det : detections) {
    if (det.label != dataset::BoxLabel::kUpo) continue;
    if (bestUpo == nullptr || det.confidence > bestUpo->confidence) {
      bestUpo = &det;
    }
  }
  if (bestUpo == nullptr) return;
  const Millis now = looper() != nullptr ? looper()->now() : Millis{0};
  const bool repeat = iou(bestUpo->box, lastBypassBox_) > 0.8 &&
                      now - lastBypassAt_ < kBypassCooldown;
  if (repeat) return;
  // The cooldown covers attempts, not landed clicks: the dispatched gesture
  // itself raises touch events that re-trigger analysis, so an unconsumed
  // click retried every pass would spin the event loop forever.
  lastBypassBox_ = bestUpo->box;
  lastBypassAt_ = now;
  if (dispatchClick(bestUpo->box.center())) {
    ++stats_.bypassClicks;
    ledger_.recordBypass();
  }
}

Point DarpaService::measureWindowOffset() {
  // §IV-D: Android exposes no API for the app-window offset, so DARPA adds
  // an invisible 1x1 anchor view at window coordinates (0, 0) and reads its
  // location on screen.
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) return {0, 0};
  ++stats_.anchorMeasurements;
  auto anchor = std::make_unique<android::View>();
  anchor->setVisible(false);
  const int anchorId = wm->addOverlay(std::move(anchor), {0, 0, 1, 1});
  const auto location = wm->overlayLocationOnScreen(anchorId);
  wm->removeOverlay(anchorId);
  return location.value_or(Point{0, 0});
}

void DarpaService::decorateDetections(
    const std::vector<cv::Detection>& detections, Point windowOffset) {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) return;
  // Keep only the most confident detections of each class.
  std::vector<cv::Detection> selected(detections.begin(), detections.end());
  std::sort(selected.begin(), selected.end(),
            [](const cv::Detection& a, const cv::Detection& b) {
              return a.confidence > b.confidence;
            });
  int upoKept = 0;
  int agoKept = 0;
  std::vector<cv::Detection> toDraw;
  for (const cv::Detection& det : selected) {
    int& kept = det.label == dataset::BoxLabel::kUpo ? upoKept : agoKept;
    if (kept >= kMaxDecorationsPerClass) continue;
    ++kept;
    toDraw.push_back(det);
  }
  for (const cv::Detection& det : toDraw) {
    const bool isUpo = det.label == dataset::BoxLabel::kUpo;
    const Color color = isUpo ? config_.upoColor : config_.agoColor;
    auto view = std::make_unique<DecorationView>(
        color, kDecorationThickness,
        isUpo ? config_.upoStyle : config_.agoStyle);
    // Grow the box so the border ring sits around the option, then convert
    // screen -> window coordinates with the measured offset (Fig. 6).
    const Rect target = det.box.inflated(kDecorationThickness + 1);
    android::LayoutParams lp;
    lp.x = target.x - windowOffset.x;
    lp.y = target.y - windowOffset.y;
    lp.width = target.width;
    lp.height = target.height;
    lp.type = android::LayoutParams::Type::kAccessibilityOverlay;
    decorationOverlayIds_.push_back(wm->addOverlay(std::move(view), lp));
    ++stats_.decorationsDrawn;
    ledger_.recordDecoration();
  }
}

std::vector<Rect> DarpaService::decorationRects() const {
  std::vector<Rect> rects;
  const android::WindowManager* wm = windowManager();
  if (wm == nullptr) return rects;
  for (int id : decorationOverlayIds_) {
    if (const auto bounds = wm->overlayBoundsOnScreen(id)) {
      rects.push_back(*bounds);
    }
  }
  return rects;
}

void DarpaService::clearDecorations() {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) {
    decorationOverlayIds_.clear();
    return;
  }
  for (int id : decorationOverlayIds_) wm->removeOverlay(id);
  decorationOverlayIds_.clear();
}

}  // namespace darpa::core
