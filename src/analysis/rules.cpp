// The built-in lint rules. Each inspects the shared LintContext and appends
// structured findings; each rule's thresholds are the named constants
// below, and the geometry the asymmetry rules share lives in lint.h.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>

#include "analysis/lint.h"
#include "baselines/frauddroid.h"

namespace darpa::analysis {

namespace {

// aui-size-asymmetry: the dominant-to-dismiss area ratio that starts a
// finding, and the ratio at which its score saturates to 1.
constexpr double kMinAreaRatio = 10.0;
constexpr double kAreaSaturationRatio = 40.0;

// aui-corner-upo: how close (px) to a panel corner/edge counts as pinned.
constexpr int kCornerMargin = 14;

// aui-contrast-asymmetry: the AGO-to-UPO perceived-contrast ratio that
// starts a finding and the one that saturates it; below kGhostAlpha a
// dismiss option is a "ghost" on its own.
constexpr double kMinProminenceRatio = 1.35;
constexpr double kProminenceSaturationRatio = 3.5;
constexpr double kGhostAlpha = 0.45;

// touch-target: a warning below kMinTouchSidePx, scoring 1 below
// kCriticalTouchSidePx.
constexpr int kMinTouchSidePx = 48;
constexpr int kCriticalTouchSidePx = 24;

// hidden-clickable: the off-screen fraction that reports, and the
// effective alpha below which an occluder doesn't hide what's beneath.
constexpr double kMinOffscreenFrac = 0.5;
constexpr double kMinOccluderAlpha = 0.95;

// aui-id-hint: FraudDroid's UPO size cap as an area, and the scale applied
// to virtual-node evidence (web ids are minified, duplicated and
// page-controlled, so weaker than native resource ids).
constexpr std::int64_t kIdHintMaxDismissArea =
    static_cast<std::int64_t>(baselines::kMaxUpoSide) * baselines::kMaxUpoSide;
constexpr double kVirtualEvidenceScale = 0.6;

LintFinding makeFinding(const LintContext& ctx, const LintRule& rule, int node,
                        Severity severity, double score, std::string message,
                        bool appGuided = false) {
  LintFinding finding;
  finding.ruleId = std::string(rule.id());
  finding.severity = severity;
  finding.score = std::clamp(score, 0.0, 1.0);
  finding.message = std::move(message);
  finding.nodeIndex = node;
  finding.viewPath = ctx.path(node);
  finding.box = ctx.dump()[node].boundsOnScreen;
  finding.appGuided = appGuided;
  return finding;
}

std::string describeBox(const Rect& b) {
  return std::to_string(b.width) + "x" + std::to_string(b.height);
}

/// Perceived contrast of a node's declared ink: the stronger of glyph/text
/// against its plate and plate against the composited surround, faded by the
/// effective alpha (an option at alpha 0.2 reads at a fifth of its nominal
/// contrast).
double perceivedContrast(const LintContext& ctx, int node) {
  const android::UiNode& n = ctx.dump()[node];
  const Color surround = ctx.effectiveBackdrop(node);
  const Color plate =
      n.background.a > 0 ? blend(surround, n.background) : surround;
  double contrast = contrastRatio(plate, surround);
  if (n.hasContentColor) {
    contrast = std::max(contrast, contrastRatio(n.contentColor, plate));
  }
  return 1.0 + (contrast - 1.0) * n.effAlpha;
}

}  // namespace

void SizeAsymmetryRule::run(const LintContext& ctx,
                            std::vector<LintFinding>& out) const {
  const int dominant = ctx.dominantClickable();
  if (dominant < 0) return;
  const android::UiNode& big = ctx.dump()[dominant];
  const double dominantFrac =
      static_cast<double>(big.boundsOnScreen.area()) /
      static_cast<double>(std::max<std::int64_t>(1, ctx.windowRect().area()));

  for (int i : ctx.dismissCandidates()) {
    if (i == dominant) continue;
    const Rect& small = ctx.dump()[i].boundsOnScreen;
    const double ratio =
        static_cast<double>(big.boundsOnScreen.area()) /
        static_cast<double>(std::max<std::int64_t>(1, small.area()));
    if (ratio < kMinAreaRatio) continue;

    double score = std::min(1.0, ratio / kAreaSaturationRatio);
    Severity severity = ratio >= 2.5 * kMinAreaRatio
                            ? Severity::kError
                            : Severity::kWarning;
    if (ctx.symmetricPair()) {
      // The screen also offers two comparable options: the tiny control is
      // an ordinary close button on a symmetric dialog, not the only exit.
      severity = Severity::kInfo;
      score *= 0.25;
    } else if (!ctx.modal() && dominantFrac < 0.2) {
      // Outside a modal and without a screen-dominating surface this is a
      // banner-with-close shape, suspicious but not popup-shaped.
      severity = Severity::kWarning;
      score *= 0.5;
    }
    out.push_back(makeFinding(
        ctx, *this, i, severity, score,
        "clickable " + describeBox(small) + " is " +
            std::to_string(static_cast<int>(ratio)) +
            "x smaller than the dominant option (" +
            describeBox(big.boundsOnScreen) + ")"));
  }
}

void CornerPlacementRule::run(const LintContext& ctx,
                              std::vector<LintFinding>& out) const {
  if (ctx.dominantClickable() < 0) return;
  const Rect& panel = ctx.panelRect();

  for (int i : ctx.dismissCandidates()) {
    const Rect& b = ctx.dump()[i].boundsOnScreen;
    const bool nearX = std::min(std::abs(b.left() - panel.left()),
                                std::abs(b.right() - panel.right())) <=
                       kCornerMargin;
    const bool nearY = std::min(std::abs(b.top() - panel.top()),
                                std::abs(b.bottom() - panel.bottom())) <=
                       kCornerMargin;
    // UPOs also float centered just below the panel (§III-A layouts).
    const bool belowPanel = b.top() >= panel.bottom() &&
                            b.top() - panel.bottom() <= 2 * kCornerMargin;
    double score = 0.0;
    const char* placement = nullptr;
    if (nearX && nearY) {
      score = 1.0;
      placement = "corner";
    } else if (nearX || nearY || belowPanel) {
      score = 0.65;
      placement = "edge";
    } else {
      continue;
    }
    if (!ctx.modal()) score *= 0.6;
    Severity severity = nearX && nearY && ctx.modal() ? Severity::kError
                                                      : Severity::kWarning;
    if (ctx.symmetricPair()) {
      severity = Severity::kInfo;
      score *= 0.4;
    }
    out.push_back(makeFinding(
        ctx, *this, i, severity, score,
        std::string("small dismiss option pinned to the ") + placement +
            " of the " + (ctx.panelIndex() >= 0 ? "dialog panel" : "window") +
            " while a dominant option sits inside"));
  }
}

void ContrastAsymmetryRule::run(const LintContext& ctx,
                                std::vector<LintFinding>& out) const {
  // The loud side: the most prominent declared styling among large
  // clickables (the dominant surface itself may be an image with no declared
  // colors — a CTA button next to it still sets the loudness bar).
  const double minArea =
      kMinDominantAreaFrac * static_cast<double>(ctx.windowRect().area());
  double loudest = 0.0;
  bool haveLoud = false;
  for (int i : ctx.clickables()) {
    const android::UiNode& n = ctx.dump()[i];
    if (static_cast<double>(n.boundsOnScreen.area()) < minArea) continue;
    if (n.background.a == 0 && !n.hasContentColor) continue;
    loudest = std::max(loudest, perceivedContrast(ctx, i));
    haveLoud = true;
  }

  for (int i : ctx.dismissCandidates()) {
    const android::UiNode& n = ctx.dump()[i];
    if (n.effAlpha < kGhostAlpha) {
      out.push_back(makeFinding(
          ctx, *this, i, Severity::kError, 1.0,
          "ghost dismiss option: effective alpha " +
              std::to_string(n.effAlpha).substr(0, 4) +
              " renders it nearly invisible"));
      continue;
    }
    if (!haveLoud) continue;
    const double muted = std::max(1.0, perceivedContrast(ctx, i));
    const double ratio = loudest / muted;
    if (ratio < kMinProminenceRatio) continue;
    double score = std::min(1.0, ratio / kProminenceSaturationRatio);
    if (ctx.symmetricPair()) score *= 0.5;
    const Severity severity = ratio >= 2.0 ? Severity::kError
                                           : Severity::kWarning;
    out.push_back(makeFinding(
        ctx, *this, i, severity, score,
        "declared contrast asymmetry: dismiss option reads at " +
            std::to_string(muted).substr(0, 4) + ":1 vs " +
            std::to_string(loudest).substr(0, 4) +
            ":1 for the app-guided option"));
  }
}

void TouchTargetRule::run(const LintContext& ctx,
                          std::vector<LintFinding>& out) const {
  for (int i : ctx.clickables()) {
    const Rect& b = ctx.dump()[i].boundsOnScreen;
    const int minSide = std::min(b.width, b.height);
    if (minSide >= kMinTouchSidePx) continue;
    constexpr double range = kMinTouchSidePx - kCriticalTouchSidePx;
    const double score =
        std::clamp((kMinTouchSidePx - minSide) / range, 0.0, 1.0);
    out.push_back(makeFinding(
        ctx, *this, i, Severity::kWarning, score,
        "touch target " + describeBox(b) + " is below the 48dp minimum"));
  }
}

void HiddenClickableRule::run(const LintContext& ctx,
                              std::vector<LintFinding>& out) const {
  const Rect screen{0, 0, ctx.screenSize().width, ctx.screenSize().height};
  const android::UiDump& dump = ctx.dump();
  for (int i : ctx.clickables()) {
    const Rect& b = dump[i].boundsOnScreen;
    const double visibleFrac =
        static_cast<double>(b.intersect(screen).area()) /
        static_cast<double>(std::max<std::int64_t>(1, b.area()));
    if (1.0 - visibleFrac >= kMinOffscreenFrac) {
      out.push_back(makeFinding(
          ctx, *this, i,
          visibleFrac <= 0.0 ? Severity::kError : Severity::kWarning,
          1.0 - visibleFrac,
          "clickable view is " +
              std::to_string(static_cast<int>((1.0 - visibleFrac) * 100)) +
              "% off-screen"));
      continue;
    }
    // Occlusion: any node painted after this view's subtree that covers it
    // with an opaque surface makes it unreachable (pre-order = paint order).
    for (int j = ctx.subtreeEnd(i); j < static_cast<int>(dump.size()); ++j) {
      const android::UiNode& over = dump[j];
      if (over.background.a != 255 || over.effAlpha < kMinOccluderAlpha) {
        continue;
      }
      if (!over.boundsOnScreen.contains(b)) continue;
      out.push_back(makeFinding(
          ctx, *this, i, Severity::kError, 1.0,
          "clickable view is fully occluded by " + ctx.path(j)));
      break;
    }
  }
}

void IdTokenRule::run(const LintContext& ctx,
                      std::vector<LintFinding>& out) const {
  using baselines::idMatchesAny;
  using baselines::kAgoIdTokens;
  using baselines::kUpoIdTokens;
  const double minAgoArea = baselines::kMinAgoAreaFrac *
                            static_cast<double>(ctx.windowRect().area());
  const android::UiDump& dump = ctx.dump();
  for (int i = 0; i < static_cast<int>(dump.size()); ++i) {
    const android::UiNode& node = dump[i];
    const Rect& b = node.boundsOnScreen;
    if (b.empty()) continue;
    if (!node.isVirtual) {
      if (node.resourceId.empty()) continue;
      if (node.clickable && b.area() <= kIdHintMaxDismissArea &&
          idMatchesAny(node.resourceId, kUpoIdTokens)) {
        out.push_back(makeFinding(
            ctx, *this, i, Severity::kInfo, 0.4,
            "dismiss-vocabulary resource id '" + node.resourceId + "'"));
      }
      if (static_cast<double>(b.area()) >= minAgoArea &&
          idMatchesAny(node.resourceId, kAgoIdTokens)) {
        out.push_back(makeFinding(
            ctx, *this, i, Severity::kInfo, 0.3,
            "CTA-vocabulary resource id '" + node.resourceId + "'",
            /*appGuided=*/true));
      }
      continue;
    }
    // Virtual (WebView) node: no resource id to match, ever. Degrade
    // gracefully to the page-global virtual id plus the visible label
    // (lowercased — web CTAs shout) at reduced confidence, instead of
    // silently passing over the whole subtree.
    std::string label = node.text;
    std::transform(label.begin(), label.end(), label.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    const bool upoEvidence = idMatchesAny(node.virtualId, kUpoIdTokens) ||
                             idMatchesAny(label, kUpoIdTokens);
    const bool agoEvidence = idMatchesAny(node.virtualId, kAgoIdTokens) ||
                             idMatchesAny(label, kAgoIdTokens);
    const std::string& name = node.virtualId.empty() ? label : node.virtualId;
    if (node.clickable && b.area() <= kIdHintMaxDismissArea && upoEvidence) {
      out.push_back(makeFinding(ctx, *this, i, Severity::kInfo,
                                0.4 * kVirtualEvidenceScale,
                                "dismiss-vocabulary virtual node '" + name +
                                    "'"));
    }
    if (static_cast<double>(b.area()) >= minAgoArea && agoEvidence) {
      out.push_back(makeFinding(ctx, *this, i, Severity::kInfo,
                                0.3 * kVirtualEvidenceScale,
                                "CTA-vocabulary virtual node '" + name + "'",
                                /*appGuided=*/true));
    }
  }
}

}  // namespace darpa::analysis
