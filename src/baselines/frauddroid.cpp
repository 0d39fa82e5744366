#include "baselines/frauddroid.h"

#include <algorithm>

namespace darpa::baselines {

bool idMatchesAny(std::string_view resourceId,
                  std::span<const std::string_view> tokens) {
  if (resourceId.empty()) return false;
  return std::any_of(tokens.begin(), tokens.end(), [&](std::string_view t) {
    return resourceId.find(t) != std::string_view::npos;
  });
}

namespace {

/// A clickable covering this fraction of the screen is a dominant surface.
constexpr double kDominantAreaFrac = 0.3;

/// Appends `b` unless an identical box is already flagged. Duplicate page
/// ids on co-located nodes (a real-web pattern the virtual dumps model)
/// would otherwise multiply one element into several matches.
void pushUniqueBox(std::vector<Rect>& boxes, const Rect& b) {
  if (std::find(boxes.begin(), boxes.end(), b) == boxes.end()) {
    boxes.push_back(b);
  }
}

}  // namespace

FraudDroidResult FraudDroidDetector::analyze(const android::UiDump& dump,
                                             Size screenSize) const {
  FraudDroidResult result;
  const double screenArea = static_cast<double>(screenSize.area());
  bool dominantClickable = false;

  for (const android::UiNode& node : dump) {
    const Rect& b = node.boundsOnScreen;
    if (b.empty()) continue;
    ++result.nodesSeen;
    if (!node.resourceId.empty()) ++result.nodesWithId;

    // UPO: id token match + small-size placement feature.
    if (node.clickable && idMatchesAny(node.resourceId, kUpoIdTokens) &&
        b.width <= kMaxUpoSide && b.height <= kMaxUpoSide) {
      pushUniqueBox(result.upoBoxes, b);
    }
    // AGO: id token match + prominent size.
    if (idMatchesAny(node.resourceId, kAgoIdTokens) &&
        static_cast<double>(b.area()) >= kMinAgoAreaFrac * screenArea) {
      pushUniqueBox(result.agoBoxes, b);
    }
    // Fallback placement feature: any clickable surface dominating the
    // screen (full-screen ad creatives) counts as app-guided.
    if (node.clickable &&
        static_cast<double>(b.area()) >= kDominantAreaFrac * screenArea) {
      dominantClickable = true;
    }
  }

  result.isAui =
      !result.upoBoxes.empty() && (!result.agoBoxes.empty() || dominantClickable);
  return result;
}

}  // namespace darpa::baselines
