// Static AUI lint — rule-based analysis of layout trees, no pixels.
//
// The paper's run-time pipeline (§IV) only catches an asymmetric dark UI
// after a screenshot reaches the CV model. Owl Eyes and Nighthawk show that
// many UI defects are visible from structure alone; the same is true of the
// paper's AUI definition (§III): a user-preferred option that is tiny,
// corner-pinned, and low-contrast next to a dominant app-guided option is an
// *asymmetry of declared geometry and style*, all of which is present in the
// ADB-style hierarchy dump. This module walks a UiDump and emits structured
// diagnostics (rule id, severity, view path, bounding box), then merges them
// into an AUI verdict comparable to baselines::FraudDroidResult.
//
// Two consumers:
//  * DarpaService uses the verdict as an optional pre-filter: screens the
//    lint clears or flags *confidently* skip the screenshot + CV stage
//    entirely (a lint pass costs microseconds of modeled work; a CV pass
//    costs tens of CPU-milliseconds).
//  * examples/static_scan.cpp runs it as an offline market-scan mode over
//    app populations with no detector in the loop at all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "android/window_manager.h"
#include "util/color.h"
#include "util/geometry.h"

namespace darpa::analysis {

/// Diagnostic severity.
enum class Severity { kInfo = 0, kWarning = 1, kError = 2 };

[[nodiscard]] std::string_view severityName(Severity s);

/// One structured diagnostic emitted by a rule.
struct LintFinding {
  std::string ruleId;
  Severity severity = Severity::kInfo;
  std::string message;
  std::string viewPath;  ///< "View/View[2]/IconView"-style path to the node.
  int nodeIndex = -1;    ///< Index into the analyzed dump.
  Rect box;              ///< Screen coordinates of the offending view.
  double score = 0.0;    ///< Rule confidence in [0, 1].
  /// Set by aui-id-hint on CTA-vocabulary hits: the box is a suspected
  /// app-guided option rather than a dismiss one.
  bool appGuided = false;
};

/// Merged screen-level verdict, shaped like baselines::FraudDroidResult so
/// harnesses can score the two metadata detectors side by side.
struct LintVerdict {
  bool isAui = false;
  double score = 0.0;     ///< Merged AUI confidence in [0, 1].
  bool confident = false; ///< Score clear of the verdict margins; the
                          ///< runtime may short-circuit CV on this.
  std::vector<Rect> upoBoxes;  ///< Screen coords of suspected user options.
  std::vector<Rect> agoBoxes;  ///< Screen coords of suspected app options.
};

struct LintReport {
  std::vector<LintFinding> findings;
  LintVerdict verdict;
  int nodesVisited = 0;

  [[nodiscard]] bool has(std::string_view ruleId) const;
  /// Highest-scoring finding of a rule; nullptr when the rule didn't fire.
  [[nodiscard]] const LintFinding* best(std::string_view ruleId) const;
};

/// Dismiss-affordance geometry shared by the asymmetry rules: a clickable
/// is a dismiss candidate (close cross, "skip" strip) when its area is at
/// most kMaxDismissArea and its shorter side at most kMaxDismissMinSide...
inline constexpr std::int64_t kMaxDismissArea = 2600;
inline constexpr int kMaxDismissMinSide = 28;
/// ...and the dominant option is the largest clickable covering at least
/// this fraction of the window.
inline constexpr double kMinDominantAreaFrac = 0.02;

/// Pre-computed screen structure shared by every rule: hierarchy ranges
/// reconstructed from the pre-order dump, the modal scaffolding (scrim and
/// panel), and the clickable-option inventory the asymmetry rules compare.
class LintContext {
 public:
  LintContext(const android::UiDump& dump, Size screenSize);
  /// The context borrows the dump; a temporary would dangle immediately.
  LintContext(android::UiDump&& dump, Size screenSize) = delete;

  [[nodiscard]] const android::UiDump& dump() const { return *dump_; }
  [[nodiscard]] Size screenSize() const { return screenSize_; }
  /// Bounds of the window root (falls back to the screen when empty).
  [[nodiscard]] const Rect& windowRect() const { return windowRect_; }
  [[nodiscard]] const std::string& path(int i) const { return paths_[i]; }
  [[nodiscard]] int parent(int i) const { return parents_[i]; }
  /// Exclusive end of node i's pre-order subtree range.
  [[nodiscard]] int subtreeEnd(int i) const { return subtreeEnd_[i]; }
  [[nodiscard]] bool isDescendant(int node, int ancestor) const {
    return node > ancestor && node < subtreeEnd_[ancestor];
  }

  /// Modal scaffolding: a translucent full-window scrim and the opaque
  /// dialog panel above it. -1 when absent.
  [[nodiscard]] int scrimIndex() const { return scrimIndex_; }
  [[nodiscard]] int panelIndex() const { return panelIndex_; }
  /// Panel bounds; the window rect when no panel was identified.
  [[nodiscard]] const Rect& panelRect() const { return panelRect_; }
  [[nodiscard]] bool modal() const { return scrimIndex_ >= 0; }

  /// Indices of clickable nodes with non-empty bounds, in paint order.
  [[nodiscard]] const std::vector<int>& clickables() const {
    return clickables_;
  }
  /// Largest-area clickable covering >= kMinDominantAreaFrac of the window
  /// (the first in paint order on ties); -1 when none qualifies.
  [[nodiscard]] int dominantClickable() const { return dominant_; }
  /// Clickables sized like dismiss affordances, in paint order.
  [[nodiscard]] const std::vector<int>& dismissCandidates() const {
    return dismiss_;
  }
  /// Whether the screen offers two comparably prominent clickable options —
  /// the paper's footnote-4 symmetric dialog that must NOT count as AUI.
  [[nodiscard]] bool symmetricPair() const { return symmetricPair_; }

  /// Declared background color composited down the ancestor chain at node i
  /// (each ancestor's background source-over blended, weighted by alpha).
  [[nodiscard]] Color effectiveBackdrop(int i) const;

 private:
  const android::UiDump* dump_;
  Size screenSize_;
  Rect windowRect_;
  std::vector<int> parents_;
  std::vector<int> subtreeEnd_;
  std::vector<std::string> paths_;
  std::vector<int> clickables_;
  int dominant_ = -1;
  std::vector<int> dismiss_;
  int scrimIndex_ = -1;
  int panelIndex_ = -1;
  Rect panelRect_;
  bool symmetricPair_ = false;
};

/// A lint rule: inspects the context and appends findings. Rules are
/// independent and stateless; the engine owns the merge into a verdict.
class LintRule {
 public:
  virtual ~LintRule() = default;
  [[nodiscard]] virtual std::string_view id() const = 0;
  virtual void run(const LintContext& ctx,
                   std::vector<LintFinding>& out) const = 0;
};

// --------------------------------------------------------------- rules

/// "aui-size-asymmetry": a tiny dismiss-sized clickable coexists with a
/// dominant clickable surface (the dominant CTA / whole-creative ad).
class SizeAsymmetryRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "aui-size-asymmetry";
  }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

/// "aui-corner-upo": the suspected user-preferred option hugs a corner or
/// edge of the modal panel while a dominant option sits centrally (§III-A:
/// 73.1 % of UPOs are corner-pinned, 94.6 % of AGOs central).
class CornerPlacementRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "aui-corner-upo";
  }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

/// "aui-contrast-asymmetry": from declared colors alone, the app-guided
/// option is visually loud (high contrast against its surround) while the
/// dismiss option is muted or nearly transparent (ghost UPOs, §VI-B).
class ContrastAsymmetryRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "aui-contrast-asymmetry";
  }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

/// "touch-target": clickable view smaller than the Android accessibility
/// minimum (48 dp equivalent). A hygiene rule, always a warning; the
/// sub-48dp escape option is one of the paper's recurring AUI traits.
class TouchTargetRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override { return "touch-target"; }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

/// "hidden-clickable": a clickable view rendered off-screen or fully
/// occluded by a later-painted opaque sibling — Nighthawk-style display
/// issues that make an escape option unusable while still technically
/// present in the hierarchy.
class HiddenClickableRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "hidden-clickable";
  }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

/// "aui-id-hint": FraudDroid's resource-id vocabulary (small clickable with
/// a dismiss token, prominent view with a CTA token). Always info severity:
/// obfuscation starves it (§VI-C), so it corroborates the structural rules
/// rather than deciding on its own. Virtual (WebView) nodes never carry
/// resource ids, so their page-global ids and visible labels are matched
/// against the same vocabularies at reduced confidence.
class IdTokenRule : public LintRule {
 public:
  [[nodiscard]] std::string_view id() const override { return "aui-id-hint"; }
  void run(const LintContext& ctx,
           std::vector<LintFinding>& out) const override;
};

// -------------------------------------------------------------- engine

class LintEngine {
 public:
  /// Registers a rule; run() applies them in registration order.
  void addRule(std::unique_ptr<LintRule> rule);
  [[nodiscard]] std::size_t ruleCount() const { return rules_.size(); }

  /// Runs every rule over one dump and merges findings into a verdict.
  [[nodiscard]] LintReport run(const android::UiDump& dump,
                               Size screenSize) const;

  /// Engine with the six built-in rules registered.
  [[nodiscard]] static LintEngine withDefaultRules();

 private:
  std::vector<std::unique_ptr<LintRule>> rules_;
};

}  // namespace darpa::analysis
