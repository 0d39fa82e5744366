// A simulated Android view system.
//
// Mirrors the subset of android.view.* that DARPA interacts with: a View
// tree with per-view bounds, background, alpha, visibility, clickability and
// resource ids; TextView/Button/ImageView/IconView concrete classes; and
// software drawing into a gfx::Canvas. Resource ids matter because the
// FraudDroid-like baseline (src/baselines) keys off them, and the app
// generator obfuscates them exactly the way real apps defeat string-based
// detection (§VI-C of the paper).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gfx/canvas.h"
#include "util/color.h"
#include "util/geometry.h"

namespace darpa::android {

/// Glyph shapes an IconView can render.
enum class IconGlyph { kCross, kCircle, kRing, kArrow, kChevron, kStar };

class WebView;

/// What the hierarchy dump reads from a view beyond the attributes every
/// View has: its text, its content (text/glyph) color, and the page a
/// WebView hosts. `text` borrows the view's own storage.
struct ViewContent {
  std::string_view text;
  Color contentColor = colors::kTransparent;
  bool hasContentColor = false;  ///< True for TextView/IconView.
  const WebView* page = nullptr;  ///< The view itself, for a loaded WebView.
};

class View {
 public:
  View() = default;
  virtual ~View() = default;
  View(const View&) = delete;
  View& operator=(const View&) = delete;

  // --- identity -----------------------------------------------------------
  /// SDK-style class name, used by the UI-hierarchy dump (ADB-like metadata
  /// consumed by the FraudDroid baseline).
  [[nodiscard]] virtual std::string_view className() const { return "View"; }
  [[nodiscard]] int id() const { return id_; }
  void setId(int id) { id_ = id; }
  /// Android-style resource entry name, e.g. "btn_close". Empty when the app
  /// obfuscated or dynamically generated it.
  [[nodiscard]] const std::string& resourceId() const { return resourceId_; }
  void setResourceId(std::string rid) { resourceId_ = std::move(rid); }
  /// Subclass content the hierarchy dump records (none for a plain View).
  [[nodiscard]] virtual ViewContent dumpContent() const { return {}; }

  // --- geometry -----------------------------------------------------------
  /// Frame relative to the parent view (or the window for the root).
  [[nodiscard]] const Rect& frame() const { return frame_; }
  void setFrame(const Rect& f) { frame_ = f; }

  // --- appearance ---------------------------------------------------------
  [[nodiscard]] Color background() const { return background_; }
  void setBackground(Color c) { background_ = c; }
  [[nodiscard]] int cornerRadius() const { return cornerRadius_; }
  void setCornerRadius(int r) { cornerRadius_ = r; }
  /// View alpha in [0, 1]; multiplies into children (Android semantics).
  [[nodiscard]] double alpha() const { return alpha_; }
  /// Clamps into [0, 1]; NaN fails closed to 0 (fully transparent).
  void setAlpha(double a) { alpha_ = a > 0 ? (a > 1 ? 1 : a) : 0; }
  [[nodiscard]] bool visible() const { return visible_; }
  void setVisible(bool v) { visible_ = v; }

  // --- interaction --------------------------------------------------------
  [[nodiscard]] bool clickable() const { return clickable_; }
  void setClickable(bool c) { clickable_ = c; }
  void setOnClick(std::function<void()> handler) {
    onClick_ = std::move(handler);
    clickable_ = true;
  }
  /// Invokes the click handler if any; returns whether one ran.
  bool performClick();

  // --- tree ---------------------------------------------------------------
  /// Appends a child and returns a non-owning pointer to it.
  View* addChild(std::unique_ptr<View> child);
  [[nodiscard]] std::span<const std::unique_ptr<View>> children() const {
    return children_;
  }
  [[nodiscard]] View* parent() const { return parent_; }
  void removeAllChildren() { children_.clear(); }

  /// Depth-first search by view id; nullptr when absent.
  [[nodiscard]] View* findViewById(int id);
  /// Depth-first search by resource id; nullptr when absent.
  [[nodiscard]] View* findViewByResourceId(std::string_view rid);

  /// Frame origin relative to the root of this view tree.
  [[nodiscard]] Point positionInRoot() const;

  /// Deepest visible clickable descendant containing `p` (coordinates
  /// relative to this view's frame origin); nullptr when none. Later
  /// siblings are on top (Android child z-order). Virtual so views hosting
  /// non-View content (WebView's virtual accessibility tree) can consume
  /// hits on that content's behalf.
  [[nodiscard]] virtual View* hitTest(Point p);

  /// Number of views in this subtree, including this one.
  [[nodiscard]] int subtreeSize() const;

  /// Paints this view and its children. `origin` is the absolute position of
  /// this view's frame; `parentAlpha` in [0,1] multiplies this view's alpha.
  void draw(gfx::Canvas& canvas, Point origin, double parentAlpha = 1.0) const;

 protected:
  /// Subclass content painting, after background and before children.
  /// `absRect` is the view's absolute rect; `effAlpha` the effective alpha.
  virtual void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                            double effAlpha) const;

  /// Applies effective alpha to a color.
  [[nodiscard]] static Color withEffAlpha(Color c, double effAlpha);

 private:
  int id_ = 0;
  std::string resourceId_;
  Rect frame_;
  Color background_ = colors::kTransparent;
  int cornerRadius_ = 0;
  double alpha_ = 1.0;
  bool visible_ = true;
  bool clickable_ = false;
  std::function<void()> onClick_;
  View* parent_ = nullptr;
  std::vector<std::unique_ptr<View>> children_;
};

/// A view that renders pseudo-text (see gfx::Canvas::drawPseudoText).
class TextView : public View {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "TextView";
  }
  [[nodiscard]] ViewContent dumpContent() const override {
    return {text_, textColor_, true};
  }
  [[nodiscard]] const std::string& text() const { return text_; }
  void setText(std::string t) { text_ = std::move(t); }
  [[nodiscard]] Color textColor() const { return textColor_; }
  void setTextColor(Color c) { textColor_ = c; }
  /// Dot cell size in pixels; glyphs are 3x5 cells.
  [[nodiscard]] int textCell() const { return textCell_; }
  void setTextCell(int cell) { textCell_ = cell > 0 ? cell : 1; }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  std::string text_;
  Color textColor_ = colors::kBlack;
  int textCell_ = 2;
};

/// A TextView with button chrome (rounded filled background by default).
class Button : public TextView {
 public:
  [[nodiscard]] std::string_view className() const override { return "Button"; }
  Button() {
    setClickable(true);
    setCornerRadius(6);
  }
};

/// A view that renders procedural "imagery" (gradient + shapes), standing in
/// for ad creatives and promo art. The pattern is derived from a seed so two
/// ImageViews with the same seed render identically.
class ImageView : public View {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "ImageView";
  }
  [[nodiscard]] std::uint64_t patternSeed() const { return patternSeed_; }
  void setPatternSeed(std::uint64_t seed) { patternSeed_ = seed; }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  std::uint64_t patternSeed_ = 0;
};

/// A small glyph view (close crosses, chevrons, stars...).
class IconView : public View {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "IconView";
  }
  [[nodiscard]] ViewContent dumpContent() const override {
    return {{}, glyphColor_, true};
  }
  [[nodiscard]] IconGlyph glyph() const { return glyph_; }
  void setGlyph(IconGlyph g) { glyph_ = g; }
  [[nodiscard]] Color glyphColor() const { return glyphColor_; }
  void setGlyphColor(Color c) { glyphColor_ = c; }
  [[nodiscard]] int thickness() const { return thickness_; }
  void setThickness(int t) { thickness_ = t > 0 ? t : 1; }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  IconGlyph glyph_ = IconGlyph::kCross;
  Color glyphColor_ = colors::kBlack;
  int thickness_ = 2;
};

}  // namespace darpa::android
