// Run-time view decoration (§IV-D).
//
// DecorationView is the overlay drawn around a detected AUI option: a thick
// high-contrast border (plus a translucent halo) that the WindowManager
// composites above every app window. It is deliberately not clickable so
// touches pass through to the option underneath.
#pragma once

#include "android/view.h"

namespace darpa::core {

/// Border width (px) of every decoration ring DARPA draws.
inline constexpr int kDecorationThickness = 3;

/// Decoration shapes (the paper lets users customize shape and color).
enum class DecorationStyle {
  kRect,     ///< Rectangular border ring (default).
  kRounded,  ///< Rounded-corner ring.
  kCircle,   ///< Circular ring (fits round close buttons).
  kCorners,  ///< Corner brackets only (least occluding).
};

class DecorationView : public android::View {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "DarpaDecorationView";
  }

  DecorationView(Color borderColor, int thickness,
                 DecorationStyle style = DecorationStyle::kRect)
      : borderColor_(borderColor), thickness_(thickness), style_(style) {
    setClickable(false);
  }

  [[nodiscard]] Color borderColor() const { return borderColor_; }
  [[nodiscard]] int thickness() const { return thickness_; }
  [[nodiscard]] DecorationStyle style() const { return style_; }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  Color borderColor_;
  int thickness_;
  DecorationStyle style_;
};

}  // namespace darpa::core
