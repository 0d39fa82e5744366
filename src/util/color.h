// RGBA color with the perceptual helpers the AUI analysis needs:
// relative luminance and WCAG contrast ratio. AUIs work by giving the
// app-guided option high contrast against the background and the
// user-preferred option low contrast, so contrast math is a first-class
// citizen of this codebase.
#pragma once

#include <cstdint>
#include <ostream>

namespace darpa {

struct Color {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  std::uint8_t a = 255;

  friend bool operator==(const Color&, const Color&) = default;

  [[nodiscard]] static constexpr Color rgb(std::uint8_t r, std::uint8_t g,
                                           std::uint8_t b) {
    return {r, g, b, 255};
  }
  [[nodiscard]] static constexpr Color rgba(std::uint8_t r, std::uint8_t g,
                                            std::uint8_t b, std::uint8_t a) {
    return {r, g, b, a};
  }

  /// Color with the same RGB and a replaced alpha.
  [[nodiscard]] constexpr Color withAlpha(std::uint8_t alpha) const {
    return {r, g, b, alpha};
  }

  /// Packs to 0xAARRGGBB (the Android int-color convention).
  [[nodiscard]] constexpr std::uint32_t toArgb() const {
    return (static_cast<std::uint32_t>(a) << 24) |
           (static_cast<std::uint32_t>(r) << 16) |
           (static_cast<std::uint32_t>(g) << 8) | b;
  }
  [[nodiscard]] static constexpr Color fromArgb(std::uint32_t argb) {
    return {static_cast<std::uint8_t>((argb >> 16) & 0xff),
            static_cast<std::uint8_t>((argb >> 8) & 0xff),
            static_cast<std::uint8_t>(argb & 0xff),
            static_cast<std::uint8_t>((argb >> 24) & 0xff)};
  }
};

std::ostream& operator<<(std::ostream& os, const Color& c);

namespace colors {
inline constexpr Color kBlack = Color::rgb(0, 0, 0);
inline constexpr Color kWhite = Color::rgb(255, 255, 255);
inline constexpr Color kRed = Color::rgb(220, 30, 30);
inline constexpr Color kGreen = Color::rgb(30, 180, 60);
inline constexpr Color kBlue = Color::rgb(40, 90, 220);
inline constexpr Color kYellow = Color::rgb(250, 210, 40);
inline constexpr Color kOrange = Color::rgb(250, 140, 30);
inline constexpr Color kGray = Color::rgb(128, 128, 128);
inline constexpr Color kLightGray = Color::rgb(200, 200, 200);
inline constexpr Color kTransparent = Color::rgba(0, 0, 0, 0);
}  // namespace colors

/// Source-over alpha blend of `src` onto opaque-ish `dst`. An opaque `dst`
/// (the screenshot case) takes an exact shortcut with the same result.
[[nodiscard]] Color blend(Color dst, Color src);

/// Relative luminance per WCAG (sRGB linearization), in [0, 1].
[[nodiscard]] double relativeLuminance(Color c);

/// WCAG contrast ratio between two colors, in [1, 21].
[[nodiscard]] double contrastRatio(Color a, Color b);

/// Linear interpolation between two colors, t in [0, 1].
[[nodiscard]] Color lerp(Color a, Color b, double t);

/// Perceptual grayscale value (ITU-R BT.601 luma) in [0, 255].
[[nodiscard]] double luma(Color c);

/// A color with maximal contrast against `background` (black or white, or a
/// saturated accent when both are mid-gray). Used by the decoration module to
/// pick a highlight color that stands out from the AUI it decorates.
[[nodiscard]] Color highContrastAgainst(Color background);

}  // namespace darpa
