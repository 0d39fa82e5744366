#include "util/color.h"

#include <algorithm>
#include <cmath>

namespace darpa {

std::ostream& operator<<(std::ostream& os, const Color& c) {
  return os << "Color{" << int{c.r} << "," << int{c.g} << "," << int{c.b}
            << "," << int{c.a} << "}";
}

Color blend(Color dst, Color src) {
  if (src.a == 255) return src;
  if (src.a == 0) return dst;
  const int sa = src.a;
  const int da = dst.a;
  if (da == 255) {
    // Opaque destination: outA is 255, and the general quotient
    // (255·X) / 65025 below equals X / 255 exactly, so one constant divide
    // per channel gives the identical result.
    const int inv = 255 - sa;
    return {static_cast<std::uint8_t>((src.r * sa + dst.r * inv) / 255),
            static_cast<std::uint8_t>((src.g * sa + dst.g * inv) / 255),
            static_cast<std::uint8_t>((src.b * sa + dst.b * inv) / 255), 255};
  }
  const int outA = sa + da * (255 - sa) / 255;
  if (outA == 0) return colors::kTransparent;
  auto channel = [&](int s, int d) {
    const int num = s * sa * 255 + d * da * (255 - sa);
    return static_cast<std::uint8_t>(
        std::clamp(num / (outA * 255), 0, 255));
  };
  return {channel(src.r, dst.r), channel(src.g, dst.g), channel(src.b, dst.b),
          static_cast<std::uint8_t>(outA)};
}

namespace {
double linearize(std::uint8_t channel) {
  const double c = channel / 255.0;
  return c <= 0.04045 ? c / 12.92 : std::pow((c + 0.055) / 1.055, 2.4);
}
}  // namespace

double relativeLuminance(Color c) {
  return 0.2126 * linearize(c.r) + 0.7152 * linearize(c.g) +
         0.0722 * linearize(c.b);
}

double contrastRatio(Color a, Color b) {
  const double la = relativeLuminance(a);
  const double lb = relativeLuminance(b);
  const double lighter = std::max(la, lb);
  const double darker = std::min(la, lb);
  return (lighter + 0.05) / (darker + 0.05);
}

Color lerp(Color a, Color b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  auto mix = [t](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(std::lround(x + (y - x) * t));
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b), mix(a.a, b.a)};
}

double luma(Color c) { return 0.299 * c.r + 0.587 * c.g + 0.114 * c.b; }

Color highContrastAgainst(Color background) {
  const double cWhite = contrastRatio(background, colors::kWhite);
  const double cBlack = contrastRatio(background, colors::kBlack);
  // Mid-gray backgrounds contrast poorly with both extremes; a saturated
  // accent reads better there than either black or white.
  if (std::max(cWhite, cBlack) < 5.0) return colors::kRed;
  return cWhite >= cBlack ? colors::kWhite : colors::kBlack;
}

}  // namespace darpa
