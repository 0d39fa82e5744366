#include "gfx/canvas.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace darpa::gfx {

namespace {
// Every filler below paints row spans through Bitmap::blendSpan. A shape's
// extent on row y comes from its distance test solved for x: dx^2 <= q
// holds exactly for |dx| <= isqrt(q), so the spans cover the very pixels a
// per-pixel test would.

/// Half-open column range [x0, x1); empty when x0 >= x1.
struct Span {
  int x0 = 0;
  int x1 = 0;
};

/// floor(sqrt(q)) for q >= 0; the loops correct the double's rounding.
int isqrt(int q) {
  int e = static_cast<int>(std::sqrt(static_cast<double>(q)));
  while (e * e > q) --e;
  while ((e + 1) * (e + 1) <= q) ++e;
  return e;
}

/// The nearest corner-disc centre coordinate, min(max(v, lo), hi). A side
/// of exactly 2·radius makes lo = hi + 1, where std::clamp's precondition
/// fails; min/max then pins the centre to hi for every v. That asymmetric
/// pill is what every screenshot (and so the trained model) was rendered
/// with, so it is kept, spelled out.
int discCentre(int v, int lo, int hi) { return std::min(std::max(v, lo), hi); }

/// Columns of row y (within r's rows) inside the rounded rect (r, radius):
/// the pixels whose distance to discCentre(x, y) is at most radius. That is
/// [lo - e, hi + e] when lo <= hi and [hi - e, hi + e] for a pinned centre.
Span roundedRowSpan(const Rect& r, int radius, int y) {
  const int dy = y - discCentre(y, r.y + radius, r.bottom() - 1 - radius);
  const int q = radius * radius - dy * dy;
  if (q < 0) return {};
  const int e = isqrt(q);
  const int lo = r.x + radius;
  const int hi = r.right() - 1 - radius;
  return {std::max(std::min(lo, hi) - e, r.x), std::min(hi + e + 1, r.right())};
}

/// Paints [s.x0, s.x1) of row y clipped to the bitmap's columns; y must be
/// a row of the bitmap.
void paintSpan(Bitmap& target, int y, Span s, Color c) {
  const int x0 = std::max(s.x0, 0);
  const int x1 = std::min(s.x1, target.width());
  if (x0 < x1) target.blendSpan(y, x0, x1, c);
}

/// Paints `outer` minus `hole` on row y: up to two spans.
void paintRing(Bitmap& target, int y, Span outer, Span hole, Color c) {
  if (hole.x0 >= hole.x1) {
    paintSpan(target, y, outer, c);
    return;
  }
  paintSpan(target, y, {outer.x0, std::min(outer.x1, hole.x0)}, c);
  paintSpan(target, y, {std::max(outer.x0, hole.x1), outer.x1}, c);
}
}  // namespace

void Canvas::fillRect(const Rect& r, Color c) {
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    target_->blendSpan(y, clipped.left(), clipped.right(), c);
  }
}

void Canvas::strokeRect(const Rect& r, Color c, int thickness) {
  thickness = std::clamp(thickness, 1, std::max(1, std::min(r.width, r.height) / 2));
  fillRect({r.x, r.y, r.width, thickness}, c);                              // top
  fillRect({r.x, r.bottom() - thickness, r.width, thickness}, c);           // bottom
  fillRect({r.x, r.y + thickness, thickness, r.height - 2 * thickness}, c); // left
  fillRect({r.right() - thickness, r.y + thickness, thickness,
            r.height - 2 * thickness},
           c);                                                              // right
}

void Canvas::fillRoundedRect(const Rect& r, Color c, int radius) {
  if (r.empty()) return;  // paints nothing; also keeps std::clamp's hi >= 0
  radius = std::clamp(radius, 0, std::min(r.width, r.height) / 2);
  if (radius == 0) {
    fillRect(r, c);
    return;
  }
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    paintSpan(*target_, y, roundedRowSpan(r, radius, y), c);
  }
}

void Canvas::strokeRoundedRect(const Rect& r, Color c, int radius,
                               int thickness) {
  if (r.empty()) return;  // paints nothing; also keeps std::clamp's hi >= 0
  radius = std::clamp(radius, 0, std::min(r.width, r.height) / 2);
  thickness = std::max(thickness, 1);
  const Rect inner = r.inflated(-thickness);
  const int innerRadius = std::max(radius - thickness, 0);
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const Span hole = !inner.empty() && y >= inner.top() && y < inner.bottom()
                          ? roundedRowSpan(inner, innerRadius, y)
                          : Span{};
    paintRing(*target_, y, roundedRowSpan(r, radius, y), hole, c);
  }
}

void Canvas::fillCircle(Point center, int radius, Color c) {
  // A disc is the (2·radius + 1)-square rounded rect whose four corner
  // discs share one centre.
  fillRoundedRect({center.x - radius, center.y - radius, 2 * radius + 1,
                   2 * radius + 1},
                  c, radius);
}

void Canvas::strokeCircle(Point center, int radius, Color c, int thickness) {
  const int inner = std::max(radius - thickness, 0);
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const int dy = y - center.y;
    const int e = isqrt(radius * radius - dy * dy);
    // The hole is d^2 < inner^2, i.e. dx^2 <= inner^2 - dy^2 - 1.
    const int qHole = inner * inner - dy * dy - 1;
    const int eHole = qHole >= 0 ? isqrt(qHole) : -1;
    paintRing(*target_, y, {center.x - e, center.x + e + 1},
              {center.x - eHole, center.x + eHole + 1}, c);
  }
}

void Canvas::fillVerticalGradient(const Rect& r, Color top, Color bottom) {
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const double t =
        r.height <= 1 ? 0.0 : static_cast<double>(y - r.y) / (r.height - 1);
    target_->blendSpan(y, clipped.left(), clipped.right(), lerp(top, bottom, t));
  }
}

void Canvas::drawLine(Point a, Point b, Color c) {
  int x0 = a.x, y0 = a.y;
  const int dx = std::abs(b.x - x0), sx = x0 < b.x ? 1 : -1;
  const int dy = -std::abs(b.y - y0), sy = y0 < b.y ? 1 : -1;
  int err = dx + dy;
  while (true) {
    target_->blendPixel(x0, y0, c);
    if (x0 == b.x && y0 == b.y) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

void Canvas::drawCross(const Rect& r, Color c, int thickness) {
  const int inset = std::max(std::min(r.width, r.height) / 5, 1);
  const Point tl{r.x + inset, r.y + inset};
  const Point br{r.right() - 1 - inset, r.bottom() - 1 - inset};
  const Point tr{r.right() - 1 - inset, r.y + inset};
  const Point bl{r.x + inset, r.bottom() - 1 - inset};
  for (int t = 0; t < thickness; ++t) {
    drawLine({tl.x + t, tl.y}, {br.x, br.y - t}, c);
    drawLine({tl.x, tl.y + t}, {br.x - t, br.y}, c);
    drawLine({tr.x - t, tr.y}, {bl.x, bl.y - t}, c);
    drawLine({tr.x, tr.y + t}, {bl.x + t, bl.y}, c);
  }
}

namespace {
// Deterministic 3x5 dot pattern per character. Mixing the char code through
// an integer hash yields a stable 15-bit mask; we force a minimum number of
// set dots so every glyph has visible ink.
std::uint16_t glyphMask(char ch) {
  std::uint32_t h = static_cast<std::uint32_t>(static_cast<unsigned char>(ch));
  h ^= h << 13;
  h *= 0x9e3779b1u;
  h ^= h >> 15;
  std::uint16_t mask = static_cast<std::uint16_t>(h & 0x7fff);
  if (std::popcount(static_cast<unsigned>(mask)) < 5) mask |= 0x2955;
  return mask;
}
}  // namespace

Rect Canvas::drawPseudoText(Point origin, std::string_view text, Color c,
                            int cell) {
  cell = std::max(cell, 1);
  int x = origin.x;
  for (char ch : text) {
    if (ch == ' ') {
      x += 3 * cell;
      continue;
    }
    const std::uint16_t mask = glyphMask(ch);
    for (int row = 0; row < 5; ++row) {
      for (int col = 0; col < 3; ++col) {
        if (mask & (1u << (row * 3 + col))) {
          fillRect({x + col * cell, origin.y + row * cell, cell, cell}, c);
        }
      }
    }
    x += 4 * cell;
  }
  return {origin.x, origin.y, x - origin.x, 5 * cell};
}

int Canvas::pseudoTextWidth(std::string_view text, int cell) {
  cell = std::max(cell, 1);
  int w = 0;
  for (char ch : text) w += (ch == ' ' ? 3 : 4) * cell;
  return w;
}

void Canvas::drawBitmap(const Bitmap& src, Point origin,
                        std::uint8_t layerAlpha) {
  if (layerAlpha == 0) return;
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      Color c = src.at(x, y);
      if (layerAlpha != 255) {
        c.a = static_cast<std::uint8_t>(c.a * layerAlpha / 255);
      }
      if (c.a == 0) continue;
      target_->blendPixel(origin.x + x, origin.y + y, c);
    }
  }
}

}  // namespace darpa::gfx
