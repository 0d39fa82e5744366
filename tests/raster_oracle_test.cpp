// Raster oracle: the span-rasterized Canvas fillers against per-pixel
// reference fillers, and blend()'s opaque-destination shortcut against the
// general source-over formula.
//
// The reference fillers below are the straightforward "test every pixel of
// the bounding box, blend the ones inside" loops; production paints row
// spans instead (gfx/canvas.cpp). The sweep is exhaustive over small shapes
// at every clipping position, so any off-by-one in a span extent shows up
// as a pixel difference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "gfx/bitmap.h"
#include "gfx/canvas.h"

namespace darpa::gfx {
namespace {

// ---- Reference implementations (per-pixel) --------------------------------

/// Source-over blend in its general form, no shortcuts.
Color referenceBlend(Color dst, Color src) {
  if (src.a == 255) return src;
  if (src.a == 0) return dst;
  const int sa = src.a;
  const int da = dst.a;
  const int outA = sa + da * (255 - sa) / 255;
  if (outA == 0) return colors::kTransparent;
  auto channel = [&](int s, int d) {
    const int num = s * sa * 255 + d * da * (255 - sa);
    return static_cast<std::uint8_t>(std::clamp(num / (outA * 255), 0, 255));
  };
  return {channel(src.r, dst.r), channel(src.g, dst.g), channel(src.b, dst.b),
          static_cast<std::uint8_t>(outA)};
}

void referencePixel(Bitmap& bmp, int x, int y, Color c) {
  if (x < 0 || y < 0 || x >= bmp.width() || y >= bmp.height()) return;
  bmp.set(x, y, referenceBlend(bmp.at(x, y), c));
}

/// The corner-disc centre the rounded shapes are rendered with:
/// min(max(v, lo), hi), also when lo = hi + 1 (a side of exactly 2·radius).
int referenceCentre(int v, int lo, int hi) {
  return std::min(std::max(v, lo), hi);
}

bool referenceInsideRounded(const Rect& r, int radius, int x, int y) {
  if (!r.contains(Point{x, y})) return false;
  const int dx = x - referenceCentre(x, r.x + radius, r.right() - 1 - radius);
  const int dy = y - referenceCentre(y, r.y + radius, r.bottom() - 1 - radius);
  return dx * dx + dy * dy <= radius * radius;
}

void referenceFillRect(Bitmap& bmp, const Rect& r, Color c) {
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      referencePixel(bmp, x, y, c);
    }
  }
}

void referenceFillRoundedRect(Bitmap& bmp, const Rect& r, Color c,
                              int radius) {
  if (r.empty()) return;
  radius = std::clamp(radius, 0, std::min(r.width, r.height) / 2);
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      if (referenceInsideRounded(r, radius, x, y)) referencePixel(bmp, x, y, c);
    }
  }
}

void referenceStrokeRoundedRect(Bitmap& bmp, const Rect& r, Color c,
                                int radius, int thickness) {
  if (r.empty()) return;
  radius = std::clamp(radius, 0, std::min(r.width, r.height) / 2);
  thickness = std::max(thickness, 1);
  const Rect inner = r.inflated(-thickness);
  const int innerRadius = std::max(radius - thickness, 0);
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      if (referenceInsideRounded(r, radius, x, y) &&
          !(!inner.empty() &&
            referenceInsideRounded(inner, innerRadius, x, y))) {
        referencePixel(bmp, x, y, c);
      }
    }
  }
}

void referenceFillCircle(Bitmap& bmp, Point center, int radius, Color c) {
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const int dx = x - center.x;
      const int dy = y - center.y;
      if (dx * dx + dy * dy <= radius * radius) referencePixel(bmp, x, y, c);
    }
  }
}

void referenceStrokeCircle(Bitmap& bmp, Point center, int radius, Color c,
                           int thickness) {
  const int inner = std::max(radius - thickness, 0);
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const int dx = x - center.x;
      const int dy = y - center.y;
      const int d2 = dx * dx + dy * dy;
      if (d2 <= radius * radius && d2 >= inner * inner) {
        referencePixel(bmp, x, y, c);
      }
    }
  }
}

void referenceFillVerticalGradient(Bitmap& bmp, const Rect& r, Color top,
                                   Color bottom) {
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const double t =
        r.height <= 1 ? 0.0 : static_cast<double>(y - r.y) / (r.height - 1);
    const Color row = lerp(top, bottom, t);
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      referencePixel(bmp, x, y, row);
    }
  }
}

// ---- Sweep harness ---------------------------------------------------------

constexpr int kCanvas = 20;  // destination is kCanvas x kCanvas
constexpr int kMaxSide = 24;
constexpr int kMaxRadius = 13;
constexpr int kMaxThickness = 4;
constexpr std::uint8_t kAlphas[] = {0, 1, 128, 254, 255};

/// A deterministic textured destination. Opaque, or with alphas that
/// include 0, 255 and everything between.
Bitmap destination(bool opaque) {
  Bitmap bmp(kCanvas, kCanvas);
  std::uint32_t state = opaque ? 0x9e3779b9u : 0x7f4a7c15u;
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<std::uint8_t>(state >> 24);
  };
  for (int y = 0; y < kCanvas; ++y) {
    for (int x = 0; x < kCanvas; ++x) {
      const std::uint8_t r = next(), g = next(), b = next(), a = next();
      std::uint8_t alpha = 255;
      if (!opaque) alpha = (x + y) % 5 == 0 ? 0 : (x + y) % 5 == 1 ? 255 : a;
      bmp.set(x, y, {r, g, b, alpha});
    }
  }
  return bmp;
}

/// Origins that place a w x h shape inside the canvas and clipped off each
/// of its four edges.
std::vector<Point> origins(int w, int h) {
  return {{3, 2},
          {-(w / 2) - 1, 2},
          {3, -(h / 2) - 1},
          {kCanvas - w / 2, 4},
          {1, kCanvas - h / 2}};
}

class RasterOracle : public ::testing::Test {
 protected:
  /// Runs the span filler and the reference on copies of both destination
  /// kinds; counts cases whose pixels differ.
  void check(const std::function<void(Canvas&)>& spanned,
             const std::function<void(Bitmap&)>& reference) {
    for (const Bitmap* base : {&opaque_, &translucent_}) {
      Bitmap got = base->clone();
      Bitmap want = base->clone();
      Canvas canvas(got);
      spanned(canvas);
      reference(want);
      ++cases_;
      if (got != want) ++mismatches_;
    }
  }

  void TearDown() override {
    EXPECT_GT(cases_, 0);
    EXPECT_EQ(mismatches_, 0) << "of " << cases_ << " cases";
  }

  const Bitmap opaque_ = destination(true);
  const Bitmap translucent_ = destination(false);
  long cases_ = 0;
  long mismatches_ = 0;
};

Color tint(std::uint8_t alpha) { return Color::rgba(200, 41, 97, alpha); }

TEST_F(RasterOracle, FillRect) {
  for (int w = 0; w <= kMaxSide; ++w) {
    for (int h = 0; h <= kMaxSide; ++h) {
      for (const Point o : origins(w, h)) {
        for (const std::uint8_t a : kAlphas) {
          const Rect r{o.x, o.y, w, h};
          check([&](Canvas& c) { c.fillRect(r, tint(a)); },
                [&](Bitmap& b) { referenceFillRect(b, r, tint(a)); });
        }
      }
    }
  }
}

TEST_F(RasterOracle, FillRoundedRect) {
  for (int w = 0; w <= kMaxSide; ++w) {
    for (int h = 0; h <= kMaxSide; ++h) {
      for (int radius = 0; radius <= kMaxRadius; ++radius) {
        for (const Point o : origins(w, h)) {
          for (const std::uint8_t a : kAlphas) {
            const Rect r{o.x, o.y, w, h};
            check([&](Canvas& c) { c.fillRoundedRect(r, tint(a), radius); },
                  [&](Bitmap& b) {
                    referenceFillRoundedRect(b, r, tint(a), radius);
                  });
          }
        }
      }
    }
  }
}

TEST_F(RasterOracle, StrokeRoundedRect) {
  for (int w = 0; w <= kMaxSide; ++w) {
    for (int h = 0; h <= kMaxSide; ++h) {
      for (int radius = 0; radius <= kMaxRadius; ++radius) {
        for (int t = 1; t <= kMaxThickness; ++t) {
          for (const Point o : origins(w, h)) {
            for (const std::uint8_t a : kAlphas) {
              const Rect r{o.x, o.y, w, h};
              check(
                  [&](Canvas& c) {
                    c.strokeRoundedRect(r, tint(a), radius, t);
                  },
                  [&](Bitmap& b) {
                    referenceStrokeRoundedRect(b, r, tint(a), radius, t);
                  });
            }
          }
        }
      }
    }
  }
}

/// Circle centres on a grid reaching past every canvas edge, so each
/// radius is also clipped off each edge and each corner.
std::vector<Point> centres() {
  constexpr int kAxis[] = {-9, -3, 0, 4, 10, 19, 22, 28};
  std::vector<Point> out;
  for (const int y : kAxis) {
    for (const int x : kAxis) out.push_back({x, y});
  }
  return out;
}

TEST_F(RasterOracle, FillCircle) {
  for (int radius = 0; radius <= kMaxRadius; ++radius) {
    for (const Point o : centres()) {
      for (const std::uint8_t a : kAlphas) {
        check([&](Canvas& c) { c.fillCircle(o, radius, tint(a)); },
              [&](Bitmap& b) { referenceFillCircle(b, o, radius, tint(a)); });
      }
    }
  }
}

TEST_F(RasterOracle, StrokeCircle) {
  for (int radius = 0; radius <= kMaxRadius; ++radius) {
    for (int t = 1; t <= kMaxThickness; ++t) {
      for (const Point o : centres()) {
        for (const std::uint8_t a : kAlphas) {
          check([&](Canvas& c) { c.strokeCircle(o, radius, tint(a), t); },
                [&](Bitmap& b) {
                  referenceStrokeCircle(b, o, radius, tint(a), t);
                });
        }
      }
    }
  }
}

TEST_F(RasterOracle, FillVerticalGradient) {
  for (int w = 0; w <= kMaxSide; ++w) {
    for (int h = 0; h <= kMaxSide; ++h) {
      for (const Point o : origins(w, h)) {
        for (const std::uint8_t top : kAlphas) {
          for (const std::uint8_t bottom : kAlphas) {
            const Rect r{o.x, o.y, w, h};
            const Color c0 = Color::rgba(10, 220, 130, top);
            const Color c1 = Color::rgba(240, 5, 60, bottom);
            check([&](Canvas& c) { c.fillVerticalGradient(r, c0, c1); },
                  [&](Bitmap& b) {
                    referenceFillVerticalGradient(b, r, c0, c1);
                  });
          }
        }
      }
    }
  }
}

// ---- blend() -----------------------------------------------------------------

TEST(BlendOracle, OpaqueDestinationShortcutIsExact) {
  // Every (source channel, destination channel, source alpha) triple onto an
  // opaque destination: 256^3 cases. The other two channels carry the
  // complemented and a scrambled value so all three lanes are exercised.
  long mismatches = 0;
  for (int sa = 0; sa < 256; ++sa) {
    for (int s = 0; s < 256; ++s) {
      const auto s8 = static_cast<std::uint8_t>(s);
      const Color src = Color::rgba(s8, static_cast<std::uint8_t>(255 - s),
                                    static_cast<std::uint8_t>(s ^ 0x5a),
                                    static_cast<std::uint8_t>(sa));
      for (int d = 0; d < 256; ++d) {
        const auto d8 = static_cast<std::uint8_t>(d);
        const Color dst = Color::rgb(d8, static_cast<std::uint8_t>(d ^ 0xa5),
                                     static_cast<std::uint8_t>(255 - d));
        if (blend(dst, src) != referenceBlend(dst, src)) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(BlendOracle, TranslucentDestinationUnchanged) {
  long mismatches = 0;
  for (int da = 0; da < 255; da += 3) {
    for (int sa = 0; sa < 256; sa += 5) {
      for (int v = 0; v < 256; v += 7) {
        const auto v8 = static_cast<std::uint8_t>(v);
        const Color src = Color::rgba(v8, static_cast<std::uint8_t>(255 - v),
                                      9, static_cast<std::uint8_t>(sa));
        const Color dst = Color::rgba(static_cast<std::uint8_t>(v ^ 0x33), 77,
                                      v8, static_cast<std::uint8_t>(da));
        if (blend(dst, src) != referenceBlend(dst, src)) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// Pixels of `bmp` that differ from `expected`.
long countMismatches(const Bitmap& bmp, const Bitmap& expected) {
  long mismatches = 0;
  for (int y = 0; y < bmp.height(); ++y) {
    for (int x = 0; x < bmp.width(); ++x) {
      if (bmp.at(x, y) != expected.at(x, y)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(BlendOracle, SpanBlendMatchesPerPixel) {
  // blendSpan's vector block divides by 255 as (X + 1 + (X >> 8)) >> 8;
  // X = s·sa + d·(255−sa) never exceeds 65025.
  long identityMisses = 0;
  for (int x = 0; x <= 65025; ++x) {
    if (((x + 1 + (x >> 8)) >> 8) != x / 255) ++identityMisses;
  }
  EXPECT_EQ(identityMisses, 0);

  // Every (sa, s) onto a 256-pixel opaque row holding d = 0…255: sixteen
  // full blocks, so every pixel takes the vector path. The other two
  // channels carry complemented and scrambled values, as above.
  long mismatches = 0;
  Bitmap row(256, 1);
  for (int sa = 0; sa < 256; ++sa) {
    for (int s = 0; s < 256; ++s) {
      const Color src = Color::rgba(static_cast<std::uint8_t>(s),
                                    static_cast<std::uint8_t>(255 - s),
                                    static_cast<std::uint8_t>(s ^ 0x5a),
                                    static_cast<std::uint8_t>(sa));
      for (int d = 0; d < 256; ++d) {
        row.set(d, 0, Color::rgb(static_cast<std::uint8_t>(d),
                                 static_cast<std::uint8_t>(d ^ 0xa5),
                                 static_cast<std::uint8_t>(255 - d)));
      }
      row.blendSpan(0, 0, 256, src);
      for (int d = 0; d < 256; ++d) {
        const Color dst = Color::rgb(static_cast<std::uint8_t>(d),
                                     static_cast<std::uint8_t>(d ^ 0xa5),
                                     static_cast<std::uint8_t>(255 - d));
        if (row.at(d, 0) != referenceBlend(dst, src)) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);

  // Span lengths 1…40 at offsets 0…15: every split into full blocks and a
  // per-pixel tail, with the pixels outside the span left alone.
  const auto pattern = [](int x, int y) {
    return Color::rgb(static_cast<std::uint8_t>(x * 37 + y),
                      static_cast<std::uint8_t>(x * 11 + 3 * y),
                      static_cast<std::uint8_t>(255 - x * 5));
  };
  for (const int alpha : {1, 128, 254}) {
    const Color src = Color::rgba(200, 40, 90, static_cast<std::uint8_t>(alpha));
    for (int offset = 0; offset < 16; ++offset) {
      for (int length = 1; length <= 40; ++length) {
        Bitmap actual(64, 1);
        Bitmap expected(64, 1);
        for (int x = 0; x < 64; ++x) {
          actual.set(x, 0, pattern(x, length));
          expected.set(x, 0, pattern(x, length));
        }
        actual.blendSpan(0, offset, offset + length, src);
        for (int x = offset; x < offset + length; ++x) {
          referencePixel(expected, x, 0, src);
        }
        EXPECT_EQ(countMismatches(actual, expected), 0)
            << "alpha=" << alpha << " offset=" << offset
            << " length=" << length;
      }
    }
  }

  // One translucent destination pixel at each position of the second of
  // three blocks: that block falls back to the per-pixel loop (and the
  // general blend at the translucent pixel), its neighbours stay vector.
  for (const int alpha : {1, 128, 254}) {
    const Color src = Color::rgba(30, 220, 140, static_cast<std::uint8_t>(alpha));
    for (int position = 0; position < 16; ++position) {
      for (const int da : {0, 1, 128, 254}) {
        Bitmap actual(48, 1);
        Bitmap expected(48, 1);
        for (int x = 0; x < 48; ++x) {
          Color c = pattern(x, position);
          if (x == 16 + position) c.a = static_cast<std::uint8_t>(da);
          actual.set(x, 0, c);
          expected.set(x, 0, c);
        }
        actual.blendSpan(0, 0, 48, src);
        for (int x = 0; x < 48; ++x) referencePixel(expected, x, 0, src);
        EXPECT_EQ(countMismatches(actual, expected), 0)
            << "alpha=" << alpha << " position=" << position
            << " da=" << da;
      }
    }
  }
}

// ---- Even-sided rounded shapes ---------------------------------------------

// A side of exactly 2·radius (every even-sided pill, since radius is capped
// at half the shorter side) used to hand std::clamp lo > hi. The rendering
// pins the disc centre to hi, which makes the pill one pixel asymmetric;
// these pixels are what the screenshots and the trained model carry.
TEST(EvenSidedRoundedTest, PillPinsDiscCentreToHigh) {
  Bitmap bmp(20, 10, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRoundedRect(bmp.bounds(), colors::kBlack, 5);
  auto inked = [&](int y) {
    int n = 0;
    for (int x = 0; x < bmp.width(); ++x) n += bmp.at(x, y) == colors::kBlack;
    return n;
  };
  // Centre row y = 4: dy = 0, full width. Top row: dy = -4, |dx| <= 3 around
  // the 5..14 core. Bottom row: dy = +5, only the core.
  EXPECT_EQ(inked(4), 20);
  EXPECT_EQ(inked(0), 16);
  EXPECT_EQ(inked(9), 10);
  EXPECT_EQ(bmp.at(1, 0), colors::kWhite);
  EXPECT_EQ(bmp.at(2, 0), colors::kBlack);
  EXPECT_EQ(bmp.at(4, 9), colors::kWhite);
  EXPECT_EQ(bmp.at(5, 9), colors::kBlack);

  Bitmap want(20, 10, colors::kWhite);
  referenceFillRoundedRect(want, want.bounds(), colors::kBlack, 5);
  EXPECT_EQ(bmp, want);
}

TEST(EvenSidedRoundedTest, PillsAndRingsMatchReference) {
  for (int side = 2; side <= 16; side += 2) {
    for (const int extra : {0, 4}) {  // square, then even width only
      for (int t = 1; t <= 3; ++t) {
        const Rect r{1, 1, side, side + extra};
        Bitmap got(side + 2, side + extra + 2, colors::kWhite);
        Bitmap want = got.clone();
        Canvas canvas(got);
        canvas.fillRoundedRect(r, colors::kBlue.withAlpha(128), side / 2);
        canvas.strokeRoundedRect(r, colors::kRed.withAlpha(200), side / 2, t);
        referenceFillRoundedRect(want, r, colors::kBlue.withAlpha(128),
                                 side / 2);
        referenceStrokeRoundedRect(want, r, colors::kRed.withAlpha(200),
                                   side / 2, t);
        EXPECT_EQ(got, want) << side << "x" << side + extra << " t" << t;
      }
    }
  }
}

}  // namespace
}  // namespace darpa::gfx
