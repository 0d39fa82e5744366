// Unit tests for src/gfx: Bitmap operations and Canvas drawing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <utility>

#include "gfx/bitmap.h"
#include "gfx/canvas.h"

namespace darpa::gfx {
namespace {

TEST(BitmapTest, ConstructionAndFill) {
  Bitmap bmp(4, 3, colors::kRed);
  EXPECT_EQ(bmp.width(), 4);
  EXPECT_EQ(bmp.height(), 3);
  EXPECT_EQ(bmp.pixelCount(), 12u);
  EXPECT_EQ(bmp.at(0, 0), colors::kRed);
  EXPECT_EQ(bmp.at(3, 2), colors::kRed);
  bmp.fill(colors::kBlue);
  EXPECT_EQ(bmp.at(2, 1), colors::kBlue);
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bmp;
  EXPECT_TRUE(bmp.empty());
  EXPECT_EQ(bmp.pixelCount(), 0u);
  Bitmap negative(-5, 10);
  EXPECT_TRUE(negative.empty());
}

TEST(BitmapTest, CloneIsADeepCopy) {
  Bitmap bmp(3, 3, colors::kRed);
  Bitmap copy = bmp.clone();
  EXPECT_EQ(copy, bmp);
  copy.set(1, 1, colors::kBlue);
  EXPECT_EQ(bmp.at(1, 1), colors::kRed);  // the original is untouched
  EXPECT_NE(copy, bmp);
}

TEST(BitmapTest, MovedFromIsEmpty) {
  Bitmap bmp(4, 4, colors::kGreen);
  const Bitmap moved = std::move(bmp);
  EXPECT_TRUE(bmp.empty());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(bmp.pixelCount(), 0u);
  EXPECT_EQ(moved.at(3, 3), colors::kGreen);
}

TEST(BitmapTest, EqualityComparesContentsNotIdentity) {
  Bitmap a(2, 2, colors::kRed);
  Bitmap b(2, 2, colors::kRed);
  EXPECT_EQ(a, b);  // distinct slabs, same pixels
  b.set(0, 0, colors::kBlue);
  EXPECT_NE(a, b);
  EXPECT_NE(a, Bitmap(2, 3, colors::kRed));  // same area, different shape
}

#if DARPA_BOUNDS_CHECKS
TEST(BitmapDeathTest, AtOutOfBoundsAborts) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_DEATH((void)bmp.at(2, 0), "bounds");
  EXPECT_DEATH((void)bmp.at(0, -1), "bounds");
}

TEST(BitmapDeathTest, SetOutOfBoundsAborts) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_DEATH(bmp.set(-1, 0, colors::kRed), "bounds");
  EXPECT_DEATH(bmp.set(0, 2, colors::kRed), "bounds");
}

TEST(BitmapDeathTest, SpanOutOfBoundsAborts) {
  Bitmap bmp(4, 2, colors::kWhite);
  EXPECT_DEATH(bmp.blendSpan(0, 0, 5, colors::kRed), "bounds");   // past right
  EXPECT_DEATH(bmp.blendSpan(0, -1, 2, colors::kRed), "bounds");  // before left
  EXPECT_DEATH(bmp.blendSpan(2, 0, 1, colors::kRed), "bounds");   // row below
  EXPECT_DEATH(bmp.blendSpan(-1, 0, 1, colors::kRed), "bounds");  // row above
  EXPECT_DEATH(bmp.blendSpan(0, 3, 2, colors::kRed), "bounds");   // reversed
}
#endif  // DARPA_BOUNDS_CHECKS

TEST(BitmapTest, AtClampedOutOfBounds) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_EQ(bmp.atClamped(-1, 0), colors::kTransparent);
  EXPECT_EQ(bmp.atClamped(0, 5), colors::kTransparent);
  EXPECT_EQ(bmp.atClamped(1, 1), colors::kWhite);
}

TEST(BitmapTest, FillRectClipsToBounds) {
  Bitmap bmp(10, 10, colors::kWhite);
  bmp.fillRect({8, 8, 10, 10}, colors::kBlack);
  EXPECT_EQ(bmp.at(9, 9), colors::kBlack);
  EXPECT_EQ(bmp.at(7, 7), colors::kWhite);
}

TEST(BitmapTest, CropCopiesRegion) {
  Bitmap bmp(10, 10, colors::kWhite);
  bmp.fillRect({2, 2, 3, 3}, colors::kGreen);
  const Bitmap cropped = bmp.crop({2, 2, 3, 3});
  EXPECT_EQ(cropped.width(), 3);
  EXPECT_EQ(cropped.height(), 3);
  EXPECT_EQ(cropped.at(0, 0), colors::kGreen);
  EXPECT_EQ(cropped.at(2, 2), colors::kGreen);
}

TEST(BitmapTest, CropClipsOutOfBounds) {
  Bitmap bmp(10, 10);
  const Bitmap cropped = bmp.crop({8, 8, 10, 10});
  EXPECT_EQ(cropped.width(), 2);
  EXPECT_EQ(cropped.height(), 2);
}

TEST(BitmapTest, DownscaleAveragesRegions) {
  Bitmap bmp(4, 4, colors::kWhite);
  bmp.fillRect({0, 0, 2, 4}, colors::kBlack);  // left half black
  const Bitmap small = bmp.downscale(2, 1);
  EXPECT_EQ(small.at(0, 0), colors::kBlack);
  EXPECT_EQ(small.at(1, 0), colors::kWhite);
}

TEST(BitmapTest, DownscalePreservesMeanLuma) {
  Bitmap bmp(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      bmp.set(x, y, Color::rgb(static_cast<std::uint8_t>((x * 4) & 0xff),
                               static_cast<std::uint8_t>((y * 4) & 0xff), 128));
    }
  }
  const Bitmap small = bmp.downscale(16, 16);
  EXPECT_NEAR(small.meanLuma(small.bounds()), bmp.meanLuma(bmp.bounds()), 2.0);
}

TEST(BitmapTest, DownscaleTwoXFastPathMatchesBlockAverage) {
  // The exact-2x decimation shortcut must reproduce the general path's
  // truncating per-block average on every channel, alpha included.
  Bitmap bmp(26, 14);
  std::uint32_t state = 0x12345u;
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<std::uint8_t>(state >> 24);
  };
  for (int y = 0; y < 14; ++y) {
    for (int x = 0; x < 26; ++x) {
      bmp.set(x, y, {next(), next(), next(), next()});
    }
  }
  const Bitmap small = bmp.downscale(13, 7);
  for (int oy = 0; oy < 7; ++oy) {
    for (int ox = 0; ox < 13; ++ox) {
      std::uint32_t r = 0, g = 0, b = 0, a = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const Color c = bmp.at(2 * ox + dx, 2 * oy + dy);
          r += c.r;
          g += c.g;
          b += c.b;
          a += c.a;
        }
      }
      const Color got = small.at(ox, oy);
      EXPECT_EQ(got.r, r / 4) << ox << "," << oy;
      EXPECT_EQ(got.g, g / 4) << ox << "," << oy;
      EXPECT_EQ(got.b, b / 4) << ox << "," << oy;
      EXPECT_EQ(got.a, a / 4) << ox << "," << oy;
    }
  }
}

TEST(BitmapTest, MeanColorAndLuma) {
  Bitmap bmp(2, 1);
  bmp.set(0, 0, colors::kBlack);
  bmp.set(1, 0, colors::kWhite);
  const Color mean = bmp.meanColor(bmp.bounds());
  EXPECT_NEAR(mean.r, 127, 1);
  EXPECT_NEAR(bmp.meanLuma(bmp.bounds()), 127.5, 1.0);
}

TEST(BitmapTest, LumaStddevUniformIsZero) {
  Bitmap bmp(8, 8, colors::kGray);
  EXPECT_NEAR(bmp.lumaStddev(bmp.bounds()), 0.0, 1e-4);
}

TEST(BitmapTest, LumaStddevCheckerboardIsLarge) {
  Bitmap bmp(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      bmp.set(x, y, (x + y) % 2 == 0 ? colors::kBlack : colors::kWhite);
    }
  }
  EXPECT_GT(bmp.lumaStddev(bmp.bounds()), 100.0);
}

TEST(BitmapTest, BoxBlurReducesStddev) {
  Bitmap bmp(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      bmp.set(x, y, (x + y) % 2 == 0 ? colors::kBlack : colors::kWhite);
    }
  }
  const double before = bmp.lumaStddev(bmp.bounds());
  bmp.boxBlur(bmp.bounds(), 2);
  EXPECT_LT(bmp.lumaStddev(bmp.bounds()), before / 4.0);
}

TEST(BitmapTest, BoxBlurOnlyTouchesRegion) {
  Bitmap bmp(20, 20, colors::kWhite);
  bmp.fillRect({0, 0, 20, 20}, colors::kWhite);
  bmp.fillRect({5, 5, 4, 4}, colors::kBlack);
  bmp.boxBlur({5, 5, 4, 4}, 1);
  // Outside the region untouched.
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);
  EXPECT_EQ(bmp.at(15, 15), colors::kWhite);
}

TEST(BitmapTest, WritePpmProducesHeaderAndPayload) {
  Bitmap bmp(3, 2, colors::kRed);
  const std::string path = "/tmp/darpa_test_bitmap.ppm";
  ASSERT_TRUE(bmp.writePpm(path));
  std::ifstream in(path, std::ios::binary);
  std::string header;
  in >> header;
  EXPECT_EQ(header, "P6");
  std::remove(path.c_str());
}

TEST(CanvasTest, FillRectOpaque) {
  Bitmap bmp(10, 10, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRect({2, 2, 4, 4}, colors::kBlue);
  EXPECT_EQ(bmp.at(3, 3), colors::kBlue);
  EXPECT_EQ(bmp.at(1, 1), colors::kWhite);
}

TEST(CanvasTest, FillRectTranslucentBlends) {
  Bitmap bmp(4, 4, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRect(bmp.bounds(), colors::kBlack.withAlpha(128));
  EXPECT_GT(bmp.at(0, 0).r, 100);
  EXPECT_LT(bmp.at(0, 0).r, 160);
}

TEST(CanvasTest, StrokeRectLeavesInteriorUntouched) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.strokeRect({2, 2, 16, 16}, colors::kRed, 2);
  EXPECT_EQ(bmp.at(2, 2), colors::kRed);     // border
  EXPECT_EQ(bmp.at(17, 17), colors::kRed);   // border
  EXPECT_EQ(bmp.at(10, 10), colors::kWhite); // interior
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);   // outside
}

TEST(CanvasTest, RoundedRectCutsCorners) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRoundedRect({0, 0, 20, 20}, colors::kBlack, 8);
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);    // corner outside radius
  EXPECT_EQ(bmp.at(10, 10), colors::kBlack);  // center
  EXPECT_EQ(bmp.at(10, 0), colors::kBlack);   // mid-edge
}

TEST(CanvasTest, FillCircle) {
  Bitmap bmp(21, 21, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillCircle({10, 10}, 5, colors::kGreen);
  EXPECT_EQ(bmp.at(10, 10), colors::kGreen);
  EXPECT_EQ(bmp.at(10, 5), colors::kGreen);   // on radius
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);    // far corner
}

TEST(CanvasTest, StrokeCircleHollow) {
  Bitmap bmp(31, 31, colors::kWhite);
  Canvas canvas(bmp);
  canvas.strokeCircle({15, 15}, 10, colors::kBlack, 2);
  EXPECT_EQ(bmp.at(15, 15), colors::kWhite);  // hollow center
  EXPECT_EQ(bmp.at(15, 5), colors::kBlack);   // on the ring
}

TEST(CanvasTest, GradientMonotoneLuma) {
  Bitmap bmp(4, 32, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillVerticalGradient(bmp.bounds(), colors::kBlack, colors::kWhite);
  double prev = -1.0;
  for (int y = 0; y < 32; y += 4) {
    const double l = luma(bmp.at(2, y));
    EXPECT_GE(l, prev);
    prev = l;
  }
}

TEST(CanvasTest, DrawLineEndpoints) {
  Bitmap bmp(10, 10, colors::kWhite);
  Canvas canvas(bmp);
  canvas.drawLine({1, 1}, {8, 8}, colors::kRed);
  EXPECT_EQ(bmp.at(1, 1), colors::kRed);
  EXPECT_EQ(bmp.at(8, 8), colors::kRed);
  EXPECT_EQ(bmp.at(4, 4), colors::kRed);  // on the diagonal
}

TEST(CanvasTest, DrawCrossPutsInkInRect) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.drawCross({4, 4, 12, 12}, colors::kBlack, 2);
  int inked = 0;
  for (int y = 4; y < 16; ++y) {
    for (int x = 4; x < 16; ++x) {
      if (bmp.at(x, y) == colors::kBlack) ++inked;
    }
  }
  EXPECT_GT(inked, 10);
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);
}

TEST(CanvasTest, PseudoTextDeterministicAndInked) {
  Bitmap a(100, 20, colors::kWhite);
  Bitmap b(100, 20, colors::kWhite);
  Canvas ca(a);
  Canvas cb(b);
  const Rect ra = ca.drawPseudoText({2, 2}, "close", colors::kBlack, 2);
  const Rect rb = cb.drawPseudoText({2, 2}, "close", colors::kBlack, 2);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a, b);
  // Different strings produce different ink.
  Bitmap c(100, 20, colors::kWhite);
  Canvas cc(c);
  cc.drawPseudoText({2, 2}, "openx", colors::kBlack, 2);
  EXPECT_NE(a, c);
}

TEST(CanvasTest, PseudoTextWidthMatchesPaintedRect) {
  Bitmap bmp(200, 20, colors::kWhite);
  Canvas canvas(bmp);
  const Rect painted = canvas.drawPseudoText({0, 0}, "hello w", colors::kBlack, 3);
  EXPECT_EQ(painted.width, Canvas::pseudoTextWidth("hello w", 3));
  EXPECT_EQ(painted.height, Canvas::pseudoTextHeight(3));
}

TEST(CanvasTest, DrawBitmapHonorsLayerAlpha) {
  Bitmap dst(4, 4, colors::kWhite);
  Bitmap src(4, 4, colors::kBlack);
  Canvas canvas(dst);
  canvas.drawBitmap(src, {0, 0}, 0);  // fully transparent layer: no-op
  EXPECT_EQ(dst.at(1, 1), colors::kWhite);
  canvas.drawBitmap(src, {0, 0}, 255);
  EXPECT_EQ(dst.at(1, 1), colors::kBlack);
}

}  // namespace
}  // namespace darpa::gfx
