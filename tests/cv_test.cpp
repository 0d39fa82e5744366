// Unit tests for the CV library: feature extraction, NMS, evaluation
// matching, flood-fill refinement, and detector scaffolding.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cv/detection.h"
#include "cv/features.h"
#include "cv/one_stage.h"
#include "cv/refine.h"
#include "cv/two_stage.h"
#include "gfx/canvas.h"
#include "util/rng.h"

namespace darpa::cv {
namespace {

gfx::Bitmap plateOnBackground(Size size, Color background, const Rect& plate,
                              Color plateColor) {
  gfx::Bitmap bmp(size.width, size.height, background);
  bmp.fillRect(plate, plateColor);
  return bmp;
}

// ---------------------------------------------------------------- channels
TEST(ChannelSetTest, MaskOperations) {
  EXPECT_EQ(ChannelSet::all().count(), kChannelCount);
  const ChannelSet noEdge = ChannelSet::all().without(Channel::kEdge);
  EXPECT_EQ(noEdge.count(), kChannelCount - 1);
  EXPECT_FALSE(noEdge.enabled(Channel::kEdge));
  EXPECT_TRUE(noEdge.enabled(Channel::kLuma));
  const Channel two[] = {Channel::kLuma, Channel::kSaliency};
  const ChannelSet only = ChannelSet::only(two);
  EXPECT_EQ(only.count(), 2);
  EXPECT_TRUE(only.enabled(Channel::kSaliency));
  EXPECT_FALSE(only.enabled(Channel::kContrast));
}

// ---------------------------------------------------------------- features
TEST(FeatureMapTest, LumaMeansReflectContent) {
  gfx::Bitmap bmp(64, 64, colors::kWhite);
  bmp.fillRect({0, 0, 32, 64}, colors::kBlack);
  const FeatureMap map(bmp, ChannelSet::all(), 2);
  EXPECT_LT(map.boxMean(Channel::kLuma, {0, 0, 32, 64}), 0.1f);
  EXPECT_GT(map.boxMean(Channel::kLuma, {32, 0, 32, 64}), 0.9f);
  EXPECT_NEAR(map.globalMean(Channel::kLuma), 0.5f, 0.05f);
}

TEST(FeatureMapTest, EdgeFiresOnBoundary) {
  gfx::Bitmap bmp(64, 64, colors::kWhite);
  bmp.fillRect({0, 0, 32, 64}, colors::kBlack);
  const FeatureMap map(bmp, ChannelSet::all(), 2);
  EXPECT_GT(map.boxMean(Channel::kEdge, {28, 0, 8, 64}),
            map.boxMean(Channel::kEdge, {48, 0, 8, 64}) + 0.1f);
}

TEST(FeatureMapTest, RingContrastPositiveForBrightPlate) {
  const gfx::Bitmap bmp = plateOnBackground({80, 80}, colors::kBlack,
                                            {30, 30, 20, 20}, colors::kWhite);
  const FeatureMap map(bmp, ChannelSet::all(), 2);
  EXPECT_GT(map.ringContrast(Channel::kLuma, {30, 30, 20, 20}), 0.3f);
  // A box over uniform background has ~zero ring contrast.
  EXPECT_NEAR(map.ringContrast(Channel::kLuma, {2, 2, 10, 10}), 0.0f, 0.05f);
}

TEST(FeatureMapTest, DisabledChannelReadsZero) {
  const gfx::Bitmap bmp = plateOnBackground({40, 40}, colors::kBlack,
                                            {10, 10, 10, 10}, colors::kRed);
  const FeatureMap map(bmp, ChannelSet::all().without(Channel::kSaturation), 2);
  EXPECT_EQ(map.boxMean(Channel::kSaturation, {10, 10, 10, 10}), 0.0f);
  EXPECT_GT(map.boxMean(Channel::kSaliency, {10, 10, 10, 10}), 0.0f);
}

TEST(FeatureMapTest, CenterSurroundDetectsDarkSurround) {
  gfx::Bitmap bmp(80, 160, colors::kBlack);
  bmp.fillRect({20, 40, 40, 80}, colors::kWhite);  // bright center panel
  const FeatureMap map(bmp, ChannelSet::all(), 2);
  EXPECT_GT(map.centerSurroundLuma(), 0.3f);
}

TEST(CandidateFeaturesTest, DimensionMatchesConstant) {
  const gfx::Bitmap bmp(64, 64, colors::kGray);
  const FeatureMap map(bmp, ChannelSet::all(), 2);
  const std::vector<float> f = candidateFeatures(map, {10, 10, 20, 20});
  EXPECT_EQ(static_cast<int>(f.size()), kCandidateFeatureDim);
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(CandidateFeaturesTest, ContinuationSeparatesBlobFromBorder) {
  // Isolated blob vs a long horizontal stripe of the same height.
  gfx::Bitmap blobImg(200, 100, colors::kWhite);
  blobImg.fillRect({90, 40, 20, 20}, colors::kBlack);
  gfx::Bitmap stripeImg(200, 100, colors::kWhite);
  stripeImg.fillRect({0, 40, 200, 20}, colors::kBlack);
  const FeatureMap blobMap(blobImg, ChannelSet::all(), 2);
  const FeatureMap stripeMap(stripeImg, ChannelSet::all(), 2);
  const Rect box{90, 40, 20, 20};
  const auto blobF = candidateFeatures(blobMap, box);
  const auto stripeF = candidateFeatures(stripeMap, box);
  // Horizontal continuation (second-to-last feature) is larger on stripes.
  const std::size_t contX = blobF.size() - 2;
  EXPECT_GT(stripeF[contX], blobF[contX] + 0.05f);
}

// ---------------------------------------------------------------- NMS/eval
Detection det(Rect box, dataset::BoxLabel label, float conf) {
  return Detection{box, label, conf};
}

TEST(NmsTest, SuppressesOverlappingSameClass) {
  std::vector<Detection> dets = {
      det({0, 0, 20, 20}, dataset::BoxLabel::kUpo, 0.9f),
      det({2, 2, 20, 20}, dataset::BoxLabel::kUpo, 0.8f),
      det({100, 100, 20, 20}, dataset::BoxLabel::kUpo, 0.7f),
  };
  const auto kept = nonMaxSuppression(std::move(dets), 0.5);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].confidence, 0.9f);  // highest kept first
}

TEST(NmsTest, DifferentClassesSurvive) {
  std::vector<Detection> dets = {
      det({0, 0, 20, 20}, dataset::BoxLabel::kUpo, 0.9f),
      det({0, 0, 20, 20}, dataset::BoxLabel::kAgo, 0.8f),
  };
  EXPECT_EQ(nonMaxSuppression(std::move(dets), 0.5).size(), 2u);
}

TEST(EvalTest, PerfectDetectionCountsTp) {
  const dataset::Annotation gt{{10, 10, 20, 20}, dataset::BoxLabel::kUpo};
  const std::vector<Detection> dets = {
      det({10, 10, 20, 20}, dataset::BoxLabel::kUpo, 0.9f)};
  const EvalCounts counts = evaluateImage(dets, {&gt, 1}, 0.9);
  EXPECT_EQ(counts.tp, 1);
  EXPECT_EQ(counts.fp, 0);
  EXPECT_EQ(counts.fn, 0);
  EXPECT_DOUBLE_EQ(counts.precision(), 1.0);
  EXPECT_DOUBLE_EQ(counts.recall(), 1.0);
  EXPECT_DOUBLE_EQ(counts.f1(), 1.0);
}

TEST(EvalTest, WrongClassIsFpPlusFn) {
  const dataset::Annotation gt{{10, 10, 20, 20}, dataset::BoxLabel::kUpo};
  const std::vector<Detection> dets = {
      det({10, 10, 20, 20}, dataset::BoxLabel::kAgo, 0.9f)};
  const EvalCounts counts = evaluateImage(dets, {&gt, 1}, 0.9);
  EXPECT_EQ(counts.tp, 0);
  EXPECT_EQ(counts.fp, 1);
  EXPECT_EQ(counts.fn, 1);
}

TEST(EvalTest, LooseBoxFailsStrictIouButPassesLoose) {
  const dataset::Annotation gt{{10, 10, 20, 20}, dataset::BoxLabel::kUpo};
  const std::vector<Detection> dets = {
      det({12, 12, 20, 20}, dataset::BoxLabel::kUpo, 0.9f)};
  EXPECT_EQ(evaluateImage(dets, {&gt, 1}, 0.9).tp, 0);
  EXPECT_EQ(evaluateImage(dets, {&gt, 1}, 0.5).tp, 1);
}

TEST(EvalTest, EachGtMatchedOnce) {
  const dataset::Annotation gt{{10, 10, 20, 20}, dataset::BoxLabel::kUpo};
  const std::vector<Detection> dets = {
      det({10, 10, 20, 20}, dataset::BoxLabel::kUpo, 0.9f),
      det({10, 10, 20, 20}, dataset::BoxLabel::kUpo, 0.8f)};
  const EvalCounts counts = evaluateImage(dets, {&gt, 1}, 0.9);
  EXPECT_EQ(counts.tp, 1);
  EXPECT_EQ(counts.fp, 1);
}

TEST(EvalTest, LabelFilterScopesCounts) {
  const dataset::Annotation gts[] = {
      {{10, 10, 20, 20}, dataset::BoxLabel::kUpo},
      {{50, 50, 40, 40}, dataset::BoxLabel::kAgo}};
  const std::vector<Detection> dets = {
      det({10, 10, 20, 20}, dataset::BoxLabel::kUpo, 0.9f)};
  const EvalCounts upoOnly =
      evaluateImage(dets, gts, 0.9, dataset::BoxLabel::kUpo);
  EXPECT_EQ(upoOnly.tp, 1);
  EXPECT_EQ(upoOnly.fn, 0);
  const EvalCounts agoOnly =
      evaluateImage(dets, gts, 0.9, dataset::BoxLabel::kAgo);
  EXPECT_EQ(agoOnly.fn, 1);
}

TEST(EvalTest, CountsAccumulate) {
  EvalCounts a{3, 1, 2};
  const EvalCounts b{1, 1, 1};
  a += b;
  EXPECT_EQ(a.tp, 4);
  EXPECT_EQ(a.fp, 2);
  EXPECT_EQ(a.fn, 3);
}

// ---------------------------------------------------------------- refine
TEST(RefineTest, SnapsExactlyToSolidPlate) {
  const Rect plate{40, 40, 18, 18};
  const gfx::Bitmap bmp =
      plateOnBackground({120, 120}, colors::kWhite, plate, Color::rgb(200, 200, 205));
  // Coarse box offset by a few pixels still snaps to the exact plate.
  const auto snapped = snapToRegion(bmp, plate.translated(3, -2));
  ASSERT_TRUE(snapped.has_value());
  EXPECT_EQ(*snapped, plate);
}

TEST(RefineTest, SnapsPlateWithGlyphOnTop) {
  const Rect plate{40, 40, 20, 20};
  gfx::Bitmap bmp =
      plateOnBackground({120, 120}, colors::kWhite, plate, Color::rgb(200, 200, 205));
  gfx::Canvas canvas(bmp);
  canvas.drawCross(plate, Color::rgb(90, 90, 90), 2);  // glyph over the plate
  const auto snapped = snapToRegion(bmp, plate.inflated(2));
  ASSERT_TRUE(snapped.has_value());
  EXPECT_GT(iou(*snapped, plate), 0.9);
}

TEST(RefineTest, FailsOnUniformBackground) {
  const gfx::Bitmap bmp(100, 100, colors::kWhite);
  EXPECT_FALSE(snapToRegion(bmp, {40, 40, 20, 20}).has_value());
}

TEST(RefineTest, FailsOnGhostPlate) {
  // A plate whose color is within tolerance of the background: the fill
  // leaks into the window border and is rejected (the paper's transparent
  // close-button FNs).
  const Rect plate{40, 40, 18, 18};
  const gfx::Bitmap bmp = plateOnBackground(
      {120, 120}, Color::rgb(240, 240, 240), plate, Color::rgb(232, 232, 232));
  EXPECT_FALSE(snapToRegion(bmp, plate.inflated(2)).has_value());
}

TEST(RefineTest, SnapsPlateStraddlingPanelEdge) {
  // Plate half on a white panel, half on dark scrim: the ring-discounted
  // mode must still find the plate color.
  gfx::Bitmap bmp(140, 140, Color::rgb(90, 90, 90));  // scrim
  bmp.fillRect({0, 60, 140, 80}, colors::kWhite);     // panel below
  const Rect plate{60, 52, 18, 18};                   // straddles y=60
  bmp.fillRect(plate, Color::rgb(190, 150, 60));
  const auto snapped = snapToRegion(bmp, plate.inflated(3));
  ASSERT_TRUE(snapped.has_value());
  EXPECT_GT(iou(*snapped, plate), 0.9);
}

TEST(RefineTest, FailsWhenFillLeaksThroughRibbonToWindowBorder) {
  // The candidate's color continues as a ribbon far past the snap window:
  // the flood fill reaches the window border (the early-abort seam) and the
  // candidate must be rejected, not snapped to a truncated box.
  gfx::Bitmap bmp(160, 160, Color::rgb(90, 90, 90));
  bmp.fillRect({60, 60, 90, 18}, Color::rgb(190, 150, 60));  // runs off-window
  EXPECT_FALSE(snapToRegion(bmp, {60, 60, 18, 18}).has_value());
}

TEST(RefineTest, EmptyInputsRejected) {
  const gfx::Bitmap bmp(50, 50, colors::kWhite);
  EXPECT_FALSE(snapToRegion(bmp, Rect{}).has_value());
  EXPECT_FALSE(snapToRegion(gfx::Bitmap{}, {0, 0, 10, 10}).has_value());
  EXPECT_FALSE(snapToRegion(bmp, {200, 200, 10, 10}).has_value());
}

// ------------------------------------------------------------- detectors
TEST(OneStageTest, AnchorStrideScalesWithSize) {
  EXPECT_EQ((Anchor{20, 20}).stride(), 10);
  EXPECT_EQ((Anchor{8, 8}).stride(), 8);    // clamped low
  EXPECT_EQ((Anchor{210, 48}).stride(), 24);
  EXPECT_EQ((Anchor{130, 130}).stride(), 32);  // clamped high
}

TEST(OneStageTest, TinyTrainedModelDetectsObviousAui) {
  // A deliberately tiny dataset/short schedule: this is a smoke test that
  // the full train->detect->refine pipeline is wired correctly end to end.
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 170;
  dataConfig.seed = 77;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);
  cv::TrainConfig trainConfig;
  trainConfig.epochs = 14;
  trainConfig.benignImages = 30;
  const OneStageDetector detector =
      OneStageDetector::train(data, OneStageConfig{}, trainConfig);
  const ModelMetrics metrics =
      evaluateDetector(detector, data, data.testIndices(), false, 0.5);
  // Loose bar: at IoU 0.5 the tiny model must already find most AGOs.
  EXPECT_GT(metrics.ago.recall(), 0.4);
  // The modeled cost (Tables VII/VIII) prices every grid candidate of a
  // 360 x 720 frame through the head, plus three sweeps over its pixels.
  const double gridEntries =
      static_cast<double>(detector.candidateBoxes({360, 720}).size());
  EXPECT_EQ(detector.costMacsPerImage(),
            gridEntries *
                    static_cast<double>(detector.head().parameterCount()) +
                360.0 * 720.0 * 3.0);
}

// ----------------------------------------------- fused feature-pass parity
// Naive single-channel-at-a-time reference for the fused FeatureMap pass:
// per-pixel 25-tap clamped contrast window, per-pixel clamped Sobel, and the
// same integral accumulation order. The fused implementation must match it
// BIT-exactly (EXPECT_EQ on floats) — including every border pixel, which is
// where the separable sliding window's clamping could drift.
struct ReferencePlanes {
  int w = 0;
  int h = 0;
  std::array<std::vector<double>, kChannelCount> integrals;

  [[nodiscard]] double sum(int c, const Rect& cells) const {
    const int stride = w + 1;
    const double* integral = integrals[static_cast<std::size_t>(c)].data();
    const double a = integral[static_cast<std::size_t>(cells.y) * stride + cells.x];
    const double b =
        integral[static_cast<std::size_t>(cells.y) * stride + cells.right()];
    const double cc =
        integral[static_cast<std::size_t>(cells.bottom()) * stride + cells.x];
    const double d = integral[static_cast<std::size_t>(cells.bottom()) * stride +
                              cells.right()];
    return d - b - cc + a;
  }
  [[nodiscard]] float mean(int c, const Rect& cells) const {
    return static_cast<float>(sum(c, cells) /
                              static_cast<double>(cells.area()));
  }
};

std::int32_t refIntLuma(Color c) { return 299 * c.r + 587 * c.g + 114 * c.b; }

ReferencePlanes naiveReference(const gfx::Bitmap& screenshot,
                               ChannelSet channels, int scale) {
  const gfx::Bitmap small = screenshot.downscale(
      std::max(screenshot.width() / scale, 1),
      std::max(screenshot.height() / scale, 1));
  ReferencePlanes ref;
  ref.w = small.width();
  ref.h = small.height();
  const int w = ref.w;
  const int h = ref.h;
  for (auto& plane : ref.integrals) {
    plane.assign(static_cast<std::size_t>(w + 1) * (h + 1), 0.0);
  }
  const Color meanColor = small.meanColor(small.bounds());
  std::vector<float> lumaF(static_cast<std::size_t>(w) * h);
  std::vector<std::int32_t> lumaI(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const Color c = small.at(x, y);
      lumaF[static_cast<std::size_t>(y) * w + x] =
          static_cast<float>(luma(c) / 255.0);
      lumaI[static_cast<std::size_t>(y) * w + x] = refIntLuma(c);
    }
  }
  auto lumaAt = [&](int x, int y) {
    return lumaF[static_cast<std::size_t>(std::clamp(y, 0, h - 1)) * w +
                 std::clamp(x, 0, w - 1)];
  };
  auto intLumaAt = [&](int x, int y) {
    return lumaI[static_cast<std::size_t>(std::clamp(y, 0, h - 1)) * w +
                 std::clamp(x, 0, w - 1)];
  };
  auto pixelValue = [&](Channel channel, int x, int y) -> double {
    const Color c = small.at(x, y);
    switch (channel) {
      case Channel::kLuma:
        return lumaAt(x, y);
      case Channel::kEdge: {
        const float gx =
            (lumaAt(x + 1, y - 1) + 2 * lumaAt(x + 1, y) + lumaAt(x + 1, y + 1)) -
            (lumaAt(x - 1, y - 1) + 2 * lumaAt(x - 1, y) + lumaAt(x - 1, y + 1));
        const float gy =
            (lumaAt(x - 1, y + 1) + 2 * lumaAt(x, y + 1) + lumaAt(x + 1, y + 1)) -
            (lumaAt(x - 1, y - 1) + 2 * lumaAt(x, y - 1) + lumaAt(x + 1, y - 1));
        return std::min(std::sqrt(gx * gx + gy * gy) / 4.0f, 1.0f);
      }
      case Channel::kContrast: {
        // The naive 25-tap window the separable pass must reproduce.
        std::int64_t windowSum = 0;
        for (int dy = -2; dy <= 2; ++dy) {
          for (int dx = -2; dx <= 2; ++dx) {
            windowSum += intLumaAt(x + dx, y + dy);
          }
        }
        const std::int64_t diff =
            25LL * intLumaAt(x, y) - windowSum;
        return static_cast<float>(
            static_cast<double>(diff < 0 ? -diff : diff) / (25.0 * 255000.0));
      }
      case Channel::kSaturation: {
        const int mx = std::max({c.r, c.g, c.b});
        const int mn = std::min({c.r, c.g, c.b});
        return static_cast<float>(mx - mn) / 255.0f;
      }
      case Channel::kSaliency: {
        const float dr = static_cast<float>(c.r - meanColor.r);
        const float dg = static_cast<float>(c.g - meanColor.g);
        const float db = static_cast<float>(c.b - meanColor.b);
        return std::sqrt(dr * dr + dg * dg + db * db) / 442.0f;
      }
    }
    return 0.0;
  };
  for (int ci = 0; ci < kChannelCount; ++ci) {
    if (!channels.enabled(static_cast<Channel>(ci))) continue;
    std::vector<double>& integral = ref.integrals[static_cast<std::size_t>(ci)];
    const std::size_t stride = static_cast<std::size_t>(w) + 1;
    for (int y = 0; y < h; ++y) {
      double rowSum = 0.0;
      for (int x = 0; x < w; ++x) {
        rowSum += pixelValue(static_cast<Channel>(ci), x, y);
        integral[static_cast<std::size_t>(y + 1) * stride + x + 1] =
            integral[static_cast<std::size_t>(y) * stride + x + 1] + rowSum;
      }
    }
  }
  return ref;
}

gfx::Bitmap randomBitmap(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  gfx::Bitmap bmp(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      bmp.set(x, y,
              Color::rgb(static_cast<std::uint8_t>(rng.next() & 0xff),
                         static_cast<std::uint8_t>(rng.next() & 0xff),
                         static_cast<std::uint8_t>(rng.next() & 0xff)));
    }
  }
  return bmp;
}

void expectFusedMatchesReference(const gfx::Bitmap& bmp, ChannelSet channels,
                                 int scale, const std::string& label) {
  const FeatureMap map(bmp, channels, scale);
  const ReferencePlanes ref = naiveReference(bmp, channels, scale);
  ASSERT_EQ(map.width(), ref.w) << label;
  ASSERT_EQ(map.height(), ref.h) << label;
  for (int ci = 0; ci < kChannelCount; ++ci) {
    if (!channels.enabled(static_cast<Channel>(ci))) continue;
    const Channel channel = static_cast<Channel>(ci);
    // Every single cell — this sweeps every border and corner pixel, the
    // exact places where the sliding window's clamping could diverge from
    // the naive reference.
    for (int y = 0; y < ref.h; ++y) {
      for (int x = 0; x < ref.w; ++x) {
        const Rect cellRect{x * scale, y * scale, scale, scale};
        EXPECT_EQ(map.boxMean(channel, cellRect),
                  ref.mean(ci, Rect{x, y, 1, 1}))
            << label << " channel=" << channelName(channel) << " cell=(" << x
            << "," << y << ")";
      }
    }
    // A few multi-cell boxes exercise the integral arithmetic end to end.
    const Rect whole{0, 0, ref.w * scale, ref.h * scale};
    EXPECT_EQ(map.boxMean(channel, whole),
              ref.mean(ci, Rect{0, 0, ref.w, ref.h}))
        << label << " channel=" << channelName(channel) << " whole";
  }
}

TEST(FusedFeatureParityTest, FusedMatchesNaiveReferenceOnRandomBitmaps) {
  // Assorted shapes: wider than the window, narrower than the window in one
  // or both axes (maximal clamping), and non-multiples of the scale.
  const std::array<std::array<int, 2>, 6> shapes = {
      {{64, 48}, {33, 17}, {5, 5}, {3, 9}, {9, 3}, {7, 40}}};
  std::uint64_t seed = 1000;
  for (const auto& shape : shapes) {
    for (const int scale : {1, 2}) {
      const gfx::Bitmap bmp = randomBitmap(shape[0], shape[1], ++seed);
      expectFusedMatchesReference(
          bmp, ChannelSet::all(), scale,
          std::to_string(shape[0]) + "x" + std::to_string(shape[1]) +
              " scale=" + std::to_string(scale));
    }
  }
}

TEST(FusedFeatureParityTest, TinyAndDegenerateSizes) {
  // 1x1 through sizes smaller than the 5x5 window: every pixel is a border
  // pixel and the clamped window folds onto itself.
  for (const auto& shape :
       std::array<std::array<int, 2>, 5>{{{1, 1}, {2, 2}, {1, 7}, {7, 1}, {4, 4}}}) {
    const gfx::Bitmap bmp = randomBitmap(shape[0], shape[1], 7700 + shape[0]);
    expectFusedMatchesReference(bmp, ChannelSet::all(), 1,
                                std::to_string(shape[0]) + "x" +
                                    std::to_string(shape[1]));
  }
}

TEST(FusedFeatureParityTest, ChannelSubsetsMatchAndDisabledStayZero) {
  const gfx::Bitmap bmp = randomBitmap(24, 18, 909);
  const Channel contrastOnly[] = {Channel::kContrast};
  const Channel edgeSal[] = {Channel::kEdge, Channel::kSaliency};
  for (const ChannelSet set :
       {ChannelSet::only(contrastOnly), ChannelSet::only(edgeSal),
        ChannelSet::all().without(Channel::kLuma)}) {
    expectFusedMatchesReference(bmp, set, 1, "subset");
    const FeatureMap map(bmp, set, 1);
    for (int ci = 0; ci < kChannelCount; ++ci) {
      if (set.enabled(static_cast<Channel>(ci))) continue;
      EXPECT_EQ(map.boxMean(static_cast<Channel>(ci), {0, 0, 24, 18}), 0.0f);
    }
  }
}

TEST(FusedFeatureParityTest, BoundaryPixelsOfStructuredImage) {
  // Regression guard for the border audit: a structured (non-random) image
  // whose strong gradients sit exactly on the frame so any clamp mismatch
  // in the separable window or Sobel pointers shows up as a corner diff.
  gfx::Bitmap bmp(20, 14, colors::kWhite);
  bmp.fillRect({0, 0, 10, 14}, colors::kBlack);    // vertical edge mid-frame
  bmp.fillRect({0, 0, 20, 2}, colors::kRed);       // stripe on the top border
  bmp.fillRect({18, 0, 2, 14}, colors::kBlue);     // stripe on the right border
  const FeatureMap map(bmp, ChannelSet::all(), 1);
  const ReferencePlanes ref = naiveReference(bmp, ChannelSet::all(), 1);
  for (const Channel channel : {Channel::kEdge, Channel::kContrast}) {
    const int ci = static_cast<int>(channel);
    for (int x = 0; x < 20; ++x) {  // top and bottom rows
      EXPECT_EQ(map.boxMean(channel, {x, 0, 1, 1}), ref.mean(ci, {x, 0, 1, 1}));
      EXPECT_EQ(map.boxMean(channel, {x, 13, 1, 1}),
                ref.mean(ci, {x, 13, 1, 1}));
    }
    for (int y = 0; y < 14; ++y) {  // left and right columns
      EXPECT_EQ(map.boxMean(channel, {0, y, 1, 1}), ref.mean(ci, {0, y, 1, 1}));
      EXPECT_EQ(map.boxMean(channel, {19, y, 1, 1}),
                ref.mean(ci, {19, y, 1, 1}));
    }
  }
}

TEST(FusedFeatureParityTest, PooledPlaneReuseLeavesNoStaleData) {
  // The integral planes are recycled through a thread-local pool, and a
  // reused buffer is only re-zeroed along its integral borders (enabled
  // channels) or in full (disabled channels). Build a large all-channels map
  // first so the pool holds a thoroughly dirty buffer, then verify maps that
  // reuse it — a smaller frame and a channel subset — still match the naive
  // reference bit-for-bit and read zero on disabled channels.
  const gfx::Bitmap big = randomBitmap(72, 54, 4242);
  { const FeatureMap dirty(big, ChannelSet::all(), 1); }  // seeds the pool

  const gfx::Bitmap smaller = randomBitmap(19, 11, 4343);
  expectFusedMatchesReference(smaller, ChannelSet::all(), 1,
                              "pool-reuse smaller frame");

  { const FeatureMap dirty(big, ChannelSet::all(), 1); }  // re-dirty the pool
  const ChannelSet subset =
      ChannelSet::all().without(Channel::kSaturation).without(Channel::kEdge);
  expectFusedMatchesReference(big, subset, 1, "pool-reuse channel subset");
  const FeatureMap map(big, subset, 1);
  for (const Channel off : {Channel::kSaturation, Channel::kEdge}) {
    EXPECT_EQ(map.globalMean(off), 0.0f) << channelName(off);
    for (int y = 0; y < map.height(); ++y) {
      for (int x = 0; x < map.width(); ++x) {
        ASSERT_EQ(map.boxMean(off, {x, y, 1, 1}), 0.0f)
            << channelName(off) << " cell=(" << x << "," << y << ")";
      }
    }
  }
}

TEST(FusedFeatureParityTest, FullFrameAtDetectorScale) {
  // The detector's own frame size and feature scale: 180 x 360 cells, so
  // every interior run of the vectorized value rows and the prefix pass is
  // long, not just the borders the small shapes above exercise.
  expectFusedMatchesReference(randomBitmap(360, 720, 2024), ChannelSet::all(),
                              2, "360x720 scale=2");
}

TEST(FusedFeatureParityTest, ArenaReuseAcrossSizesMatchesReference) {
  // The decimated frame lives in the thread's FeatureScratch arena. Walk
  // shrinking and growing frames, each against the naive reference (which
  // decimates into a fresh bitmap), so a pixel the decimation failed to
  // overwrite would surface as a stale value from the previous size. After
  // one lap over the sizes the arena has seen them all and stops growing.
  const std::array<std::array<int, 2>, 4> sizes = {
      {{360, 720}, {40, 30}, {361, 719}, {360, 720}}};
  std::int64_t growthsAfterFirstLap = 0;
  for (int lap = 0; lap < 2; ++lap) {
    std::uint64_t seed = 5150;
    for (const auto& size : sizes) {
      expectFusedMatchesReference(
          randomBitmap(size[0], size[1], ++seed), ChannelSet::all(), 2,
          "lap " + std::to_string(lap) + " " + std::to_string(size[0]) + "x" +
              std::to_string(size[1]));
    }
    if (lap == 0) growthsAfterFirstLap = featureScratchStats().growths;
  }
  EXPECT_EQ(featureScratchStats().growths, growthsAfterFirstLap);
}

TEST(FusedFeatureParityTest, EmptyScreenshotReadsAsOneWhiteCell) {
  // An empty screenshot decimates to a 1x1 white frame: luma 1, every other
  // channel 0. Dirty the arena with a full frame first, so the white cell
  // cannot come from a freshly zeroed buffer.
  { const FeatureMap dirty(randomBitmap(360, 720, 77), ChannelSet::all(), 2); }
  const gfx::Bitmap empty;
  for (const int scale : {1, 2, 4}) {
    const FeatureMap map(empty, ChannelSet::all(), scale);
    EXPECT_EQ(map.width(), 1);
    EXPECT_EQ(map.height(), 1);
    EXPECT_EQ(map.fullSize().width, 0);
    EXPECT_EQ(map.fullSize().height, 0);
    const Rect cell{0, 0, scale, scale};
    EXPECT_EQ(map.boxMean(Channel::kLuma, cell), 1.0f);
    EXPECT_EQ(map.globalMean(Channel::kLuma), 1.0f);
    for (const Channel c : {Channel::kEdge, Channel::kContrast,
                            Channel::kSaturation, Channel::kSaliency}) {
      EXPECT_EQ(map.boxMean(c, cell), 0.0f) << channelName(c);
      EXPECT_EQ(map.globalMean(c), 0.0f) << channelName(c);
    }
    // At scale 1 the frame's central half is an empty rect (mean 0), so
    // the surround carries all of the luma: 0 − 1 / 0.75.
    EXPECT_EQ(map.centerSurroundLuma(),
              scale == 1 ? static_cast<float>(-1.0 / 0.75) : 0.0f);
    expectFusedMatchesReference(empty, ChannelSet::all(), scale, "empty");
  }
}

TEST(FeatureLumaTest, IntegerLumaGivesDoubleLumaForEveryColour) {
  // The feature pass builds its float luma plane as
  // float(intLuma / 255000.0) instead of float(luma(c) / 255.0). The two
  // agree for all 2^24 colours; this identity is what keeps the luma and
  // edge channels bit-equal to their double-luma definition.
  std::int64_t mismatches = 0;
  Color first{};
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const Color c = Color::rgb(static_cast<std::uint8_t>(r),
                                   static_cast<std::uint8_t>(g),
                                   static_cast<std::uint8_t>(b));
        const float viaDouble = static_cast<float>(luma(c) / 255.0);
        const float viaInt = static_cast<float>(refIntLuma(c) / 255000.0);
        if (std::memcmp(&viaDouble, &viaInt, sizeof(float)) != 0) {
          if (mismatches++ == 0) first = c;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch at rgb(" << int{first.r} << ","
                           << int{first.g} << "," << int{first.b} << ")";
}

/// Integers i in [0, limit] where float(i * (1 / d)) differs from
/// float(i / d) in any bit.
std::int64_t reciprocalMismatches(std::int32_t limit, double d) {
  const double inverse = 1.0 / d;
  std::int64_t mismatches = 0;
  for (std::int32_t i = 0; i <= limit; ++i) {
    const auto viaDivide = static_cast<float>(static_cast<double>(i) / d);
    const auto viaInverse = static_cast<float>(static_cast<double>(i) * inverse);
    if (std::memcmp(&viaDivide, &viaInverse, sizeof(float)) != 0) ++mismatches;
  }
  return mismatches;
}

TEST(FeatureLumaTest, ReciprocalScalesEqualTheDivisionsOnTheirDomains) {
  // The feature pass scales its two integer planes by a reciprocal instead
  // of dividing: float luma is intLuma * (1 / 255000.0), intLuma in
  // [0, 255000], and contrast is |25·luma − windowSum| * (1 / 6375000.0),
  // |diff| in [0, 6375000]. On both whole domains the product rounds to the
  // same float as the quotient.
  EXPECT_EQ(reciprocalMismatches(255'000, 255'000.0), 0);
  EXPECT_EQ(reciprocalMismatches(6'375'000, 25.0 * 255'000.0), 0);
  // Saturation, float(max−min) / 255.0f, and saliency,
  // sqrtf(dr²+dg²+db²) / 442.0f, stay divisions: times a float reciprocal
  // they differ on 126 of the 256 values of max−min and on 110,287 of the
  // square roots of 0…3·255² (checked exhaustively when the two were
  // converted).
}

/// The grid candidates of `config` over a frame of `size`, in detect()'s
/// order: anchor, then rows, then columns, centres stride/2 apart from the
/// frame's top-left by one stride.
std::vector<Rect> referenceGrid(const OneStageConfig& config, Size size) {
  std::vector<Rect> boxes;
  for (const Anchor& anchor : config.anchors) {
    const int stride = anchor.stride();
    for (int cy = stride / 2; cy < size.height; cy += stride) {
      for (int cx = stride / 2; cx < size.width; cx += stride) {
        boxes.push_back({cx - anchor.width / 2, cy - anchor.height / 2,
                         anchor.width, anchor.height});
      }
    }
  }
  return boxes;
}

/// The descriptor rect by rect through FeatureMap's public accessors — the
/// definition candidateFeatures() documents, with no cell plan or corner
/// groups — so the shared fill behind both descriptor paths has an oracle.
std::vector<float> referenceDescriptor(const FeatureMap& map, const Rect& box) {
  std::vector<float> f;
  for (int c = 0; c < kChannelCount; ++c) {
    f.push_back(map.boxMean(static_cast<Channel>(c), box));
    f.push_back(map.ringContrast(static_cast<Channel>(c), box));
  }
  std::array<float, kCandidateGeometryDim> geometry{};
  candidateGeometryInto(map.fullSize(), box, geometry);
  f.insert(f.end(), geometry.begin(), geometry.end());
  f.push_back(map.globalMean(Channel::kLuma));
  f.push_back(map.globalMean(Channel::kEdge));
  f.push_back(map.centerSurroundLuma());
  f.push_back(map.boxMean(Channel::kEdge, box.inflated(2)) -
              map.boxMean(Channel::kEdge,
                          box.inflated(-std::max(
                              2, std::min(box.width, box.height) / 4))));
  f.push_back(std::min(map.boxMean(Channel::kContrast,
                                   box.translated(-box.width, 0)),
                       map.boxMean(Channel::kContrast,
                                   box.translated(box.width, 0))));
  f.push_back(std::min(map.boxMean(Channel::kContrast,
                                   box.translated(0, -box.height)),
                       map.boxMean(Channel::kContrast,
                                   box.translated(0, box.height))));
  return f;
}

TEST(FusedFeatureParityTest, PlannedGeometryDescriptorMatchesDirect) {
  // detect() fills every descriptor through its cached cell plan (clipped
  // cell intervals per grid column and per grid row, geometry blocks per
  // grid entry). Every grid entry must be byte-identical to the direct
  // per-candidate descriptor — at the detector's frame size, at an odd
  // size whose cells do not divide evenly, and at a frame smaller than the
  // large anchors, where every box clips. Same-size frames at several
  // scales also prove the plan is re-keyed on the feature scale.
  const std::array<Size, 3> sizes = {{{360, 720}, {361, 719}, {40, 30}}};
  std::uint64_t seed = 6100;
  for (const Size size : sizes) {
    const gfx::Bitmap bmp = randomBitmap(size.width, size.height, ++seed);
    for (const int scale : {1, 2, 3}) {
      OneStageConfig config;
      config.featureScale = scale;
      const FeatureMap map(bmp, config.channels, scale);
      const std::vector<Rect> grid = referenceGrid(config, size);
      const std::vector<float> planned = plannedDescriptors(config, map);
      ASSERT_EQ(planned.size(), grid.size() * kCandidateFeatureDim);
      for (std::size_t r = 0; r < grid.size(); ++r) {
        const std::vector<float> direct = candidateFeatures(map, grid[r]);
        const std::vector<float> reference =
            referenceDescriptor(map, grid[r]);
        const float* row = planned.data() + r * kCandidateFeatureDim;
        ASSERT_EQ(std::memcmp(direct.data(), reference.data(),
                              kCandidateFeatureDim * sizeof(float)),
                  0)
            << "direct vs rect-by-rect reference, grid entry " << r;
        if (std::memcmp(direct.data(), row,
                        kCandidateFeatureDim * sizeof(float)) != 0) {
          for (int k = 0; k < kCandidateFeatureDim; ++k) {
            EXPECT_EQ(direct[static_cast<std::size_t>(k)], row[k])
                << "feature " << k;
          }
          FAIL() << size.width << "x" << size.height << " scale=" << scale
                 << " grid entry " << r << " box (" << grid[r].x << ","
                 << grid[r].y << "," << grid[r].width << ","
                 << grid[r].height << ")";
        }
      }
    }
  }
}

// ------------------------------------------------ batched detect parity

void expectDetectionsEq(const std::vector<Detection>& a,
                        const std::vector<Detection>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.x, b[i].box.x) << label << " i=" << i;
    EXPECT_EQ(a[i].box.y, b[i].box.y) << label << " i=" << i;
    EXPECT_EQ(a[i].box.width, b[i].box.width) << label << " i=" << i;
    EXPECT_EQ(a[i].box.height, b[i].box.height) << label << " i=" << i;
    EXPECT_EQ(a[i].label, b[i].label) << label << " i=" << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << label << " i=" << i;
  }
}

TEST(OneStageTest, BatchedHeadBitEqualsScalarDetect) {
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 120;
  dataConfig.seed = 31;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);
  cv::TrainConfig trainConfig;
  trainConfig.epochs = 6;
  trainConfig.benignImages = 20;
  OneStageDetector batched =
      OneStageDetector::train(data, OneStageConfig{}, trainConfig);
  ASSERT_TRUE(batched.config().batchedHead);

  // Same weights through the scalar per-candidate path.
  const std::string path = testing::TempDir() + "/one_stage_parity.bin";
  ASSERT_TRUE(batched.saveModel(path));
  OneStageConfig scalarConfig;
  scalarConfig.batchedHead = false;
  auto scalar = OneStageDetector::loadModel(path, scalarConfig);
  ASSERT_TRUE(scalar.has_value());

  std::vector<gfx::Bitmap> images;
  for (std::size_t i = 0; i < 6 && i < data.testIndices().size(); ++i) {
    images.push_back(data.materialize(data.testIndices()[i]).image);
  }
  images.push_back(randomBitmap(360, 720, 404));
  for (std::size_t i = 0; i < images.size(); ++i) {
    expectDetectionsEq(batched.detect(images[i]), scalar->detect(images[i]),
                       "image " + std::to_string(i));
  }

  // The int8 head (Tables III/IV) takes its tiles row-major; same contract.
  batched.enableQuantized(images);
  scalar->enableQuantized(images);
  for (std::size_t i = 0; i < images.size(); ++i) {
    expectDetectionsEq(batched.detect(images[i]),
                       scalar->detect(images[i]),
                       "int8 image " + std::to_string(i));
  }
}

TEST(OneStageTest, LoadModelRejectsHeadOfOtherHiddenWidths) {
  // A cached head with the right input and output widths but different
  // hidden layers must not load under a config that trains other ones.
  Rng rng(17);
  const nn::Mlp head({kCandidateFeatureDim, 8, 6}, rng);
  const std::string path = testing::TempDir() + "/one_stage_shape.bin";
  {
    std::ofstream out(path, std::ios::binary);
    head.save(out);
    ASSERT_TRUE(out.good());
  }
  EXPECT_FALSE(OneStageDetector::loadModel(path, OneStageConfig{}).has_value());
  OneStageConfig matching;
  matching.hiddenLayers = {8};
  const auto loaded = OneStageDetector::loadModel(path, matching);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->head().parameterCount(), head.parameterCount());
}

TEST(TwoStageTest, ModelNames) {
  EXPECT_EQ(twoStageModelName(HeadKind::kFaster, Backbone::kV),
            "Faster RCNN-like+V16");
  EXPECT_EQ(twoStageModelName(HeadKind::kMask, Backbone::kR),
            "Mask RCNN-like+R50");
}

TEST(TwoStageTest, ProposalsCoverSalientPlate) {
  gfx::Bitmap bmp(360, 720, colors::kWhite);
  bmp.fillRect({100, 300, 150, 150}, colors::kRed);  // big salient block
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 20;
  dataConfig.seed = 3;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);
  TwoStageTrainConfig trainConfig;
  trainConfig.epochs = 1;
  trainConfig.benignImages = 2;
  const TwoStageDetector detector =
      TwoStageDetector::train(data, TwoStageConfig{}, trainConfig);
  double best = 0.0;
  for (const Rect& prop : detector.proposals(bmp)) {
    best = std::max(best, iou(prop, Rect{100, 300, 150, 150}));
  }
  EXPECT_GT(best, 0.5);
}

}  // namespace
}  // namespace darpa::cv
