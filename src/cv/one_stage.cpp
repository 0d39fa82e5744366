#include "cv/one_stage.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>

#include "nn/losses.h"
#include "util/log.h"

namespace darpa::cv {

namespace {

/// Shape-only IoU (YOLO anchor matching): boxes concentric, compare sizes.
double shapeIou(const Anchor& anchor, const Rect& gt) {
  const double interW = std::min(anchor.width, gt.width);
  const double interH = std::min(anchor.height, gt.height);
  const double inter = interW * interH;
  const double uni = static_cast<double>(anchor.width) * anchor.height +
                     static_cast<double>(gt.width) * gt.height - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

/// A grid candidate: anchor index + grid center position.
struct GridPos {
  int anchorIdx = 0;
  int cx = 0;
  int cy = 0;

  [[nodiscard]] Rect box(const std::vector<Anchor>& anchors) const {
    const Anchor& a = anchors[static_cast<std::size_t>(anchorIdx)];
    return {cx - a.width / 2, cy - a.height / 2, a.width, a.height};
  }
};

/// Grid centres along one axis of `extent` pixels: stride/2, stride/2 +
/// stride, ... while inside the frame.
int gridSteps(int extent, int stride) {
  const int first = stride / 2;
  return extent > first ? (extent - first + stride - 1) / stride : 0;
}

/// Enumerates all grid positions for an image size into a reused buffer:
/// anchor-major, then rows, then columns — the order detect() scores in.
void enumerateGridInto(const OneStageConfig& config, Size size,
                       std::vector<GridPos>& grid) {
  grid.clear();
  for (std::size_t a = 0; a < config.anchors.size(); ++a) {
    const int stride = config.anchors[a].stride();
    for (int yi = 0; yi < gridSteps(size.height, stride); ++yi) {
      for (int xi = 0; xi < gridSteps(size.width, stride); ++xi) {
        grid.push_back(GridPos{static_cast<int>(a), stride / 2 + xi * stride,
                               stride / 2 + yi * stride});
      }
    }
  }
}

std::vector<GridPos> enumerateGrid(const OneStageConfig& config, Size size) {
  std::vector<GridPos> grid;
  enumerateGridInto(config, size, grid);
  return grid;
}

/// One anchor's share of the cell plan: its grid's column and row counts and
/// where its per-column x axes and per-row y axes start in the plan.
struct AnchorPlan {
  int columns = 0;
  int rows = 0;
  std::size_t firstColumn = 0;
  std::size_t firstRow = 0;
};

/// Per-thread arena for the batched detect path: the cell plan (cached
/// across same-sized frames), one descriptor tile, its logits, and the MLP
/// forward scratch. Buffer growths are counted so the detect stage and the
/// hot-path bench can assert the steady state allocates nothing.
struct DetectScratch {
  /// The separable cell plan, keyed by (frame size, anchors, feature
  /// scale): per anchor, one DescriptorAxis per grid column and one per
  /// grid row (a candidate's descriptor rects are products of the two), and
  /// the geometric descriptor block of every grid entry in grid order. Both
  /// are pure functions of the key, produced by the very functions the
  /// direct descriptor path runs, so replaying them is bit-equal.
  Size planSize{-1, -1};
  int planScale = 0;
  std::vector<Anchor> planAnchors;
  std::vector<AnchorPlan> anchorPlans;
  std::vector<DescriptorAxis> axes;
  std::vector<float> geometry;
  /// One tile of descriptors (feature-major for the fp32 head, row-major
  /// for the int8 head) and its logits.
  std::vector<float> tile;
  std::vector<float> logits;
  /// Training's hard-negative scoring matrix.
  std::vector<float> features;
  nn::ForwardScratch forward;
  std::int64_t growths = 0;
  std::int64_t grownBytes = 0;

  template <typename T>
  T* ensure(std::vector<T>& v, std::size_t n) {
    const std::size_t before = v.capacity();
    if (n > before) {
      v.reserve(n);
      ++growths;
      grownBytes +=
          static_cast<std::int64_t>((v.capacity() - before) * sizeof(T));
    }
    if (v.size() < n) v.resize(n);
    return v.data();
  }

  void planFor(const OneStageConfig& config, const FeatureMap& map) {
    const Size size = map.fullSize();
    if (size == planSize && map.scale() == planScale &&
        planAnchors == config.anchors) {
      return;
    }
    const std::size_t anchorCount = config.anchors.size();
    AnchorPlan* plans = ensure(anchorPlans, anchorCount);
    std::size_t axisCount = 0;
    std::size_t entries = 0;
    for (std::size_t a = 0; a < anchorCount; ++a) {
      const int stride = config.anchors[a].stride();
      AnchorPlan& p = plans[a];
      p.columns = gridSteps(size.width, stride);
      p.rows = gridSteps(size.height, stride);
      p.firstColumn = axisCount;
      p.firstRow = axisCount + static_cast<std::size_t>(p.columns);
      axisCount += static_cast<std::size_t>(p.columns + p.rows);
      entries += static_cast<std::size_t>(p.columns) * p.rows;
    }
    DescriptorAxis* axis = ensure(axes, axisCount);
    float* geo = ensure(geometry, entries * kCandidateGeometryDim);
    for (std::size_t a = 0; a < anchorCount; ++a) {
      const AnchorPlan& p = plans[a];
      const int stride = config.anchors[a].stride();
      const int first = stride / 2;
      const auto box = [&](int xi, int yi) {
        return GridPos{static_cast<int>(a), first + xi * stride,
                       first + yi * stride}
            .box(config.anchors);
      };
      for (int xi = 0; xi < p.columns; ++xi) {
        axis[p.firstColumn + xi] = descriptorAxes(map, box(xi, 0)).x;
      }
      for (int yi = 0; yi < p.rows; ++yi) {
        axis[p.firstRow + yi] = descriptorAxes(map, box(0, yi)).y;
      }
      for (int yi = 0; yi < p.rows; ++yi) {
        for (int xi = 0; xi < p.columns; ++xi) {
          candidateGeometryInto(
              size, box(xi, yi),
              {geo, static_cast<std::size_t>(kCandidateGeometryDim)});
          geo += kCandidateGeometryDim;
        }
      }
    }
    planSize = size;
    planScale = map.scale();
    planAnchors = config.anchors;
  }
};

DetectScratch& detectScratch() {
  thread_local DetectScratch scratch;
  return scratch;
}

/// Fills the descriptor of every anchor-grid candidate of `map`'s frame, in
/// grid order, through the cached cell plan, into `s.tile` one tile of
/// nn::Mlp::kTileRows candidates at a time: feature k of tile row n goes to
/// tile[n * rowStep + k * featureStride]. After each full tile, and after
/// the last partial one, calls onTile(rows, positions).
template <typename OnTile>
void fillDescriptorTiles(const OneStageConfig& config, const FeatureMap& map,
                         DetectScratch& s, bool featureMajor,
                         OnTile&& onTile) {
  constexpr int kRows = nn::Mlp::kTileRows;
  s.planFor(config, map);
  float* tile = s.ensure(s.tile, static_cast<std::size_t>(kRows) *
                                     kCandidateFeatureDim);
  const std::size_t featureStride = featureMajor ? kRows : 1;
  const std::size_t rowStep = featureMajor ? 1 : kCandidateFeatureDim;
  std::array<GridPos, kRows> positions;
  const float* geometry = s.geometry.data();
  int n = 0;
  for (std::size_t a = 0; a < config.anchors.size(); ++a) {
    const AnchorPlan& p = s.anchorPlans[a];
    const int stride = config.anchors[a].stride();
    for (int yi = 0; yi < p.rows; ++yi) {
      const DescriptorAxis& y = s.axes[p.firstRow + yi];
      for (int xi = 0; xi < p.columns; ++xi) {
        candidateFeaturesPlannedInto(map, s.axes[p.firstColumn + xi], y,
                                     geometry, tile + n * rowStep,
                                     featureStride);
        geometry += kCandidateGeometryDim;
        positions[static_cast<std::size_t>(n)] =
            GridPos{static_cast<int>(a), stride / 2 + xi * stride,
                    stride / 2 + yi * stride};
        if (++n == kRows) {
          onTile(n, positions.data());
          n = 0;
        }
      }
    }
  }
  if (n > 0) onTile(n, positions.data());
}

/// Thresholds + decodes one candidate's head output into `raw` — the exact
/// scalar-path logic, shared by the batched and scalar detect loops.
void decodeCandidate(const OneStageConfig& config, const GridPos& pos,
                     const float* out, std::vector<Detection>& raw) {
  const Anchor& anchor = config.anchors[static_cast<std::size_t>(pos.anchorIdx)];
  const float confAgo = nn::sigmoid(out[0]);
  const float confUpo = nn::sigmoid(out[1]);
  const bool agoFires = confAgo >= config.confidenceThresholdAgo;
  const bool upoFires = confUpo >= config.confidenceThresholdUpo;
  if (!agoFires && !upoFires) return;
  const float best =
      std::max(agoFires ? confAgo : 0.0f, upoFires ? confUpo : 0.0f);
  const int stride = anchor.stride();
  const float dx = std::clamp(out[2], -2.0f, 2.0f);
  const float dy = std::clamp(out[3], -2.0f, 2.0f);
  const float dw = std::clamp(out[4], -2.0f, 2.0f);
  const float dh = std::clamp(out[5], -2.0f, 2.0f);
  const float w = static_cast<float>(anchor.width) * std::exp(dw);
  const float h = static_cast<float>(anchor.height) * std::exp(dh);
  const float bx = static_cast<float>(pos.cx) + dx * stride - w / 2;
  const float by = static_cast<float>(pos.cy) + dy * stride - h / 2;
  Detection det;
  det.box = RectF{bx, by, w, h}.toRect();
  det.label = (agoFires && (!upoFires || confAgo >= confUpo))
                  ? dataset::BoxLabel::kAgo
                  : dataset::BoxLabel::kUpo;
  det.confidence = best;
  raw.push_back(det);
}

/// A selected training example: cached descriptor + targets.
struct TrainExample {
  std::vector<float> features;
  int classTarget = -1;  ///< -1 negative, 0 AGO, 1 UPO.
  float dx = 0, dy = 0, dw = 0, dh = 0;
};

/// Matching result for one grid position.
struct MatchInfo {
  int classTarget = -1;
  bool ignore = false;
  float dx = 0, dy = 0, dw = 0, dh = 0;
};

MatchInfo matchCandidate(const OneStageConfig& config, const GridPos& pos,
                         std::span<const dataset::Annotation> annotations) {
  MatchInfo info;
  const Anchor& anchor = config.anchors[static_cast<std::size_t>(pos.anchorIdx)];
  const int stride = anchor.stride();
  const Rect box = pos.box(config.anchors);
  double bestPosIou = 0.0;
  for (const dataset::Annotation& gt : annotations) {
    bestPosIou = std::max(bestPosIou, iou(box, gt.box));
    const Point center = gt.box.center();
    // This grid position owns the GT if it is the nearest position of this
    // anchor's grid to the GT center.
    const bool owns = std::abs(center.x - pos.cx) <= stride / 2 &&
                      std::abs(center.y - pos.cy) <= stride / 2;
    if (!owns) continue;
    double bestShape = 0.0;
    std::size_t bestAnchor = 0;
    for (std::size_t b = 0; b < config.anchors.size(); ++b) {
      const double s = shapeIou(config.anchors[b], gt.box);
      if (s > bestShape) {
        bestShape = s;
        bestAnchor = b;
      }
    }
    const double myShape = shapeIou(anchor, gt.box);
    if (bestAnchor == static_cast<std::size_t>(pos.anchorIdx) ||
        myShape >= config.extraPositiveShapeIou) {
      info.classTarget = gt.label == dataset::BoxLabel::kAgo ? 0 : 1;
      info.dx = static_cast<float>(center.x - pos.cx) / stride;
      info.dy = static_cast<float>(center.y - pos.cy) / stride;
      info.dw = std::log(static_cast<float>(gt.box.width) /
                         static_cast<float>(anchor.width));
      info.dh = std::log(static_cast<float>(gt.box.height) /
                         static_cast<float>(anchor.height));
    }
  }
  if (info.classTarget < 0 && bestPosIou >= config.negativeIou) {
    info.ignore = true;
  }
  return info;
}

}  // namespace

std::vector<Rect> OneStageDetector::candidateBoxes(Size size) const {
  std::vector<Rect> boxes;
  for (const GridPos& pos : enumerateGrid(config_, size)) {
    boxes.push_back(pos.box(config_.anchors));
  }
  return boxes;
}

OneStageDetector OneStageDetector::train(const dataset::AuiDataset& data,
                                         const OneStageConfig& config,
                                         const TrainConfig& trainConfig) {
  OneStageDetector detector(config);
  Rng rng(trainConfig.seed);

  // The training corpus: AUI split + benign negative-only images, described
  // by a closure that can re-render any of them on demand (screenshots are
  // NOT kept in memory; mining rounds re-render).
  struct ImageRef {
    bool benign = false;
    std::size_t datasetIdx = 0;
    std::uint64_t benignSeed = 0;
    bool benignHard = false;
  };
  std::vector<ImageRef> refs;
  for (std::size_t idx : data.trainIndices()) {
    refs.push_back(ImageRef{false, idx, 0, false});
  }
  for (int i = 0; i < trainConfig.benignImages; ++i) {
    refs.push_back(ImageRef{true, 0, rng.next(), i % 3 == 0});
  }
  auto render = [&](const ImageRef& ref) {
    return ref.benign
               ? dataset::materializeBenign(ref.benignSeed,
                                            data.config().screenSize,
                                            ref.benignHard)
               : data.materialize(ref.datasetIdx, trainConfig.maskText);
  };

  // Head.
  std::vector<int> layerSizes;
  layerSizes.push_back(kCandidateFeatureDim);
  for (int h : config.hiddenLayers) layerSizes.push_back(h);
  layerSizes.push_back(6);
  detector.head_ = std::make_unique<nn::Mlp>(layerSizes, rng);

  // Per-image selected example caches, refreshed at mining rounds.
  std::vector<std::vector<TrainExample>> selections(refs.size());

  auto mineImage = [&](std::size_t r) {
    const dataset::Sample sample = render(refs[r]);
    const FeatureMap map(sample.image, config.channels, config.featureScale);
    const std::vector<GridPos> grid =
        enumerateGrid(config, sample.image.size());

    std::vector<TrainExample> selected;
    struct ScoredNegative {
      float score;
      const GridPos* pos;
    };
    // First sweep: select positives, collect negative candidates.
    std::vector<const GridPos*> negPos;
    for (const GridPos& pos : grid) {
      const MatchInfo info = matchCandidate(config, pos, sample.annotations);
      if (info.classTarget >= 0) {
        TrainExample ex;
        ex.features = candidateFeatures(map, pos.box(config.anchors));
        ex.classTarget = info.classTarget;
        ex.dx = info.dx;
        ex.dy = info.dy;
        ex.dw = info.dw;
        ex.dh = info.dh;
        selected.push_back(std::move(ex));
      } else if (!info.ignore) {
        negPos.push_back(&pos);
      }
    }
    // Hard-negative scoring in one batched head call (bit-equal to the old
    // per-candidate forward loop, so mining picks the same negatives).
    std::vector<ScoredNegative> negatives;
    if (!negPos.empty()) {
      DetectScratch& s = detectScratch();
      const std::size_t rows = negPos.size();
      const std::size_t dim = kCandidateFeatureDim;
      float* feats = s.ensure(s.features, rows * dim);
      for (std::size_t i = 0; i < rows; ++i) {
        candidateFeaturesInto(map, negPos[i]->box(config.anchors),
                              {feats + i * dim, dim});
      }
      float* logits = s.ensure(s.logits, rows * 6);
      detector.head_->forwardBatch({feats, rows * dim},
                                   static_cast<int>(rows), {logits, rows * 6},
                                   s.forward);
      negatives.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        negatives.push_back(ScoredNegative{
            std::max(logits[i * 6 + 0], logits[i * 6 + 1]), negPos[i]});
      }
    }
    std::sort(negatives.begin(), negatives.end(),
              [](const ScoredNegative& a, const ScoredNegative& b) {
                return a.score > b.score;
              });
    const std::size_t hardCount = std::min<std::size_t>(
        negatives.size(),
        static_cast<std::size_t>(trainConfig.hardNegativesPerImage));
    for (std::size_t i = 0; i < hardCount; ++i) {
      TrainExample ex;
      ex.features =
          candidateFeatures(map, negatives[i].pos->box(config.anchors));
      selected.push_back(std::move(ex));
    }
    for (int i = 0;
         i < trainConfig.randomNegativesPerImage && !negatives.empty(); ++i) {
      const std::size_t pick = rng.next() % negatives.size();
      TrainExample ex;
      ex.features =
          candidateFeatures(map, negatives[pick].pos->box(config.anchors));
      selected.push_back(std::move(ex));
    }
    selections[r] = std::move(selected);
  };

  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  nn::AdamConfig adam;
  adam.learningRate = trainConfig.learningRate;
  const int miningEvery = std::max(trainConfig.miningEvery, 1);
  // Hoisted backprop buffers: one Cache for the whole training run instead
  // of one per example, so epochs stop churning the heap.
  nn::Mlp::Cache cache;
  std::array<float, 6> dOut{};
  for (int epoch = 0; epoch < trainConfig.epochs; ++epoch) {
    if (trainConfig.lrDecayEvery > 0 && epoch > 0 &&
        epoch % trainConfig.lrDecayEvery == 0) {
      adam.learningRate *= 0.5f;
    }
    if (epoch % miningEvery == 0) {
      for (std::size_t r = 0; r < refs.size(); ++r) mineImage(r);
    }
    rng.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t r : order) {
      const std::vector<TrainExample>& selected = selections[r];
      if (selected.empty()) continue;
      int count = 0;
      for (const TrainExample& ex : selected) {
        const int repeat =
            ex.classTarget >= 0 ? std::max(trainConfig.positiveRepeat, 1) : 1;
        for (int rep = 0; rep < repeat; ++rep) {
          detector.head_->forwardCachedInto(ex.features, cache);
          const std::span<const float> out = cache.output();
          dOut.fill(0.0f);
          const float agoTarget = ex.classTarget == 0 ? 1.0f : 0.0f;
          const float upoTarget = ex.classTarget == 1 ? 1.0f : 0.0f;
          dOut[0] = nn::bceWithLogitsGrad(out[0], agoTarget);
          dOut[1] = nn::bceWithLogitsGrad(out[1], upoTarget);
          epochLoss += nn::bceWithLogits(out[0], agoTarget) +
                       nn::bceWithLogits(out[1], upoTarget);
          if (ex.classTarget >= 0) {
            const float w = trainConfig.boxLossWeight;
            dOut[2] = w * nn::smoothL1Grad(out[2], ex.dx);
            dOut[3] = w * nn::smoothL1Grad(out[3], ex.dy);
            dOut[4] = w * nn::smoothL1Grad(out[4], ex.dw);
            dOut[5] = w * nn::smoothL1Grad(out[5], ex.dh);
            epochLoss +=
                w * (nn::smoothL1(out[2], ex.dx) + nn::smoothL1(out[3], ex.dy) +
                     nn::smoothL1(out[4], ex.dw) + nn::smoothL1(out[5], ex.dh));
          }
          detector.head_->accumulateGradient(cache, dOut);
          ++count;
        }
      }
      detector.head_->applyAdam(adam, count);
    }
    logDebug("one-stage epoch ", epoch, " loss ", epochLoss);
  }
  return detector;
}

std::vector<float> OneStageDetector::runHead(
    std::span<const float> features) const {
  if (useQuantized_ && quantizedHead_) return quantizedHead_->forward(features);
  return head_->forward(features);
}

std::vector<Detection> OneStageDetector::postprocess(
    std::vector<Detection> raw, const gfx::Bitmap& screenshot) const {
  std::vector<Detection> kept =
      nonMaxSuppression(std::move(raw), config_.nmsIou);
  // Flood-fill refinement to the rendered option extent; failures are
  // either kept coarse or dropped per config.
  std::vector<Detection> refined;
  for (Detection& det : kept) {
    if (const auto snapped =
            snapToRegion(screenshot, det.box, config_.refine)) {
      det.box = *snapped;
      refined.push_back(det);
    } else if (!config_.dropUnrefined) {
      refined.push_back(det);
    }
  }
  // Refined boxes may have collapsed onto each other; merge duplicates.
  return nonMaxSuppression(std::move(refined), 0.8);
}

std::vector<Detection> OneStageDetector::detect(
    const gfx::Bitmap& screenshot) const {
  const FeatureMap map(screenshot, config_.channels, config_.featureScale);
  std::vector<Detection> raw;
  if (config_.batchedHead) {
    // Batched path: fill the anchor grid's descriptors a tile at a time —
    // feature-major, straight into the fp32 head's input layout — score
    // each tile, and decode in grid order (identical to the scalar loop's
    // order, so the Detection stream is bit-equal).
    DetectScratch& s = detectScratch();
    const bool int8 = useQuantized_ && quantizedHead_.has_value();
    constexpr std::size_t kRows = nn::Mlp::kTileRows;
    constexpr std::size_t dim = kCandidateFeatureDim;
    float* logits = s.ensure(s.logits, kRows * 6);
    fillDescriptorTiles(
        config_, map, s, !int8, [&](int rows, const GridPos* positions) {
          const std::size_t n = static_cast<std::size_t>(rows);
          if (int8) {
            quantizedHead_->forwardBatch({s.tile.data(), n * dim}, rows,
                                         {logits, n * 6}, s.forward);
          } else {
            head_->forwardTile({s.tile.data(), kRows * dim}, rows,
                               {logits, n * 6}, s.forward);
          }
          for (std::size_t r = 0; r < n; ++r) {
            decodeCandidate(config_, positions[r], logits + r * 6, raw);
          }
        });
  } else {
    for (const GridPos& pos : enumerateGrid(config_, screenshot.size())) {
      const std::vector<float> features =
          candidateFeatures(map, pos.box(config_.anchors));
      const std::vector<float> out = runHead(features);
      decodeCandidate(config_, pos, out.data(), raw);
    }
  }
  return postprocess(std::move(raw), screenshot);
}

double OneStageDetector::costMacsPerImage() const {
  // Head cost over all grid candidates plus the feature-extraction sweep.
  const Size size{360, 720};
  std::int64_t gridEntries = 0;
  for (const Anchor& anchor : config_.anchors) {
    gridEntries +=
        static_cast<std::int64_t>(gridSteps(size.width, anchor.stride())) *
        gridSteps(size.height, anchor.stride());
  }
  const double candidates = static_cast<double>(gridEntries);
  const double headMacs =
      head_ ? static_cast<double>(head_->parameterCount()) : 0.0;
  const double featureMacs =
      static_cast<double>(size.width) * size.height * 3.0;  // channel sweeps
  return candidates * headMacs + featureMacs;
}

std::vector<float> plannedDescriptors(const OneStageConfig& config,
                                      const FeatureMap& map) {
  constexpr std::size_t kRows = nn::Mlp::kTileRows;
  constexpr std::size_t dim = kCandidateFeatureDim;
  std::vector<float> rows;
  DetectScratch& s = detectScratch();
  fillDescriptorTiles(config, map, s, true, [&](int n, const GridPos*) {
    for (int r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < dim; ++k) {
        rows.push_back(s.tile[k * kRows + static_cast<std::size_t>(r)]);
      }
    }
  });
  return rows;
}

void OneStageDetector::enableQuantized(
    std::span<const gfx::Bitmap> calibrationImages) {
  std::vector<std::vector<float>> calibration;
  for (const gfx::Bitmap& image : calibrationImages) {
    const FeatureMap map(image, config_.channels, config_.featureScale);
    // Subsample the grid for calibration: every 7th candidate is plenty to
    // estimate activation ranges.
    const std::vector<GridPos> grid = enumerateGrid(config_, image.size());
    for (std::size_t i = 0; i < grid.size(); i += 7) {
      calibration.push_back(
          candidateFeatures(map, grid[i].box(config_.anchors)));
    }
  }
  quantizedHead_ = nn::QuantizedMlp::fromMlp(*head_, calibration);
  useQuantized_ = true;
  logDebug("one-stage quantized head enabled");
}

std::size_t OneStageDetector::modelBytes() const {
  if (useQuantized_ && quantizedHead_) return quantizedHead_->modelBytes();
  return head_ ? head_->parameterCount() * sizeof(float) : 0;
}

bool OneStageDetector::saveModel(const std::string& path) const {
  if (head_ == nullptr) return false;
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  head_->save(out);
  return static_cast<bool>(out);
}

std::optional<OneStageDetector> OneStageDetector::loadModel(
    const std::string& path, const OneStageConfig& config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  auto head = nn::Mlp::load(in);
  if (!head) return std::nullopt;
  // Fail closed unless the head is exactly the shape `config` trains: a
  // cached head with other hidden widths must not load under this config.
  std::vector<int> expected = {kCandidateFeatureDim};
  expected.insert(expected.end(), config.hiddenLayers.begin(),
                  config.hiddenLayers.end());
  expected.push_back(6);
  std::vector<int> actual = {head->inputSize()};
  for (const nn::DenseLayer& layer : head->layers()) {
    actual.push_back(layer.outSize);
  }
  if (actual != expected) return std::nullopt;
  OneStageDetector detector(config);
  detector.head_ = std::make_unique<nn::Mlp>(std::move(*head));
  return detector;
}

DetectScratchStats hotpathScratchStats() {
  const DetectScratch& s = detectScratch();
  const FeatureScratchStats& f = featureScratchStats();
  return {s.growths + s.forward.growths() + f.growths,
          s.grownBytes + s.forward.grownBytes() + f.grownBytes};
}

ModelMetrics evaluateDetector(const Detector& detector,
                              const dataset::AuiDataset& data,
                              const std::vector<std::size_t>& indices,
                              bool maskText, double iouThreshold) {
  ModelMetrics metrics;
  for (std::size_t idx : indices) {
    const dataset::Sample sample = data.materialize(idx, maskText);
    const std::vector<Detection> detections = detector.detect(sample.image);
    metrics.ago += evaluateImage(detections, sample.annotations, iouThreshold,
                                 dataset::BoxLabel::kAgo);
    metrics.upo += evaluateImage(detections, sample.annotations, iouThreshold,
                                 dataset::BoxLabel::kUpo);
  }
  return metrics;
}

}  // namespace darpa::cv
