// The one-stage grid detector — this reproduction's YOLOv5.
//
// Dense prediction over per-anchor grids: every anchor shape is slid over
// the image at a stride proportional to its size (fine grid for 20-px close
// icons, coarse grid for 200-px CTA buttons), every candidate box gets a
// descriptor from the FeatureMap (src/cv/features.h), and a shared MLP head
// predicts [AGO logit, UPO logit, dx, dy, dw, dh]. Training matches each
// ground-truth box to the best-shape anchor at the nearest grid position
// (YOLO-style), with periodic hard-negative mining rounds; inference
// decodes, NMS-filters, and flood-fill-refines boxes (src/cv/refine.h) to
// survive the paper's IoU >= 0.9 scoring.
//
// The head can run in fp32 ("server", Table IV top) or through the int8
// QuantizedMlp ("ncnn port on the phone", Table III) — enableQuantized()
// flips the mode after calibration.
#pragma once

#include <memory>
#include <string>
#include <optional>
#include <vector>

#include "cv/detector.h"
#include "cv/features.h"
#include "cv/refine.h"
#include "dataset/dataset.h"
#include "nn/mlp.h"
#include "nn/quantize.h"

namespace darpa::cv {

/// Anchor shape (full-res pixels) and the grid stride it is slid at.
struct Anchor {
  int width = 0;
  int height = 0;

  friend bool operator==(const Anchor&, const Anchor&) = default;

  /// Stride proportional to the anchor's smaller side, clamped to [8, 32]:
  /// small objects need dense coverage, large ones don't.
  [[nodiscard]] int stride() const {
    const int s = std::min(width, height) / 2;
    return s < 8 ? 8 : (s > 32 ? 32 : s);
  }
};

struct OneStageConfig {
  /// Anchor shapes tuned to the option-size families of the AUI taxonomy:
  /// tiny close icons, short text strips, wide CTA buttons, large round
  /// promo buttons.
  std::vector<Anchor> anchors = {{20, 20}, {56, 18}, {210, 48}, {130, 130}};
  ChannelSet channels = ChannelSet::all();
  int featureScale = 2;
  std::vector<int> hiddenLayers = {48, 24};
  /// Per-class confidence thresholds. The UPO threshold is lower because the
  /// flood-fill verification stage (dropUnrefined) already removes most
  /// low-confidence false alarms, so recall is cheap for tiny options.
  float confidenceThresholdAgo = 0.7f;
  float confidenceThresholdUpo = 0.17f;
  double nmsIou = 0.45;
  RefineConfig refine;
  /// Shape-IoU above which an extra anchor at the target position is also
  /// positive.
  double extraPositiveShapeIou = 0.6;
  /// Position-IoU below which a candidate is a clean negative.
  double negativeIou = 0.3;
  /// Drop detections whose flood-fill refinement fails: a detection that
  /// does not correspond to a solid rendered plate is almost always a panel
  /// border or texture, and a ghost option that cannot be snapped would
  /// miss the IoU 0.9 bar anyway.
  bool dropUnrefined = true;
  /// Score the anchor grid tile by tile (descriptors filled through the
  /// cell plan straight into the head's feature-major tiles) instead of
  /// candidateFeatures() and one forward() per candidate. Bit-equal by
  /// construction (same descriptor values, same per-row accumulation
  /// order), so this is purely a throughput switch; off exists for the
  /// equality tests and the bench's scalar baseline.
  bool batchedHead = true;
};

struct TrainConfig {
  int epochs = 36;
  float learningRate = 2e-3f;
  /// Halve the learning rate every this many epochs (0 = never).
  int lrDecayEvery = 14;
  /// Re-run hard-negative mining (full candidate sweep) every N epochs;
  /// between rounds the per-image example selection is reused.
  int miningEvery = 2;
  int hardNegativesPerImage = 48;
  int randomNegativesPerImage = 24;
  /// Each positive example is repeated this many times per step to offset
  /// the heavy negative imbalance (tiny UPOs drown otherwise).
  int positiveRepeat = 4;
  float boxLossWeight = 2.0f;
  /// Benign screenshots mixed in as negative-only images; keeps the head
  /// calibrated on non-AUI context at runtime (Table VI precision).
  int benignImages = 150;
  /// Train on text-masked screenshots (the paper's Fig.-7 experiment
  /// re-trains a second model on masked data).
  bool maskText = false;
  std::uint64_t seed = 7;
};

class OneStageDetector : public Detector {
 public:
  /// Trains a head on the dataset's train split.
  static OneStageDetector train(const dataset::AuiDataset& data,
                                const OneStageConfig& config,
                                const TrainConfig& trainConfig);

  // Detector interface.
  [[nodiscard]] std::vector<Detection> detect(
      const gfx::Bitmap& screenshot) const override;
  [[nodiscard]] double costMacsPerImage() const override;

  /// Converts the head to int8 using `calibrationImages` (typically the
  /// validation split) and switches inference to the quantized path.
  void enableQuantized(std::span<const gfx::Bitmap> calibrationImages);
  void disableQuantized() { useQuantized_ = false; }
  [[nodiscard]] bool quantized() const { return useQuantized_; }
  /// Always "scalar": the int8 head has one implementation. Kept only
  /// because perfbench's host fingerprint still reads it.
  [[nodiscard]] static const char* quantizedKernelLane() { return "scalar"; }
  /// Parameter footprint of the active model in bytes.
  [[nodiscard]] std::size_t modelBytes() const;

  [[nodiscard]] const OneStageConfig& config() const { return config_; }
  [[nodiscard]] const nn::Mlp& head() const { return *head_; }

  /// All candidate boxes for an image of `size` — exposed for tests.
  [[nodiscard]] std::vector<Rect> candidateBoxes(Size size) const;

  /// Persists / restores the trained head (fp32). The config is NOT stored;
  /// the loader must pass the same OneStageConfig used at training time.
  bool saveModel(const std::string& path) const;
  [[nodiscard]] static std::optional<OneStageDetector> loadModel(
      const std::string& path, const OneStageConfig& config);

 private:
  explicit OneStageDetector(OneStageConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::vector<float> runHead(std::span<const float> features) const;
  /// Tail of detect(): NMS, flood-fill refinement, duplicate merge.
  [[nodiscard]] std::vector<Detection> postprocess(
      std::vector<Detection> raw, const gfx::Bitmap& screenshot) const;

  OneStageConfig config_;
  std::unique_ptr<nn::Mlp> head_;
  std::optional<nn::QuantizedMlp> quantizedHead_;
  bool useQuantized_ = false;
};

/// The descriptor rows the batched detect() scores for every anchor-grid
/// candidate of `map`'s frame, in candidateBoxes() order, row-major —
/// filled exactly as detect() fills them: through this thread's cached cell
/// plan, feature-major, one head tile at a time. Exposed so tests can hold
/// every row to candidateFeatures().
[[nodiscard]] std::vector<float> plannedDescriptors(
    const OneStageConfig& config, const FeatureMap& map);

/// Per-thread scratch statistics for the detector hot path: the batched
/// detect path's arenas (cell plan, descriptor tile, logits, MLP forward
/// scratch) plus the fused feature pass's arena. Growths stop once the
/// working sizes have been seen; the pipeline's detect stage diffs this
/// around detect calls and the hot-path bench asserts zero steady-state
/// growth.
struct DetectScratchStats {
  std::int64_t growths = 0;
  std::int64_t grownBytes = 0;
};
[[nodiscard]] DetectScratchStats hotpathScratchStats();

/// Per-class and overall metrics of a detector over a set of dataset
/// samples — the exact quantities of Tables III/IV/V.
struct ModelMetrics {
  EvalCounts upo;
  EvalCounts ago;
  [[nodiscard]] EvalCounts all() const {
    EvalCounts total = upo;
    total += ago;
    return total;
  }
};

/// Runs `detector` over the given dataset indices at the paper's IoU 0.9.
[[nodiscard]] ModelMetrics evaluateDetector(
    const Detector& detector, const dataset::AuiDataset& data,
    const std::vector<std::size_t>& indices, bool maskText = false,
    double iouThreshold = 0.9);

}  // namespace darpa::cv
