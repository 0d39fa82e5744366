#include "layers.h"

#include <algorithm>

#include "cv/features.h"
#include "cv/refine.h"

namespace perfbench {

using namespace darpa;

void LayerProbe::sample(android::AndroidSystem& system,
                        core::DarpaService& decorator,
                        const cv::OneStageDetector& detector,
                        const analysis::LintEngine& lint) {
  const android::WindowManager& wm = system.windowManager;
  const cv::OneStageConfig& config = detector.config();

  Clock::time_point t0 = Clock::now();
  const gfx::Bitmap shot = wm.composite();
  composite_.push_back(msSince(t0));

  t0 = Clock::now();
  const android::UiDump dump = wm.dumpTopWindow();
  dump_.push_back(msSince(t0));

  t0 = Clock::now();
  (void)android::WindowManager::fingerprint(dump);
  fingerprint_.push_back(msSince(t0));

  t0 = Clock::now();
  (void)lint.run(dump, wm.config().screenSize);
  lint_.push_back(msSince(t0));

  t0 = Clock::now();
  const cv::FeatureMap map(shot, config.channels, config.featureScale);
  features_.push_back(msSince(t0));

  t0 = Clock::now();
  const std::vector<Rect> boxes = detector.candidateBoxes(shot.size());
  const int rows = static_cast<int>(boxes.size());
  const std::size_t dim = cv::kCandidateFeatureDim;
  matrix_.resize(boxes.size() * dim);
  for (std::size_t r = 0; r < boxes.size(); ++r) {
    cv::candidateFeaturesInto(map, boxes[r], {matrix_.data() + r * dim, dim});
  }
  descriptors_.push_back(msSince(t0));

  const nn::Mlp& head = detector.head();
  logits_.resize(boxes.size() * static_cast<std::size_t>(head.outputSize()));
  t0 = Clock::now();
  head.forwardBatch(matrix_, rows, logits_, scratch_);
  head_.push_back(msSince(t0));
  headRows_ += rows;

  t0 = Clock::now();
  const std::vector<cv::Detection> detections = detector.detect(shot);
  detect_.push_back(msSince(t0));
  detections_ += static_cast<std::int64_t>(detections.size());

  t0 = Clock::now();
  for (const cv::Detection& d : detections) {
    (void)cv::snapToRegion(shot, d.box, config.refine);
  }
  refine_.push_back(msSince(t0));

  const bool aui = std::any_of(
      detections.begin(), detections.end(), [](const cv::Detection& d) {
        return d.label == dataset::BoxLabel::kUpo;
      });
  if (aui) {
    t0 = Clock::now();
    decorator.decorate(detections);
    decorate_.push_back(msSince(t0));
    decorator.clearDecorations();
  }
}

void LayerProbe::emit(Metrics& out, double untracedVerdictMs) const {
  const double n = std::max<double>(1.0, static_cast<double>(screens()));
  const double detectMean = mean(detect_);
  const double subLayers =
      mean(features_) + mean(descriptors_) + mean(head_) + mean(refine_);
  // Decoration runs on AUI screens only; its per-screen share is its total
  // over every probed screen.
  double decorateTotal = 0.0;
  for (const double v : decorate_) decorateTotal += v;

  out.set("android.composite_ms", mean(composite_), "ms");
  out.set("android.dump_ms", mean(dump_), "ms");
  out.set("android.fingerprint_ms", mean(fingerprint_), "ms");
  out.set("analysis.lint_ms", mean(lint_), "ms");
  out.set("cv.features_ms", mean(features_), "ms");
  out.set("cv.descriptors_ms", mean(descriptors_), "ms");
  out.set("nn.head_ms", mean(head_), "ms");
  out.set("nn.head_rows", static_cast<double>(headRows_) / n, "count");
  out.set("cv.detect_ms_p50", quantile(detect_, 0.50), "ms");
  out.set("cv.detect_ms_p99", quantile(detect_, 0.99), "ms");
  out.set("cv.refine_ms", mean(refine_), "ms");
  out.set("cv.detections_per_screen", static_cast<double>(detections_) / n,
          "count");
  out.set("cv.detect_unattributed_ms", detectMean - subLayers, "ms");
  out.set("core.decorate_ms", mean(decorate_), "ms");
  out.set("trace.probe_screens", n, "count");
  const double attributed = mean(composite_) + mean(dump_) +
                            mean(fingerprint_) + detectMean +
                            decorateTotal / n;
  out.set("trace.attribution_coverage",
          untracedVerdictMs > 0.0 ? attributed / untracedVerdictMs : 0.0,
          "ratio");
}

}  // namespace perfbench
