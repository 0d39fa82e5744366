// Per-layer spans, taken in the benchmark's own code around calls into
// libdarpa's public functions — nothing inside src/ is instrumented.
//
// LayerProbe::sample() replays, on whatever screen is currently on top of
// a device's WindowManager, the layer calls one uncached analysis makes, in
// pipeline order: capture (composite), dump, fingerprint, lint, then the
// detector's sub-layers (feature planes, descriptor fill, head GEMM), the
// whole detect(), refine per returned box, and decoration on AUI screens.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "core/darpa_service.h"
#include "cv/one_stage.h"
#include "nn/mlp.h"
#include "util.h"

namespace perfbench {

class LayerProbe {
 public:
  /// `decorator` is a DarpaService connected to `system`; it only serves
  /// the timed decorate() call and is left with no overlays afterwards.
  void sample(darpa::android::AndroidSystem& system,
              darpa::core::DarpaService& decorator,
              const darpa::cv::OneStageDetector& detector,
              const darpa::analysis::LintEngine& lint);

  [[nodiscard]] int screens() const {
    return static_cast<int>(composite_.size());
  }

  /// Adds the span metrics plus trace.attribution_coverage: the layers an
  /// uncached analysis runs (capture, dump, fingerprint, detect, decorate)
  /// summed as per-screen means, over `untracedVerdictMs`, the untraced
  /// mean analyzeNow() time on the same kind of screens.
  void emit(Metrics& out, double untracedVerdictMs) const;

 private:
  std::vector<double> composite_, dump_, fingerprint_, lint_, features_,
      descriptors_, head_, detect_, refine_;
  std::vector<double> decorate_;  ///< AUI screens only.
  std::int64_t headRows_ = 0;
  std::int64_t detections_ = 0;
  std::vector<float> matrix_, logits_;
  darpa::nn::ForwardScratch scratch_;
};

}  // namespace perfbench
