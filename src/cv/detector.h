// Abstract detector interface shared by the one-stage model, the two-stage
// baselines, and DARPA's runtime (which only needs "screenshot in, labeled
// boxes out").
#pragma once

#include <vector>

#include "cv/detection.h"
#include "gfx/bitmap.h"

namespace darpa::cv {

class Detector {
 public:
  virtual ~Detector() = default;

  /// Detects AGO/UPO options in a screenshot.
  [[nodiscard]] virtual std::vector<Detection> detect(
      const gfx::Bitmap& screenshot) const = 0;

  /// Rough compute cost of one detect() call in multiply-accumulates —
  /// consumed by the simulated device's performance model.
  [[nodiscard]] virtual double costMacsPerImage() const = 0;

  /// Modeled cost of `batchSize` images, in MACs. Nothing in the runtime
  /// calls it any more (the pipeline prices detect at costMacsPerImage());
  /// it is kept only because the benchmark's forwarding TimedDetector
  /// (perfbench/src/util.h) overrides it.
  [[nodiscard]] virtual double costMacsPerBatch(int batchSize) const {
    return batchSize * costMacsPerImage();
  }
};

}  // namespace darpa::cv
