// DetectionExecutor — the seam between the pipeline's detect stage and the
// CV backend.
//
// The paper's runtime is one phone: one Looper, one synchronous
// Detector::detect() call on the accessibility service's thread per stable
// screen (§IV). That is the only serving path here too, at any fleet size:
// every session detects inline on the worker thread currently advancing it
// (DESIGN.md §9 records why there is no deferred backend).
//
// Contract:
//  * detect() runs the model on the CALLER's thread and returns the
//    detections. It may be called concurrently from fleet worker threads;
//    implementations must be thread-safe (InlineExecutor is stateless).
//  * The frame is a shared ScreenFrame handle (custody transferred out of
//    the ScreenshotVault) — no pixel copy is made anywhere on the detect
//    path. The executor drops its reference right after the model ran; the
//    frame's destructor scrubs the pixels when the last holder lets go
//    (§IV-E rinse discipline, scrub-on-last-release).
//
// The seam stays so a harness can wrap detection (timing, fault injection)
// without touching the pipeline.
#pragma once

#include <vector>

#include "core/screen_frame.h"
#include "cv/detector.h"

namespace darpa::core {

class DetectionExecutor {
 public:
  virtual ~DetectionExecutor() = default;

  /// Runs `detector` over `frame`'s pixels on the calling thread and
  /// returns its detections. Thread-safe.
  [[nodiscard]] virtual std::vector<cv::Detection> detect(
      const cv::Detector& detector, FramePtr frame) = 0;
};

/// The default backend: detect() on the caller's thread. Stateless, so one
/// shared instance serves any number of sessions (and fleet worker threads)
/// concurrently.
class InlineExecutor : public DetectionExecutor {
 public:
  [[nodiscard]] std::vector<cv::Detection> detect(const cv::Detector& detector,
                                                  FramePtr frame) override;
};

/// Process-wide shared InlineExecutor — the default when DarpaConfig leaves
/// the executor unset.
[[nodiscard]] InlineExecutor& defaultInlineExecutor();

}  // namespace darpa::core
