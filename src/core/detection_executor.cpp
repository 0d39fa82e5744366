#include "core/detection_executor.h"

#include <utility>

namespace darpa::core {

std::vector<cv::Detection> InlineExecutor::detect(const cv::Detector& detector,
                                                  FramePtr frame) {
  std::vector<cv::Detection> detections = detector.detect(frame->pixels());
  // §IV-E rinse discipline: drop our reference the moment the model ran;
  // the frame scrubs its pixels when the last holder (usually the analysis
  // context finishing this same pass) lets go.
  frame.reset();
  return detections;
}

InlineExecutor& defaultInlineExecutor() {
  static InlineExecutor executor;
  return executor;
}

}  // namespace darpa::core
