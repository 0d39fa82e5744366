#include "fleet/device_session.h"

#include <algorithm>

namespace darpa::fleet {

DeviceSession::DeviceSession(const cv::Detector& detector, Config config)
    : config_(std::move(config)),
      system_(config_.window),
      service_(detector, config_.darpa),
      app_(system_, config_.profile, config_.appSeed),
      monkey_(system_, config_.monkeySeed) {
  if (config_.framePool != nullptr) {
    system_.windowManager.setFramePool(config_.framePool);
  }
  system_.accessibility.connect(service_);
  // The scoring listener records the positive-verdict timeline (Fig.-8
  // coverage needs it) and forwards to the harness's listener, exactly
  // where the hand-wired benches used to hook in.
  service_.setAnalysisListener(
      [this](bool isAui, const std::vector<cv::Detection>& detections) {
        if (isAui) positiveAnalyses_.push_back(system_.clock.now());
        if (userListener_) userListener_(isAui, detections);
      });
}

// Members tear down in reverse order: monkey and app first, then the
// service (its destructor removes decorations through the still-alive
// window manager), then the Android system.
DeviceSession::~DeviceSession() = default;

void DeviceSession::start() {
  app_.start(config_.duration);
  if (config_.monkey) {
    monkey_.start(system_.clock.now() + config_.duration,
                  config_.monkeyMinGapMs, config_.monkeyMaxGapMs);
  }
}

void DeviceSession::advanceTo(Millis deadline) {
  system_.looper.runUntil(deadline);
}

void DeviceSession::runToCompletion() {
  start();
  advanceTo(system_.clock.now() + config_.duration);
}

std::int64_t DeviceSession::auisCovered() const {
  std::int64_t covered = 0;
  for (const apps::AuiExposure& exposure : app_.exposures()) {
    const bool hit = std::any_of(
        positiveAnalyses_.begin(), positiveAnalyses_.end(), [&](Millis t) {
          return t >= exposure.shownAt && t < exposure.hiddenAt;
        });
    covered += hit;
  }
  return covered;
}

}  // namespace darpa::fleet
