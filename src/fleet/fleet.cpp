#include "fleet/fleet.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/app_model.h"
#include "util/rng.h"

namespace darpa::fleet {

Fleet::Fleet(const cv::Detector& detector, core::DetectionExecutor& executor,
             FleetConfig config)
    : config_(std::move(config)) {
  if (config_.sessions < 1) config_.sessions = 1;
  if (config_.workers < 1) config_.workers = 1;
  if (config_.epoch <= Millis{0}) config_.epoch = Millis{1000};
  if (config_.framePool.shards == 0) config_.framePool.shards = config_.workers;

  if (config_.pooledFrames) {
    pool_ = std::make_unique<gfx::FramePool>(config_.framePool);
  }
  if (config_.sharedVerdictTier) {
    if (config_.verdictTier.shards < 1) {
      config_.verdictTier.shards = config_.workers;
    }
    tier_ = std::make_unique<core::SharedVerdictTier>(config_.verdictTier);
  }

  // Session seeding mirrors bench_runtime.h's per-app draw order (profile,
  // then app seed, then monkey seed) so a fleet of size 1 replays the
  // single-device benches exactly.
  Rng rng(config_.seed);
  sessions_.reserve(static_cast<std::size_t>(config_.sessions));
  for (int i = 0; i < config_.sessions; ++i) {
    DeviceSession::Config session;
    session.id = i;
    session.darpa = config_.darpa;
    session.window = config_.window;
    session.profile =
        apps::randomAppProfile(config_.packagePrefix + std::to_string(i), rng);
    session.appSeed = rng.next();
    session.monkeySeed = rng.next();
    session.duration = config_.duration;
    session.monkey = config_.monkey;
    if (config_.sessionTweak) config_.sessionTweak(i, session);
    // Fleet-owned wiring, re-asserted after the tweak: the identity and
    // plumbing fields are not the hook's to change.
    session.id = i;
    session.framePool = pool_.get();
    session.darpa.verdictTier = tier_.get();
    session.darpa.executor = &executor;
    sessions_.push_back(
        std::make_unique<DeviceSession>(detector, std::move(session)));
  }

  statMerge_ = std::make_unique<core::StatMergeShards>(config_.workers);
  WorkStealingScheduler::Config sched;
  sched.epoch = config_.epoch;
  sched.duration = config_.duration;
  sched.workers = config_.workers;
  scheduler_ =
      std::make_unique<WorkStealingScheduler>(sessions_, *statMerge_, sched);
}

void Fleet::checkSessionIndex(int i) const {
  if (i >= 0 && i < static_cast<int>(sessions_.size())) return;
  std::fprintf(stderr, "Fleet::session(%d): index out of range [0, %d)\n", i,
               static_cast<int>(sessions_.size()));
  std::abort();
}

void Fleet::run() {
  if (started_) {
    std::fprintf(stderr,
                 "Fleet::run() called twice; a fleet run is single-use\n");
    std::abort();
  }
  started_ = true;
  for (auto& session : sessions_) session->start();
  scheduler_->run();
  now_ = config_.duration;
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.sessions = static_cast<int>(sessions_.size());
  snap.simTime = started_ ? now_ : Millis{0};
  if (started_) {
    // Every session folded its totals at retirement; merged() replays them
    // in session-id order, bit-equal to the scan below.
    const core::StatMergeShards::Merged merged = statMerge_->merged();
    snap.stats = merged.stats;
    snap.ledger = merged.ledger;
    snap.eventsEmitted = merged.eventsEmitted;
    snap.auiExposures = merged.auiExposures;
    snap.auisCovered = merged.auisCovered;
  } else {
    for (const auto& session : sessions_) {
      snap.stats.merge(session->stats().snapshot());
      snap.ledger.merge(session->ledger().snapshot());
      snap.eventsEmitted += session->eventsEmitted();
      snap.auiExposures += session->auiExposures();
      snap.auisCovered += session->auisCovered();
    }
  }
  if (pool_ != nullptr) snap.framePool = pool_->stats();
  if (tier_ != nullptr) snap.verdictTier = tier_->stats();
  return snap;
}

}  // namespace darpa::fleet
