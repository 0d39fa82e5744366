#include "fleet/fleet.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "apps/app_model.h"
#include "util/rng.h"

namespace darpa::fleet {

Fleet::Fleet(const cv::Detector& detector, core::DetectionExecutor& executor,
             FleetConfig config)
    : config_(std::move(config)) {
  if (config_.sessions < 1) config_.sessions = 1;
  if (config_.workers < 1) config_.workers = 1;
  if (config_.epoch <= Millis{0}) config_.epoch = Millis{1000};

  if (config_.pooledFrames) pool_ = std::make_unique<gfx::FramePool>();
  if (config_.sharedVerdictTier) {
    tier_ = std::make_unique<core::SharedVerdictTier>(
        core::SharedVerdictTier::Options{.shards = config_.workers});
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

  WorkStealingScheduler::Config sched;
  sched.epoch = config_.epoch;
  sched.duration = config_.duration;
  sched.workers = config_.workers;
  scheduler_ = std::make_unique<WorkStealingScheduler>(sessions_, sched);
}

Fleet::~Fleet() {
  // Thousands of sessions free on the order of a million small blocks here.
  // glibc parks them unmerged and merges them inside the next large
  // allocation, so whatever runs next (typically the next fleet's set-up)
  // would stall for it: ~15 ms after a 2048-session fleet on a 4-core Xeon.
  // malloc_trim makes the teardown pay for its own frees.
  scheduler_.reset();
  sessions_.clear();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
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
  for (const auto& session : sessions_) {
    snap.stats += session->stats();
    snap.ledger += session->ledger();
    snap.eventsEmitted += session->eventsEmitted();
    snap.auiExposures += session->auiExposures();
    snap.auisCovered += session->auisCovered();
  }
  if (pool_ != nullptr) snap.framePool = pool_->stats();
  if (tier_ != nullptr) snap.verdictTier = tier_->stats();
  return snap;
}

}  // namespace darpa::fleet
