// fleet_mixed and fleet_shared: N device sessions driven by the default
// work-stealing driver on W = min(nproc, 4) session workers, detecting
// inline on those workers (InlineExecutor), no other threads.
//
// A run builds and runs a fresh Fleet of the same seeded config again and
// again until the time is up. Every rep must produce the same per-session
// positive-verdict timelines (the output digest); the timed quantity is
// Fleet::run().
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "analysis/lint.h"
#include "apps/app_model.h"
#include "core/detection_executor.h"
#include "fleet/fleet.h"
#include "layers.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace darpa;

struct Scale {
  int sessions;
  Millis duration;
};

/// fleet_mixed: the default FleetConfig population — every session draws
/// its own app profile from the fleet seed.
fleet::FleetConfig mixedConfig(const RunOptions& options) {
  const Scale scale = options.tiny ? Scale{4, ms(3'000)} : Scale{256, ms(30'000)};
  fleet::FleetConfig config;
  config.sessions = scale.sessions;
  config.duration = scale.duration;
  config.workers = options.workers;
  config.seed = options.seed;
  return config;
}

/// fleet_shared: eight apps shared by the whole fleet (session i runs app
/// i % 8) with AUI churn on stable base screens, and each app's sessions
/// staggered into eight debounce waves, so later waves find the first
/// wave's verdicts in the shared tier. Lint prefilter on, shared L2 on, a
/// 4-entry L1, half of third-party AUIs WebView-hosted.
fleet::FleetConfig sharedConfig(const RunOptions& options,
                                const analysis::LintEngine& lint) {
  constexpr int kApps = 8;
  const Scale scale =
      options.tiny ? Scale{16, ms(3'000)} : Scale{2048, ms(60'000)};
  struct App {
    apps::AppProfile profile;
    std::uint64_t appSeed;
  };
  // The app profiles are bench_fleet_throughput's fixed population, so
  // every seed offers the same kind of load; the seed picks the apps'
  // screens and event streams (app seeds, and the fleet's monkey seeds).
  auto population = std::make_shared<std::vector<App>>();
  Rng profiles(4242);
  Rng seeds(options.seed);
  for (int a = 0; a < kApps; ++a) {
    App app{apps::randomAppProfile("com.shared.app" + std::to_string(a),
                                   profiles),
            seeds.next()};
    app.profile.screenChangeMeanMs = 6000;
    app.profile.auisPerMinute = 40.0;
    app.profile.auiMinVisibleMs = 600;
    app.profile.auiMaxVisibleMs = 1600;
    app.profile.webViewAuiProb = 0.5;
    population->push_back(std::move(app));
  }

  fleet::FleetConfig config;
  config.sessions = scale.sessions;
  config.duration = scale.duration;
  config.epoch = ms(500);
  config.workers = options.workers;
  config.seed = options.seed;
  config.sharedVerdictTier = true;
  config.darpa.verdictCacheCapacity = 4;
  config.sessionTweak = [population, &lint](int i,
                                            fleet::DeviceSession::Config& c) {
    const App& app = (*population)[static_cast<std::size_t>(i % kApps)];
    c.profile = app.profile;
    c.appSeed = app.appSeed;
    c.darpa.cutoff = ms(200 + 150 * ((i / kApps) % 8));
    c.darpa.lintPrefilter = &lint;
  };
  return config;
}

/// Per-session verdict tally, written only by the worker running the
/// session (the analysis listener runs on it) and read after run().
struct SessionTally {
  std::int64_t verdicts = 0;
  std::int64_t agree = 0;  ///< Verdict == "an AUI is on screen now".
};

struct Rep {
  Clock::time_point runAt;  ///< When Fleet::run() started.
  double setupMs = 0.0;
  double wallMs = 0.0;
  std::string outputDigest;
  fleet::FleetSnapshot snapshot;
  std::vector<SessionTally> tallies;
};

std::string timelineDigest(const fleet::Fleet& fleet) {
  Digest d;
  for (int i = 0; i < fleet.sessionCount(); ++i) {
    const std::vector<Millis>& times = fleet.session(i).positiveAnalyses();
    d.addSigned(i);
    d.add(times.size());
    for (const Millis t : times) d.addSigned(t.count);
  }
  return d.hex();
}

std::string inputDigest(fleet::Fleet& fleet) {
  Digest d;
  for (int i = 0; i < fleet.sessionCount(); ++i) {
    fleet::DeviceSession& s = fleet.session(i);
    const apps::AppProfile& p = s.app().profile();
    d.addString(p.package);
    d.addSigned(p.screenChangeMeanMs);
    d.addSigned(p.minBurst);
    d.addSigned(p.maxBurst);
    d.addSigned(p.idleEventMeanMs);
    d.addDouble(p.auisPerMinute);
    d.addSigned(p.auiMinVisibleMs);
    d.addSigned(p.auiMaxVisibleMs);
    d.addDouble(p.animatedAuiProb);
    d.addDouble(p.webViewAuiProb);
    d.addSigned(s.service().darpaConfig().cutoff.count);
    for (const apps::AuiExposure& e : s.app().exposures()) {
      d.addSigned(e.shownAt.count);
      d.addSigned(e.hiddenAt.count);
    }
  }
  return d.hex();
}

/// Builds one fleet (timed as set-up), runs it (timed as the rep) and
/// keeps it for inspection until the next rep replaces it.
class FleetRunner {
 public:
  FleetRunner(const RunOptions& options, bool shared)
      : options_(options), shared_(shared) {}

  Rep run(bool traced) {
    Rep rep;
    fleet_.reset();
    timed_.reset();
    const Clock::time_point t0 = Clock::now();
    detector_ = loadDetector(options_.modelPath);
    const cv::Detector* serving = detector_.get();
    if (traced) {
      timed_ = std::make_unique<TimedDetector>(*detector_);
      serving = timed_.get();
    }
    fleet_ = std::make_unique<fleet::Fleet>(
        *serving, executor_,
        shared_ ? sharedConfig(options_, lint_) : mixedConfig(options_));
    rep.tallies.assign(static_cast<std::size_t>(fleet_->sessionCount()), {});
    for (int i = 0; i < fleet_->sessionCount(); ++i) {
      fleet::DeviceSession* session = &fleet_->session(i);
      SessionTally* tally = &rep.tallies[static_cast<std::size_t>(i)];
      session->setAnalysisListener(
          [session, tally](bool isAui, const std::vector<cv::Detection>&) {
            ++tally->verdicts;
            const bool showing =
                session->app().exposureAt(session->now()) != nullptr;
            tally->agree += isAui == showing ? 1 : 0;
          });
    }
    rep.setupMs = msSince(t0);

    rep.runAt = Clock::now();
    fleet_->run();
    rep.wallMs = msSince(rep.runAt);
    rep.snapshot = fleet_->snapshot();
    rep.outputDigest = timelineDigest(*fleet_);
    return rep;
  }

  [[nodiscard]] fleet::Fleet& fleet() { return *fleet_; }
  [[nodiscard]] const cv::OneStageDetector& detector() const {
    return *detector_;
  }
  [[nodiscard]] const TimedDetector* timed() const { return timed_.get(); }
  [[nodiscard]] const analysis::LintEngine& lint() const { return lint_; }

 private:
  const RunOptions& options_;
  bool shared_;
  const analysis::LintEngine lint_ = analysis::LintEngine::withDefaultRules();
  core::InlineExecutor executor_;
  std::unique_ptr<cv::OneStageDetector> detector_;
  std::unique_ptr<TimedDetector> timed_;
  // Declared last: the fleet borrows the detectors, lint and executor.
  std::unique_ptr<fleet::Fleet> fleet_;
};

/// Layer probe over the screens the fleet's sessions ended on: each
/// sampled session gets a fresh paper-config DarpaService whose untraced
/// analyzeNow() is the e2e reference for attribution coverage.
void probeFinalScreens(FleetRunner& runner, int maxSessions, Metrics& out) {
  fleet::Fleet& fleet = runner.fleet();
  LayerProbe probe;
  std::vector<double> analyzeMs;
  const int stride = std::max(1, fleet.sessionCount() / maxSessions);
  for (int i = 0; i < fleet.sessionCount(); i += stride) {
    fleet::DeviceSession& session = fleet.session(i);
    android::AndroidSystem& system = session.system();
    if (system.windowManager.appWindowCount() == 0) continue;
    session.service().clearDecorations();
    core::DarpaService service(runner.detector(), {});
    system.accessibility.connect(service);
    const Clock::time_point t0 = Clock::now();
    service.analyzeNow();
    analyzeMs.push_back(msSince(t0));
    service.clearDecorations();
    probe.sample(system, service, runner.detector(), runner.lint());
    system.accessibility.disconnect(service);
  }
  probe.emit(out, mean(analyzeMs));
}

RunResult runFleet(const RunOptions& options, bool shared) {
  RunResult result;
  FleetRunner runner(options, shared);
  const double budgetMs = options.seconds * 1000.0;
  const double untracedBudgetMs = options.trace ? budgetMs * 0.5 : budgetMs;
  const Clock::time_point runStart = Clock::now();

  std::vector<Rep> untraced;
  while (untraced.size() < 2 || msSince(runStart) < untracedBudgetMs) {
    untraced.push_back(runner.run(false));
  }
  const Rep& first = untraced.front();
  const double firstTimedS =
      std::chrono::duration<double>(first.runAt - processStart()).count();
  result.inputDigest = inputDigest(runner.fleet());
  result.outputDigest = first.outputDigest;

  std::vector<Rep> traced;
  if (options.trace) {
    while (traced.empty() || msSince(runStart) < budgetMs) {
      traced.push_back(runner.run(true));
    }
  }

  int mismatches = 0;
  std::vector<double> setupMs, deviceSPerS, screensPerS, untracedWall;
  const fleet::FleetConfig& config = runner.fleet().config();
  const double deviceSeconds =
      config.sessions * static_cast<double>(config.duration.count) / 1000.0;
  for (const std::vector<Rep>* reps : {&untraced, &traced}) {
    for (const Rep& rep : *reps) {
      if (rep.outputDigest != first.outputDigest) ++mismatches;
      const core::DarpaStats& s = rep.snapshot.stats;
      std::int64_t verdicts = 0;
      for (const SessionTally& t : rep.tallies) verdicts += t.verdicts;
      const std::int64_t needCapture = s.analysesRun - s.verdictCacheHits -
                                       s.verdictTierHits - s.cvSkippedByLint;
      result.attempted += s.analysesRun;
      result.failed +=
          std::max<std::int64_t>(0, s.analysesRun - verdicts) +
          std::max<std::int64_t>(0, needCapture - s.screenshotsTaken);
      setupMs.push_back(rep.setupMs);
    }
  }
  for (const Rep& rep : untraced) {
    untracedWall.push_back(rep.wallMs);
    const double wallS = rep.wallMs / 1000.0;
    deviceSPerS.push_back(deviceSeconds / wallS);
    screensPerS.push_back(
        static_cast<double>(rep.snapshot.stats.analysesRun) / wallS);
  }

  std::int64_t verdicts = 0, agree = 0;
  for (const SessionTally& t : first.tallies) {
    verdicts += t.verdicts;
    agree += t.agree;
  }
  Metrics& e = result.endToEnd;
  e.set("setup_s", median(setupMs) / 1000.0, "s");
  e.set("screens_per_s", median(screensPerS), "1/s");
  e.set("verdict_accuracy",
        verdicts == 0 ? 0.0
                      : static_cast<double>(agree) /
                            static_cast<double>(verdicts),
        "ratio");
  e.set("aui_coverage",
        first.snapshot.auiExposures == 0
            ? 0.0
            : static_cast<double>(first.snapshot.auisCovered) /
                  static_cast<double>(first.snapshot.auiExposures),
        "ratio");
  e.set("peak_rss_mb", peakRssMb(), "MB");

  if (options.trace) {
    const Rep& last = traced.back();
    const fleet::FleetSnapshot& snap = last.snapshot;
    const core::DarpaStats& s = snap.stats;
    Metrics& m = result.perLayer;
    probeFinalScreens(runner, options.tiny ? 4 : 48, m);

    std::vector<double> tracedWall;
    for (const Rep& rep : traced) tracedWall.push_back(rep.wallMs);
    m.set("trace.overhead_ratio", median(tracedWall) / median(untracedWall),
          "ratio");
    const std::vector<double> detectMs = runner.timed()->callsMs();
    double detectTotal = 0.0;
    for (const double v : detectMs) detectTotal += v;
    m.set("cv.detect_calls", static_cast<double>(detectMs.size()), "count");
    m.set("cv.detect_ms_mean", mean(detectMs), "ms");
    m.set("cv.detect_busy_share",
          detectTotal / (config.workers * last.wallMs), "ratio");
    const double analyses =
        static_cast<double>(std::max<std::int64_t>(1, s.analysesRun));
    m.set("core.l1_hit_ratio", static_cast<double>(s.verdictCacheHits) / analyses,
          "ratio");
    const std::int64_t probes = snap.verdictTier.hits + snap.verdictTier.misses;
    m.set("core.l2_hit_ratio",
          probes == 0 ? 0.0
                      : static_cast<double>(snap.verdictTier.hits) /
                            static_cast<double>(probes),
          "ratio");
    m.set("core.l2_publishes", static_cast<double>(snap.verdictTier.publishes),
          "count");
    m.set("analysis.lint_shortcircuit_ratio",
          s.lintRuns == 0 ? 0.0
                          : static_cast<double>(s.cvSkippedByLint) /
                                static_cast<double>(s.lintRuns),
          "ratio");
    m.set("android.events", static_cast<double>(snap.eventsEmitted), "count");
    m.set("core.decorations", static_cast<double>(s.decorationsDrawn), "count");
    m.set("gfx.frame_pool_reuse_ratio", snap.framePool.hitRate(), "ratio");
    const fleet::SchedulerMetrics* sched = runner.fleet().schedulerMetrics();
    m.set("fleet.steals",
          sched == nullptr ? 0.0 : static_cast<double>(sched->steals), "count");
    m.set("fleet.finish_ms_p99",
          sched == nullptr ? 0.0 : quantile(sched->finishWallMs, 0.99), "ms");
  }

  char line[256];
  std::snprintf(line, sizeof line,
                "device_s_per_s %.4f (median of %zu reps; %d sessions x %.0f s "
                "simulated, W=%d); %lld analyses per rep",
                median(deviceSPerS), deviceSPerS.size(), config.sessions,
                static_cast<double>(config.duration.count) / 1000.0,
                config.workers,
                static_cast<long long>(first.snapshot.stats.analysesRun));
  result.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "first timed operation %.3f s after process start", firstTimedS);
  result.notes.push_back(line);
  if (mismatches > 0) {
    result.correct = false;
    result.notes.push_back("fleet reps disagree on the verdict timelines (" +
                           std::to_string(mismatches) + " reps)");
  }
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace

RunResult runFleetMixed(const RunOptions& options) {
  return runFleet(options, false);
}

RunResult runFleetShared(const RunOptions& options) {
  return runFleet(options, true);
}

}  // namespace perfbench
