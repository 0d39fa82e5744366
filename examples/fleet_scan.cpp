// Example: fleet-scale scanning.
//
// One DARPA deployment rarely watches one phone: a market operator or a
// research fleet runs many simulated device sessions against one shared
// detector. This example spins up a small fleet, advances the sessions on
// four work-stealing workers — each session detecting inline on the worker
// advancing it, exactly like one phone's accessibility service — and
// prints the merged fleet snapshot: the same verdicts as running each
// device alone.
#include <cstdio>

#include "core/detection_executor.h"
#include "cv/one_stage.h"
#include "dataset/dataset.h"
#include "fleet/fleet.h"

using namespace darpa;

int main() {
  dataset::DatasetConfig dataConfig;
  dataConfig.totalScreenshots = 240;
  dataConfig.seed = 7;
  const dataset::AuiDataset data = dataset::AuiDataset::build(dataConfig);
  cv::TrainConfig trainConfig;
  trainConfig.epochs = 14;
  trainConfig.benignImages = 60;
  std::printf("training detector...\n");
  const cv::OneStageDetector detector =
      cv::OneStageDetector::train(data, cv::OneStageConfig{}, trainConfig);

  // Stateless: every session calls it from the worker advancing it.
  core::InlineExecutor executor;

  fleet::FleetConfig config;
  config.sessions = 8;
  config.workers = 4;          // sessions advance on 4 threads
  config.epoch = ms(1000);     // scheduling slice: one simulated second
  config.duration = ms(30'000);
  std::printf("running %d sessions x %lld simulated ms (epoch %lld ms)...\n",
              config.sessions, static_cast<long long>(config.duration.count),
              static_cast<long long>(config.epoch.count));

  fleet::Fleet fleet(detector, executor, config);
  fleet.run();

  const fleet::FleetSnapshot snap = fleet.snapshot();
  std::printf("\nfleet snapshot (%d sessions, %lld ms simulated each):\n",
              snap.sessions, static_cast<long long>(snap.simTime.count));
  std::printf("  events received     %lld\n",
              static_cast<long long>(snap.stats.eventsReceived));
  std::printf("  analyses run        %lld (verdict-cache hits %lld)\n",
              static_cast<long long>(snap.stats.analysesRun),
              static_cast<long long>(snap.stats.verdictCacheHits));
  std::printf("  AUIs flagged        %lld\n",
              static_cast<long long>(snap.stats.auisFlagged));
  std::printf("  decorations drawn   %lld\n",
              static_cast<long long>(snap.stats.decorationsDrawn));
  std::printf("  AUI exposures       %lld, covered %lld\n",
              static_cast<long long>(snap.auiExposures),
              static_cast<long long>(snap.auisCovered));
  std::printf("  modeled CPU         %.1f ms total, detect %.1f ms\n",
              snap.ledger.totalCpuMs(),
              snap.ledger.tally(core::Stage::kDetect).cpuMs);
  const fleet::SchedulerMetrics& sched = *fleet.schedulerMetrics();
  std::printf("\nscheduler: %lld slices, %lld stolen by idle workers\n",
              static_cast<long long>(sched.slicesRun),
              static_cast<long long>(sched.steals));
  std::printf("per-session verdicts are identical to running each device "
              "alone,\nfor any worker count.\n");
  return 0;
}
