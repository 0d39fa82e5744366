// Zero-copy perception data plane: the FramePool's two contracts, enforced
// over a 64-session fleet detecting inline (exit nonzero on failure):
//
//  1. Determinism — pooling is invisible to every paper-facing output. The
//     fig-8 coverage numbers, the Table III-analog runtime stats, and the
//     Table VII device-model metrics are byte-identical with pooling on vs
//     off, at W=1 and at W=4 fleet workers (alloc-axis counters, which
//     exist precisely to differ, are excluded from the digest).
//  2. Economy — pooling eliminates >= 80% of the perception path's heap
//     allocations per run: once the first epochs have populated the free
//     lists, every capture recycles a slab instead of touching the heap.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/work_ledger.h"
#include "core/detection_executor.h"
#include "fleet/fleet.h"
#include "perf/device_model.h"

namespace darpa::bench {
namespace {

struct RunResult {
  std::string digest;             ///< Paper-facing outputs, formatted.
  std::int64_t screenshotAllocs = 0;  ///< Heap allocs on the capture path.
  std::int64_t pooledReuses = 0;
  double poolHitRate = 0.0;
  gfx::FramePool::Stats pool;
};

RunResult runFleet(const cv::Detector& detector, bool pooled, int workers) {
  core::InlineExecutor executor;
  fleet::FleetConfig config;
  config.sessions = 64;
  config.workers = workers;
  config.epoch = ms(1000);
  // Long enough that the one-slab-per-session warm-up (the pooled mode's
  // irreducible 64 fresh slabs) amortizes well under the 20% contract.
  config.duration = ms(scaled(60'000, 25'000));
  config.pooledFrames = pooled;

  fleet::Fleet fleet(detector, executor, config);
  fleet.run();
  const fleet::FleetSnapshot snap = fleet.snapshot();

  // Table VII metrics over the fleet's ledger, fixed-point formatted so the
  // comparison is exact, not epsilon-based.
  const perf::DeviceModel device;
  const Millis window{static_cast<std::int64_t>(snap.sessions) *
                      snap.simTime.count};
  const perf::PerfMetrics perf = device.withWork(snap.ledger, window);

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fig8: analyses=%lld events=%lld exposures=%lld covered=%lld\n"
      "stats: shots=%lld flagged=%lld decorated=%lld bypass=%lld lint=%lld "
      "lintskip=%lld cachehits=%lld anchors=%lld\n"
      "ledger: cpuMs=%.6f cacheHits=%lld cacheMisses=%lld "
      "peakFrameBytes=%lld\n"
      "table7: cpu=%.4f mem=%.4f fps=%.4f power=%.4f\n",
      static_cast<long long>(snap.ledger.analyses()),
      static_cast<long long>(snap.eventsEmitted),
      static_cast<long long>(snap.auiExposures),
      static_cast<long long>(snap.auisCovered),
      static_cast<long long>(snap.stats.screenshotsTaken),
      static_cast<long long>(snap.stats.auisFlagged),
      static_cast<long long>(snap.stats.decorationsDrawn),
      static_cast<long long>(snap.stats.bypassClicks),
      static_cast<long long>(snap.stats.lintRuns),
      static_cast<long long>(snap.stats.cvSkippedByLint),
      static_cast<long long>(snap.stats.verdictCacheHits),
      static_cast<long long>(snap.stats.anchorMeasurements),
      snap.ledger.totalCpuMs(),
      static_cast<long long>(snap.ledger.cacheHits()),
      static_cast<long long>(snap.ledger.cacheMisses()),
      static_cast<long long>(snap.ledger.peakFrameBytes()), perf.cpuPercent,
      perf.memoryMb, perf.frameRate, perf.powerMw);

  RunResult result;
  result.digest = buf;
  result.screenshotAllocs =
      snap.ledger.tally(core::Stage::kScreenshot).allocs;
  result.pooledReuses = snap.ledger.totalPooledReuses();
  result.poolHitRate = snap.ledger.poolHitRate();
  result.pool = snap.framePool;
  return result;
}

void printRun(const char* tag, const RunResult& r) {
  std::printf("  %-14s heap allocs %6lld   pooled reuses %6lld   "
              "hit rate %5.1f%%   high water %7.1f KB   backpressured %lld\n",
              tag, static_cast<long long>(r.screenshotAllocs),
              static_cast<long long>(r.pooledReuses), 100.0 * r.poolHitRate,
              static_cast<double>(r.pool.highWaterBytes) / 1024.0,
              static_cast<long long>(r.pool.backpressured));
}

}  // namespace
}  // namespace darpa::bench

int main(int argc, char** argv) {
  using namespace darpa;
  using namespace darpa::bench;
  initFromArgs(argc, argv);

  printHeader("Frame pool: zero-copy determinism + allocation economy");
  const dataset::AuiDataset data = paperDataset();
  const cv::OneStageDetector detector = trainOrLoadOneStage(data, "default");

  bool failed = false;
  for (const int workers : {1, 4}) {
    std::printf("\n  64 sessions, inline detection, W=%d:\n", workers);
    const RunResult heap = runFleet(detector, /*pooled=*/false, workers);
    const RunResult pooled = runFleet(detector, /*pooled=*/true, workers);
    printRun("pooling off", heap);
    printRun("pooling on", pooled);

    // Contract 1: every paper-facing output byte-identical.
    if (heap.digest != pooled.digest) {
      std::printf("\nFAIL: pooling changed paper-facing outputs at W=%d\n"
                  "--- pooling off ---\n%s--- pooling on ---\n%s",
                  workers, heap.digest.c_str(), pooled.digest.c_str());
      failed = true;
      continue;
    }
    std::printf("  outputs byte-identical with pooling on vs off\n");

    // Contract 2: >= 80% of capture-path heap allocations eliminated.
    const double ratio =
        heap.screenshotAllocs <= 0
            ? 1.0
            : static_cast<double>(pooled.screenshotAllocs) /
                  static_cast<double>(heap.screenshotAllocs);
    std::printf("  capture-path allocs: %lld -> %lld (%.1f%% of unpooled; "
                "contract: <= 20%%)\n",
                static_cast<long long>(heap.screenshotAllocs),
                static_cast<long long>(pooled.screenshotAllocs),
                100.0 * ratio);
    if (ratio > 0.20) {
      std::printf("FAIL: pooling kept %.1f%% of heap allocations\n",
                  100.0 * ratio);
      failed = true;
    }
  }

  if (failed) return 1;
  std::printf("\n  contract PASSED\n");
  return 0;
}
