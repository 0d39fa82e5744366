// Shared pieces of the benchmark binary: timing, order statistics, output
// digests, the metric record printed as JSON, and the forwarding detector
// that times every detect() call.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cv/detector.h"
#include "cv/one_stage.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of a sample (0 when empty).
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Nearest-rank quantile, q in (0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Operations per second over chunks of `chunk` consecutive samples (ms
/// each), median over chunks: a throughput that a burst of host noise
/// confined to a few chunks cannot move.
[[nodiscard]] double medianChunkRate(const std::vector<double>& samplesMs,
                                     std::size_t chunk);

/// The highest of p99/p95/p90/p50 that still leaves at least ten samples
/// above it — the tail a sample of this size can actually resolve.
struct Tail {
  std::string label;  ///< "p99", "p95", "p90" or "p50".
  double value = 0.0;
};
[[nodiscard]] Tail resolvableTail(const std::vector<double>& values);

/// 64-bit FNV-1a over the fields fed to it — the output and input digests.
class Digest {
 public:
  void add(std::uint64_t v);
  void addSigned(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void addFloat(float v);
  void addDouble(double v);
  void addString(const std::string& s);
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 1469598103934665603ULL;
};

/// Process peak resident set size in MiB.
[[nodiscard]] double peakRssMb();

/// Ordered name -> (value, unit) record; printed as the "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a workload run hands back to main() for printing.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;  ///< Analyses started.
  std::int64_t failed = 0;     ///< Analyses that ended without a verdict.
  Metrics endToEnd;            ///< Filled on every run.
  Metrics perLayer;            ///< Filled only when tracing.
  std::string outputDigest;    ///< Must repeat across reps of one seed.
  std::string inputDigest;     ///< A function of the seed alone.
  std::vector<std::string> notes;  ///< Human-readable lines run.py prints.
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< Self-test scale: a few screens/sessions.
  std::string modelPath;
  int workers = 1;  ///< Fleet session workers: min(nproc, 4).
};

/// Loads the paper-scale detector from the cache file run.py prepared.
/// Aborts the run (exit 2) when the file does not load.
[[nodiscard]] std::unique_ptr<darpa::cv::OneStageDetector> loadDetector(
    const std::string& path);

/// Forwarding cv::Detector that records the wall time of every detect()
/// call. Results are the wrapped detector's, untouched. Safe to share
/// across fleet workers.
class TimedDetector final : public darpa::cv::Detector {
 public:
  explicit TimedDetector(const darpa::cv::Detector& inner) : inner_(&inner) {}

  [[nodiscard]] std::vector<darpa::cv::Detection> detect(
      const darpa::gfx::Bitmap& screenshot) const override;
  [[nodiscard]] double costMacsPerImage() const override {
    return inner_->costMacsPerImage();
  }
  [[nodiscard]] double costMacsPerBatch(int batchSize) const override {
    return inner_->costMacsPerBatch(batchSize);
  }

  [[nodiscard]] std::vector<double> callsMs() const;

 private:
  const darpa::cv::Detector* inner_;
  mutable std::mutex mutex_;
  mutable std::vector<double> callsMs_;
};

}  // namespace perfbench
