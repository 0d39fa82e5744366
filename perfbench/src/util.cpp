#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double medianChunkRate(const std::vector<double>& samplesMs,
                       std::size_t chunk) {
  std::vector<double> rates;
  for (std::size_t begin = 0; begin + chunk <= samplesMs.size();
       begin += chunk) {
    double totalMs = 0.0;
    for (std::size_t i = begin; i < begin + chunk; ++i) totalMs += samplesMs[i];
    rates.push_back(1000.0 * static_cast<double>(chunk) / totalMs);
  }
  if (rates.empty() && !samplesMs.empty()) {
    double totalMs = 0.0;
    for (const double v : samplesMs) totalMs += v;
    return 1000.0 * static_cast<double>(samplesMs.size()) / totalMs;
  }
  return median(rates);
}

Tail resolvableTail(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (const auto& [label, q] :
       {std::pair{"p99", 0.99}, std::pair{"p95", 0.95},
        std::pair{"p90", 0.90}}) {
    if (n * (1.0 - q) >= 10.0) return {label, quantile(values, q)};
  }
  return {"p50", quantile(values, 0.5)};
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xffU;
    state_ *= 1099511628211ULL;
  }
}

void Digest::addFloat(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::addDouble(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::addString(const std::string& s) {
  add(s.size());
  for (const char c : s) add(static_cast<unsigned char>(c));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, state_);
  return buf;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // Non-finite values have no JSON spelling; null makes the self-test
    // (and any reader) reject them instead of silently reading a number.
    if (std::isfinite(e.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::unique_ptr<darpa::cv::OneStageDetector> loadDetector(
    const std::string& path) {
  auto loaded =
      darpa::cv::OneStageDetector::loadModel(path, darpa::cv::OneStageConfig{});
  if (!loaded) {
    std::fprintf(stderr, "perfbench: cannot load model '%s'\n", path.c_str());
    std::exit(2);
  }
  return std::make_unique<darpa::cv::OneStageDetector>(std::move(*loaded));
}

std::vector<darpa::cv::Detection> TimedDetector::detect(
    const darpa::gfx::Bitmap& screenshot) const {
  const Clock::time_point t0 = Clock::now();
  std::vector<darpa::cv::Detection> out = inner_->detect(screenshot);
  const double took = msSince(t0);
  const std::lock_guard<std::mutex> lock(mutex_);
  callsMs_.push_back(took);
  return out;
}

std::vector<double> TimedDetector::callsMs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return callsMs_;
}

}  // namespace perfbench
