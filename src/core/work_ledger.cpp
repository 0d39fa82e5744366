#include "core/work_ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace darpa::core {

std::string_view stageName(Stage stage) {
  switch (stage) {
    case Stage::kEvent: return "event";
    case Stage::kLint: return "lint";
    case Stage::kScreenshot: return "screenshot";
    case Stage::kDetect: return "detect";
    case Stage::kVerdict: return "verdict";
    case Stage::kAct: return "act";
  }
  return "?";
}

void WorkLedger::recordEvent(Millis simNow) {
  lastEventUs_ = static_cast<double>(simNow.count) * 1000.0;
  recordRun(Stage::kEvent, costs_.eventCpuMs);
}

void WorkLedger::beginAnalysis(Millis simNow, Millis debounceLatency) {
  ++analyses_;
  inAnalysis_ = true;
  passCpuMs_ = 0.0;
  passStartUs_ = static_cast<double>(simNow.count) * 1000.0;
  if (debounceLatency.count > 0) {
    totalDebounceLatency_ = totalDebounceLatency_ + debounceLatency;
  }
}

void WorkLedger::endAnalysis() {
  if (!inAnalysis_) return;
  inAnalysis_ = false;
  lastAnalysisCpuMs_ = passCpuMs_;
  totalAnalysisLatencyCpuMs_ += passCpuMs_;
  passCpuMs_ = 0.0;
}

void WorkLedger::recordRun(Stage stage, double cpuMs, double actualUs) {
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  ++tally.runs;
  tally.cpuMs += cpuMs;
  tally.actualUs += actualUs;
  if (inAnalysis_ && stage != Stage::kEvent) {
    // Stages of one pass are laid out back-to-back from the pass start so
    // the trace shows the modeled serial timeline of the analysis.
    pushTrace(stage, passStartUs_ + passCpuMs_ * 1000.0, cpuMs * 1000.0);
    passCpuMs_ += cpuMs;
  } else {
    pushTrace(stage, lastEventUs_, cpuMs * 1000.0);
  }
}

void WorkLedger::recordRuns(Stage stage, std::int64_t n, double cpuMsEach) {
  for (std::int64_t i = 0; i < n; ++i) recordRun(stage, cpuMsEach);
}

void WorkLedger::recordSkip(Stage stage) {
  ++tallies_[static_cast<std::size_t>(stage)].skips;
}

void WorkLedger::recordDecoration() {
  ++decorations_;
  recordRun(Stage::kAct, costs_.decorationCpuMs);
}

void WorkLedger::recordBypass() {
  ++bypassClicks_;
  recordRun(Stage::kAct, costs_.bypassClickCpuMs);
}

void WorkLedger::recordCacheHit() { ++cacheHits_; }
void WorkLedger::recordCacheMiss() { ++cacheMisses_; }

void WorkLedger::recordActual(Stage stage, double actualUs) {
  tallies_[static_cast<std::size_t>(stage)].actualUs += actualUs;
}

void WorkLedger::recordScratchGrowth(Stage stage, std::int64_t growths,
                                     std::int64_t bytes) {
  if (growths <= 0 && bytes <= 0) return;
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  tally.scratchGrowths += growths;
  tally.scratchGrownBytes += bytes;
}

void WorkLedger::recordAlloc(Stage stage, std::size_t bytes) {
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  ++tally.allocs;
  tally.allocBytes += static_cast<std::int64_t>(bytes);
  peakFrameBytes_ =
      std::max(peakFrameBytes_, static_cast<std::int64_t>(bytes));
}

void WorkLedger::recordPooledReuse(Stage stage, std::size_t bytes) {
  StageTally& tally = tallies_[static_cast<std::size_t>(stage)];
  ++tally.pooledReuses;
  tally.pooledBytes += static_cast<std::int64_t>(bytes);
  peakFrameBytes_ =
      std::max(peakFrameBytes_, static_cast<std::int64_t>(bytes));
}

std::int64_t WorkLedger::totalAllocs() const {
  std::int64_t total = 0;
  for (const StageTally& tally : tallies_) total += tally.allocs;
  return total;
}

std::int64_t WorkLedger::totalAllocBytes() const {
  std::int64_t total = 0;
  for (const StageTally& tally : tallies_) total += tally.allocBytes;
  return total;
}

std::int64_t WorkLedger::totalPooledReuses() const {
  std::int64_t total = 0;
  for (const StageTally& tally : tallies_) total += tally.pooledReuses;
  return total;
}

std::int64_t WorkLedger::totalPooledBytes() const {
  std::int64_t total = 0;
  for (const StageTally& tally : tallies_) total += tally.pooledBytes;
  return total;
}

double WorkLedger::poolHitRate() const {
  const std::int64_t acquisitions = totalAllocs() + totalPooledReuses();
  return acquisitions == 0 ? 0.0
                           : static_cast<double>(totalPooledReuses()) /
                                 static_cast<double>(acquisitions);
}

double WorkLedger::totalCpuMs() const {
  double total = 0.0;
  for (const StageTally& tally : tallies_) total += tally.cpuMs;
  return total;
}

double WorkLedger::analysisCpuMs() const {
  return totalCpuMs() - tally(Stage::kEvent).cpuMs;
}

double WorkLedger::totalActualUs() const {
  double total = 0.0;
  for (const StageTally& tally : tallies_) total += tally.actualUs;
  return total;
}

WorkLedger& WorkLedger::operator+=(const WorkLedger& o) {
  for (std::size_t i = 0; i < tallies_.size(); ++i) tallies_[i] += o.tallies_[i];
  analyses_ += o.analyses_;
  decorations_ += o.decorations_;
  bypassClicks_ += o.bypassClicks_;
  cacheHits_ += o.cacheHits_;
  cacheMisses_ += o.cacheMisses_;
  totalAnalysisLatencyCpuMs_ += o.totalAnalysisLatencyCpuMs_;
  totalDebounceLatency_ = totalDebounceLatency_ + o.totalDebounceLatency_;
  lastAnalysisCpuMs_ = o.lastAnalysisCpuMs_;
  // The peak is a max, not a sum: sessions share one frame size, and the
  // merged value must stay pooling-invariant (see peakFrameBytes()).
  peakFrameBytes_ = std::max(peakFrameBytes_, o.peakFrameBytes_);
  if (traceEnabled_) {
    for (const TraceEvent& event : o.trace_) {
      if (trace_.size() >= traceCapacity_) break;
      trace_.push_back(event);
    }
  }
  return *this;
}

void WorkLedger::setTraceEnabled(bool on, std::size_t maxEvents) {
  traceEnabled_ = on;
  traceCapacity_ = maxEvents;
  if (!on) trace_.clear();
  trace_.reserve(on ? std::min<std::size_t>(maxEvents, 1024) : 0);
}

void WorkLedger::pushTrace(Stage stage, double tsUs, double durUs) {
  if (!traceEnabled_ || trace_.size() >= traceCapacity_) return;
  trace_.push_back(TraceEvent{stage, tsUs, durUs, analyses_});
}

void WorkLedger::writeChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char num[64];
  for (const TraceEvent& event : trace_) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": \"" << stageName(event.stage)
       << "\", \"cat\": \"darpa\", \"ph\": \"X\", \"ts\": ";
    // Fixed-point microseconds: stream default formatting would flip to
    // scientific notation past 1e6 us, which trace viewers reject.
    std::snprintf(num, sizeof num, "%.3f", event.tsUs);
    os << num << ", \"dur\": ";
    std::snprintf(num, sizeof num, "%.3f", event.durUs);
    os << num << ", \"pid\": 1, \"tid\": 1, \"args\": {\"analysis\": "
       << event.analysisId << "}}";
  }
  // Allocation-axis roll-up, as Chrome counter tracks: one "C" event per
  // stage that acquired buffers, splitting heap-allocated from pool-reused
  // bytes. Emitted only when the axis saw traffic, so traces from builds
  // without the frame pool are byte-identical to before.
  for (const Stage stage : kAllStages) {
    const StageTally& t = tally(stage);
    if (t.allocs == 0 && t.pooledReuses == 0) continue;
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": \"frame_bytes[" << stageName(stage)
       << "]\", \"cat\": \"darpa\", \"ph\": \"C\", \"ts\": 0, \"pid\": 1, "
          "\"args\": {\"heap\": "
       << t.allocBytes << ", \"pooled\": " << t.pooledBytes << "}}";
  }
  // Wall-clock axis, same counter-track shape: measured microseconds per
  // stage (and scratch warm-up, when any happened). Gated on actual data so
  // traces from runs without wall-clock instrumentation are unchanged.
  for (const Stage stage : kAllStages) {
    const StageTally& t = tally(stage);
    if (t.actualUs <= 0.0 && t.scratchGrowths == 0) continue;
    if (!first) os << ",\n";
    first = false;
    std::snprintf(num, sizeof num, "%.3f", t.actualUs);
    os << "  {\"name\": \"actual_us[" << stageName(stage)
       << "]\", \"cat\": \"darpa\", \"ph\": \"C\", \"ts\": 0, \"pid\": 1, "
          "\"args\": {\"wall_us\": "
       << num << ", \"scratch_growths\": " << t.scratchGrowths
       << ", \"scratch_bytes\": " << t.scratchGrownBytes << "}}";
  }
  os << "\n]}\n";
}

bool WorkLedger::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  writeChromeTrace(out);
  return out.good();
}

}  // namespace darpa::core
