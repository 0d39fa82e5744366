// WorkLedger — the single accounting substrate for the run-time pipeline.
//
// The seed implementation reported work through a flat WorkKind callback
// that every bench adapted by hand (count events here, divide by apps
// there). The ledger replaces that with one structured record the whole
// stack consumes uniformly:
//
//  * per-stage tallies (runs, skips, modeled CPU-ms) for every pipeline
//    stage of the Fig.-5 life-cycle — event handling, lint, screenshot,
//    CV detection, verdict merge, act (decorate/bypass);
//  * verdict-cache hit/miss counters (the repeat-screen fast path);
//  * a per-stage allocation axis (heap allocs vs. FramePool reuses, in
//    buffers and bytes) — the zero-copy data plane's accounting, exported
//    as counter events in the Chrome trace and folded into the Table VII
//    memory row by perf::DeviceModel;
//  * per-analysis modeled latency and the simulated-clock debounce latency
//    (time a screen waited for ct stability before being analyzed);
//  * an optional bounded Chrome-trace event log (chrome://tracing /
//    Perfetto "traceEvents" JSON) so a session's stage timeline can be
//    inspected visually.
//
// The per-operation CPU costs live in StageCosts — one table shared by the
// analysis pass (which prices work as it happens) and perf::DeviceModel
// (which folds priced work into Table VII/VIII device metrics). There is
// exactly one copy of every constant.
//
// Thread-ownership rule (fleet scale): a WorkLedger is SESSION-CONFINED —
// only the thread currently advancing its DeviceSession may record into it,
// and sessions never share a ledger. The ledger itself carries no
// synchronization; aggregation happens only when the owning session is
// quiescent. In a fleet, Fleet::snapshot() sums every session's ledger
// after run() has joined the workers (the join is the happens-before edge),
// in session-id order, keeping double addition bit-reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/thread_annotations.h"

namespace darpa::core {

/// The stages of the run-time analysis pipeline, in execution order.
enum class Stage {
  kEvent,       ///< Accessibility-event handling + debounce bookkeeping.
  kLint,        ///< Static pre-filter over the UI dump (no pixels).
  kScreenshot,  ///< takeScreenshot into the vault.
  kDetect,      ///< CV detector over the screenshot.
  kVerdict,     ///< Verdict merge + fingerprint cache lookup/store.
  kAct,         ///< Decoration overlays or the auto-bypass click.
};

inline constexpr int kStageCount = 6;
inline constexpr std::array<Stage, kStageCount> kAllStages = {
    Stage::kEvent,  Stage::kLint,    Stage::kScreenshot,
    Stage::kDetect, Stage::kVerdict, Stage::kAct,
};

[[nodiscard]] std::string_view stageName(Stage stage);

/// Per-operation modeled CPU costs in milliseconds on the device's big
/// core. The single source of truth: the pipeline prices work with this
/// table as it records into the ledger, and perf::DeviceModel::Config
/// embeds the same table for its Table VII/VIII arithmetic.
struct StageCosts {
  double eventCpuMs = 0.35;        ///< One delivered accessibility event.
  double lintCpuMs = 0.18;         ///< One static lint pass over a dump.
  double screenshotCpuMs = 2.2;    ///< One capture (compose + copy).
  double macsPerCpuMs = 1.8e6;     ///< Detection = detector MACs / this.
  double verdictCpuMs = 0.02;      ///< Verdict merge (pointer work).
  double cacheLookupCpuMs = 0.08;  ///< View-tree fingerprint walk + LRU.
  double decorationCpuMs = 45.0;   ///< addView: full relayout + recompose.
  double bypassClickCpuMs = 1.5;   ///< One dispatched bypass gesture.
};

/// Accumulators for one pipeline stage.
struct StageTally {
  std::int64_t runs = 0;   ///< Times the stage actually executed.
  std::int64_t skips = 0;  ///< Times the pipeline skipped it (cache/lint).
  double cpuMs = 0.0;      ///< Modeled CPU-ms spent in the stage.

  // Allocation axis (the zero-copy data plane's accounting): heap buffers
  // the stage allocated vs. pooled slabs it reused. Recording an allocation
  // adds NO modeled CPU — memory traffic and CPU pricing are orthogonal
  // axes, and pooling must not perturb the Table VII CPU numbers.
  std::int64_t allocs = 0;         ///< Fresh heap allocations.
  std::int64_t allocBytes = 0;     ///< Bytes of those allocations.
  std::int64_t pooledReuses = 0;   ///< Buffers served from the FramePool.
  std::int64_t pooledBytes = 0;    ///< Bytes served without heap traffic.

  StageTally& operator+=(const StageTally& o) {
    runs += o.runs;
    skips += o.skips;
    cpuMs += o.cpuMs;
    allocs += o.allocs;
    allocBytes += o.allocBytes;
    pooledReuses += o.pooledReuses;
    pooledBytes += o.pooledBytes;
    return *this;
  }
};

class WorkLedger {
 public:
  WorkLedger() = default;
  explicit WorkLedger(StageCosts costs) : costs_(costs) {}

  [[nodiscard]] const StageCosts& costs() const { return costs_; }

  // --- recording (called by the service's analysis pass) -------------------

  /// One delivered accessibility event at simulated time `simNow`.
  void recordEvent(Millis simNow);

  /// Opens an analysis pass. `debounceLatency` is the simulated-clock time
  /// the screen waited for ct stability (trigger event -> analysis).
  void beginAnalysis(Millis simNow, Millis debounceLatency = {});
  /// Closes the pass and folds its modeled latency into the totals.
  void endAnalysis();

  /// Stage executed, costing `cpuMs` of modeled CPU.
  void recordRun(Stage stage, double cpuMs);
  /// `n` executions of the same stage at `cpuMsEach` (bench convenience).
  void recordRuns(Stage stage, std::int64_t n, double cpuMsEach);
  /// Stage skipped by pipeline routing (cache hit, lint short-circuit...).
  void recordSkip(Stage stage);

  /// One decoration overlay added / one bypass click dispatched. Both
  /// record under Stage::kAct at the table cost and keep their own counts
  /// (the device model's frame-pacing term only cares about decorations).
  void recordDecoration();
  void recordBypass();

  void recordCacheHit();
  void recordCacheMiss();

  /// One fresh heap buffer of `bytes` allocated by `stage` (a screenshot
  /// slab, typically). Adds no modeled CPU.
  void recordAlloc(Stage stage, std::size_t bytes);
  /// One pooled buffer of `bytes` reused by `stage` — the allocation the
  /// FramePool saved. Adds no modeled CPU.
  void recordPooledReuse(Stage stage, std::size_t bytes);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] const StageTally& tally(Stage stage) const {
    return tallies_[static_cast<std::size_t>(stage)];
  }
  /// Modeled CPU-ms across every stage (events included).
  [[nodiscard]] double totalCpuMs() const;
  /// Modeled CPU-ms of the analysis path only (everything but kEvent).
  [[nodiscard]] double analysisCpuMs() const;

  [[nodiscard]] std::int64_t analyses() const { return analyses_; }
  [[nodiscard]] std::int64_t decorations() const { return decorations_; }
  [[nodiscard]] std::int64_t bypassClicks() const { return bypassClicks_; }
  [[nodiscard]] std::int64_t cacheHits() const { return cacheHits_; }
  [[nodiscard]] std::int64_t cacheMisses() const { return cacheMisses_; }

  // --- allocation axis ------------------------------------------------------
  /// Heap allocations / bytes across every stage.
  [[nodiscard]] std::int64_t totalAllocs() const;
  [[nodiscard]] std::int64_t totalAllocBytes() const;
  /// Pooled reuses / bytes across every stage.
  [[nodiscard]] std::int64_t totalPooledReuses() const;
  [[nodiscard]] std::int64_t totalPooledBytes() const;
  /// Fraction of buffer acquisitions served without heap traffic.
  [[nodiscard]] double poolHitRate() const;
  /// Largest single buffer ever recorded (alloc or reuse) — the per-frame
  /// working-set term perf::DeviceModel adds to the Table VII memory row.
  /// Invariant under pooling: a reused slab is exactly as large as the
  /// allocation it replaced, so the memory row is byte-identical with the
  /// pool on or off.
  [[nodiscard]] std::int64_t peakFrameBytes() const { return peakFrameBytes_; }

  /// Modeled CPU latency of the most recent / all analysis passes.
  [[nodiscard]] double lastAnalysisCpuMs() const { return lastAnalysisCpuMs_; }
  [[nodiscard]] double totalAnalysisLatencyCpuMs() const {
    return totalAnalysisLatencyCpuMs_;
  }
  /// Simulated-clock time screens spent waiting for ct stability.
  [[nodiscard]] Millis totalDebounceLatency() const {
    return totalDebounceLatency_;
  }

  /// Merges another ledger's tallies/counters (per-app session and fleet
  /// roll-ups). Per the thread-ownership rule above, `o`'s session must be
  /// quiescent. Trace events are appended up to this ledger's trace
  /// capacity.
  WorkLedger& operator+=(const WorkLedger& o);

  // --- Chrome trace ---------------------------------------------------------
  /// Enables the bounded trace-event log. Events beyond `maxEvents` are
  /// dropped (the counters above are never affected).
  void setTraceEnabled(bool on, std::size_t maxEvents = 16384);
  [[nodiscard]] bool traceEnabled() const { return traceEnabled_; }
  [[nodiscard]] std::size_t traceEventCount() const { return trace_.size(); }

  /// Writes the log as Chrome-trace JSON ({"traceEvents": [...]}) — load in
  /// chrome://tracing or https://ui.perfetto.dev. Timestamps are simulated
  /// microseconds; durations are modeled CPU-µs.
  void writeChromeTrace(std::ostream& os) const;
  /// Same, to a file; returns false when the file cannot be opened.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

 private:
  struct TraceEvent {
    Stage stage;
    double tsUs = 0.0;   ///< Simulated-clock start, microseconds.
    double durUs = 0.0;  ///< Modeled CPU duration, microseconds.
    std::int64_t analysisId = 0;
  };

  void pushTrace(Stage stage, double tsUs, double durUs);

  // Every member is session-confined per the thread-ownership rule above:
  // no lock anywhere in this class is not an accident, it is the contract.
  // CONFINED_TO documents it where the state lives; cross-session merges
  // read only quiescent sessions.
  StageCosts costs_ CONFINED_TO("owning session");
  std::array<StageTally, kStageCount> tallies_ CONFINED_TO("owning session"){};
  std::int64_t analyses_ = 0;
  std::int64_t decorations_ = 0;
  std::int64_t bypassClicks_ = 0;
  std::int64_t cacheHits_ = 0;
  std::int64_t cacheMisses_ = 0;
  double lastAnalysisCpuMs_ = 0.0;
  double totalAnalysisLatencyCpuMs_ = 0.0;
  Millis totalDebounceLatency_{0};
  std::int64_t peakFrameBytes_ = 0;  ///< Max single recorded buffer.

  // Current analysis pass.
  bool inAnalysis_ = false;
  double passCpuMs_ = 0.0;
  double passStartUs_ = 0.0;
  double lastEventUs_ = 0.0;  ///< Trace timestamp for out-of-pass records.

  bool traceEnabled_ = false;
  std::size_t traceCapacity_ = 16384;
  std::vector<TraceEvent> trace_;
};

}  // namespace darpa::core
