// The three workloads. Each runs closed loop in one process, takes its
// inputs from RunOptions::seed only, measures for RunOptions::seconds, and
// fills RunResult with the end-to-end metrics (always) and the per-layer
// metrics (when tracing).
#pragma once

#include "util.h"

namespace perfbench {

/// One device: a seeded stream of distinct generated screens pushed onto
/// the WindowManager, each analyzed with DarpaService::analyzeNow().
[[nodiscard]] RunResult runScreenStream(const RunOptions& options);

/// N sessions, each running its own randomly drawn app; tier off, no lint.
[[nodiscard]] RunResult runFleetMixed(const RunOptions& options);

/// The 8-app shared population with lint prefilter, the shared L2 tier, a
/// 4-entry L1 and half of third-party AUIs WebView-hosted.
[[nodiscard]] RunResult runFleetShared(const RunOptions& options);

/// Process start, for setup accounting.
[[nodiscard]] Clock::time_point processStart();

}  // namespace perfbench
