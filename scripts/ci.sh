#!/usr/bin/env bash
# Full local CI: configure, build, test (which includes the detlint
# determinism-lint gates), a portable lane that reruns the bit-exactness
# and fingerprint tests without -march=native, the same again under
# ASan+UBSan (with float-cast-overflow), a TSan lane
# over the threaded fleet/scheduler tests, a bench smoke lane (every
# bench binary once with --quick), a Release perf-smoke lane (the
# detector hot-path bench's speedup/zero-alloc contracts need optimized
# codegen) followed by a perf floor gate over the published
# BENCH_detector.json numbers, then the Clang-only static lanes: a
# -Wthread-safety -Werror build over the GUARDED_BY/RankedMutex
# annotations and a FATAL clang-tidy pass
# (bugprone-*/performance-* as errors). Both Clang lanes are skipped
# automatically when LLVM is not installed — the detlint + rank-validator
# gates above run on any toolchain and stay fatal everywhere.
#
#   scripts/ci.sh            # everything
#   SKIP_SANITIZE=1 scripts/ci.sh   # skip the sanitizer rebuilds + reruns
#   SKIP_BENCH=1 scripts/ci.sh      # skip the bench smoke + perf lanes
#
# Uses build/, build-portable/, build-asan/, build-tsan/, build-perf/ and
# build-tsa/ at the repo root; all gitignored.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build (build/) =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "$JOBS"

echo "== ctest (build/) =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== detlint (determinism/concurrency source lint) =="
# Redundant with the DetlintRepo ctest gate above, but run explicitly so a
# lint failure is reported as its own lane with the findings on stdout.
./build/tools/detlint/detlint --root .

echo "== configure + build, portable (build-portable/) =="
# The tree above builds with -march=native. The vector kernels (the head's
# tile kernel, blendSpan's 16-pixel block) and the feature pass claim bits
# that do not depend on the host's lane width, so the bit-exactness suites
# run again on a build with DARPA_NATIVE_SIMD off (baseline ISA). The
# screen fingerprint is a bit-exact contract too (cached verdicts and the
# fleet digests key on it), so its suites ride along. This lane and the
# perf lane build with -Werror, so a new compiler warning fails CI.
cmake -B build-portable -S . -DDARPA_NATIVE_SIMD=OFF -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-portable -j "$JOBS" --target darpa_tests

echo "== ctest, portable bit-exactness tests (build-portable/) =="
ctest --test-dir build-portable --output-on-failure -j "$JOBS" \
  -R 'BlendOracle|RasterOracle|FusedFeatureParityTest|FeatureLumaTest|MlpBatchTest|OneStageTest|FingerprintTest|VirtualFingerprintPropertyTest'

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
  echo "== configure + build, ASan+UBSan (build-asan/) =="
  cmake -B build-asan -S . -DDARPA_SANITIZE=ON
  cmake --build build-asan -j "$JOBS"

  echo "== ctest, sanitized (build-asan/) =="
  # halt_on_error keeps UBSan findings fatal so ctest reports them.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "== ctest, ASan strict-stack webview/virtual-tree tests (build-asan/) =="
  # Focused rerun of the WebView/virtual-subtree suites with
  # stack-use-after-return detection on: the iterative virtual-tree walk
  # exists precisely so hostile page depth stays off the native stack, and
  # the deep/wide traversal tests are where a frame-lifetime bug would hide.
  ASAN_OPTIONS=detect_leaks=1:detect_stack_use_after_return=1 \
  UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R 'WebViewTest|VirtualFingerprintPropertyTest|VirtualLintTraversalTest|VirtualDecorationTest'

  echo "== configure + build, TSan (build-tsan/) =="
  # ThreadSanitizer lane over the tests that actually exercise threads: the
  # work-stealing fleet scheduler (steal-heavy skewed workload at W=4, and
  # its byte-equality against the epoch-barrier oracle in
  # FleetSchedulerTest/SharedVerdictTierTest), the shared verdict tier and
  # the frame pool. (TSan is incompatible with ASan, hence the separate
  # build tree.)
  cmake -B build-tsan -S . -DDARPA_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"

  echo "== ctest, TSan fleet/scheduler/pool/tier/webview tests (build-tsan/) =="
  # The webview suites ride along: hybrid dumps flow through the same
  # threaded fleet pipeline (fingerprint -> verdict caches -> tier), so
  # the virtual-subtree code must be as race-clean as the native path.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'FleetTest|FleetSchedulerTest|FramePoolTest|SharedVerdictTierTest|WebViewTest|VirtualFingerprintPropertyTest|VirtualLintTraversalTest'
fi

if [ "${SKIP_BENCH:-0}" != "1" ]; then
  echo "== bench smoke (--quick) =="
  # Every bench binary runs once at reduced scale. Benches exit non-zero
  # when one of their modeled contracts fails (e.g. bench_pipeline_cache's
  # cache-coverage contract), so this lane is fatal.
  for bench in build/bench/bench_*; do
    [ -x "$bench" ] || continue
    echo "-- $(basename "$bench") --quick"
    "$bench" --quick > /dev/null
  done

  echo "-- pipeline_trace.json"
  # bench_pipeline_cache exports its cached run's Chrome trace next to the
  # binary. Nothing else parses that output, so check here that it loads
  # as JSON, carries complete ("ph": "X") spans, and has no actual_us[...]
  # wall-clock counters (the ledger exports the modeled axis only).
  python3 - <<'PYEOF'
import json, sys

events = json.load(open("build/bench/pipeline_trace.json"))["traceEvents"]
spans = sum(1 for e in events if e.get("ph") == "X")
wall = [e["name"] for e in events if e.get("name", "").startswith("actual_us[")]
if spans == 0 or wall:
    print(f"FAIL: pipeline_trace.json has {spans} complete spans and "
          f"wall-clock counters {wall}")
    sys.exit(1)
print(f"pipeline trace OK: {spans} complete spans, no actual_us counters")
PYEOF

  echo "== perf smoke, Release (build-perf/) =="
  # The hot-path bench asserts real speedups (batched GEMM >= 3x, detect
  # >= 1.7x) and zero steady-state allocations; the fleet-throughput bench
  # publishes the inline scaling curve (W = 1 ... N session workers) and
  # gates the shared-tier L2 hit rate and the hybrid lint->CV stage-mix
  # shift. The speedup contracts are only meaningful under optimization,
  # so this lane builds Release (-O3) and runs both benches at --quick
  # scale. Fatal on contract failure. The two binaries share the trained-model cache in
  # build-perf/bench, so the fleet bench reuses the hot-path bench's model.
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-perf -j "$JOBS" \
    --target bench_detector_hotpath --target bench_fleet_throughput
  (cd build-perf/bench && ./bench_detector_hotpath --quick)
  (cd build-perf/bench && ./bench_fleet_throughput --quick)

  # Both perf benches persist their measured numbers as JSON next to the
  # binary; the lane fails if either artifact is missing and then publishes
  # both at the repo root (gitignored) so perf regressions are diffable
  # across runs without re-running the lane.
  for artifact in BENCH_detector.json BENCH_fleet.json; do
    if [ ! -f "build-perf/bench/$artifact" ]; then
      echo "FAIL: perf lane did not produce $artifact" >&2
      exit 1
    fi
    cp "build-perf/bench/$artifact" "./$artifact"
    echo "-- published $artifact"
  done

  echo "== perf floor gate (BENCH_detector.json) =="
  # Hard floor on the head's batched throughput and the end-to-end batched
  # detect: fail the lane when either runs slower than half the measured
  # fp32 speed (ceilings are 2x the medians of six --quick runs on a
  # 4-core AVX-512 Xeon VM: fp32 batched ~103 ns/candidate, batched detect
  # ~5.4 ms/image; the pre-tile-kernel code read ~250 ns and ~11 ms).
  # Absolute ceilings deliberately complement the bench's
  # in-run speedup ratios, whose scalar denominators are
  # link-layout-sensitive. Deliberately loose enough to absorb machine
  # jitter, tight enough that "the batched GEMM lost its tiling" cannot
  # slip through as a green run.
  python3 - <<'PYEOF'
import json, sys

d = json.load(open("BENCH_detector.json"))
checks = [("forward_batched_ns_per_candidate", 200.0, "ns"),
          ("detect_batched_ms_per_image", 11.0, "ms")]
failed = False
for key, ceiling, unit in checks:
    value = d.get(key)
    if value is None or value < 0:
        print(f"FAIL: perf floor gate: {key} missing from BENCH_detector.json")
        failed = True
    elif value > ceiling:
        print(f"FAIL: perf floor gate: {key} = {value:.1f} {unit} exceeds "
              f"the {ceiling:.0f} {unit} ceiling (2x the measured fp32 "
              f"number)")
        failed = True
    else:
        print(f"perf floor OK: {key} = {value:.1f} {unit} <= "
              f"{ceiling:.0f} {unit}")
sys.exit(1 if failed else 0)
PYEOF
fi

echo "== thread-safety (clang -Wthread-safety, errors) =="
# Compile-time concurrency proof over the GUARDED_BY/RankedMutex
# annotations (util/thread_annotations.h). Clang-only: GCC compiles the
# annotations away, so the lane configures its own clang++ tree. Library
# target only — the annotations all live in src/. DARPA_NATIVE_SIMD stays
# off so the lane builds on any host clang without -march surprises.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DDARPA_THREAD_SAFETY=ON -DDARPA_NATIVE_SIMD=OFF
  cmake --build build-tsa -j "$JOBS" --target darpa
else
  echo "clang++ not installed; skipping thread-safety lane"
fi

echo "== clang-tidy (fatal: bugprone-*/performance-* are errors) =="
# The curated bugprone-*/performance-* set is promoted to errors via
# WarningsAsErrors in .clang-tidy; the advisory modernize/readability
# checks still only warn. tidy.sh exits 0 with a notice when clang-tidy
# is not installed, so non-LLVM machines skip rather than fail.
scripts/tidy.sh build

echo "CI OK"
