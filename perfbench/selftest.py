#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds perfbench and prepares the model like run.py, then checks that
  1. every workload, at tiny scale, emits every metric BENCHMARK.json names
     for each trace mode, in the declared unit, with a finite value;
  2. a changed seed changes each workload's inputs (input digest);
  3. a one-byte change to a hashed source file changes the model key, and
     an unchanged copy of the sources keeps it.
Exits 0 when all checks pass.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def check_metrics(failures, model):
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            result = bench.run_binary(workload, 1, 1, trace, model, tiny=True)
            _, problems = bench.select_metrics(result, trace)
            if problems:
                failures.append(f"{workload} trace={int(trace)}: missing or "
                                f"bad metrics {problems}")
            if not result["correct"]:
                failures.append(f"{workload} trace={int(trace)}: run not "
                                f"correct: {result['notes']}")


def check_seed_changes_inputs(failures, model):
    for workload in bench.WORKLOADS:
        digests = [bench.run_binary(workload, seed, 1, False, model,
                                    tiny=True)["input_digest"]
                   for seed in (1, 2)]
        if digests[0] == digests[1]:
            failures.append(f"{workload}: seeds 1 and 2 gave the same inputs")


def check_model_key(failures):
    done = bench.call([bench.BINARY, "describe"], timeout=60, capture=True)
    config_text = done.stdout
    build_file = os.path.join(bench.REPO, "CMakeLists.txt")
    original = os.path.join(bench.REPO, "src")
    copy = os.path.join(bench.OUT, "selftest", "src")
    shutil.rmtree(os.path.dirname(copy), ignore_errors=True)
    shutil.copytree(original, copy)
    try:
        key = bench.model_key(config_text, original, build_file)
        if bench.model_key(config_text, copy, build_file) != key:
            failures.append("an identical copy of src/ changed the model key")
        victim = next(bench.source_files(copy))
        with open(victim, "rb") as f:
            data = bytearray(f.read())
        data[0] ^= 0x01
        with open(victim, "wb") as f:
            f.write(data)
        if bench.model_key(config_text, copy, build_file) == key:
            failures.append("a one-byte change under src/ kept the model key")
        if bench.model_key(config_text + " ", original, build_file) == key:
            failures.append("a config change kept the model key")
    finally:
        shutil.rmtree(os.path.dirname(copy), ignore_errors=True)


def main():
    try:
        bench.build()
        model, _, _ = bench.prepare_model()
        failures = []
        check_metrics(failures, model)
        check_seed_changes_inputs(failures, model)
        check_model_key(failures)
    except bench.BenchError as err:
        print(f"selftest: {err}")
        return 1
    for failure in failures:
        print("FAIL: " + failure)
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
