#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload screen_stream --seed 1 \
        --seconds 10 --trace 0

Builds perfbench (and libdarpa with the repository's own CMake flags) into
.bench_build/, prepares the paper-scale detector once under a key that
hashes its configs and every file under src/, runs the workload, and prints
human-readable lines followed by one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every run is also appended, stamped with a host
fingerprint, to .bench_build/results.jsonl. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
OUT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(OUT, "perfbench")
MODEL_DIR = os.path.join(OUT, "models")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("screen_stream", "fleet_mixed", "fleet_shared")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the invocation without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def call(args, timeout, capture=False):
    """Runs a child to completion; its output goes to stderr unless captured."""
    try:
        done = subprocess.run(
            args, cwd=REPO, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{args[0]}: {err}") from err
    return done


def build():
    done = call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
    if done.returncode != 0:
        raise BenchError("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    done = call(["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=850)
    if done.returncode != 0 or not os.path.exists(BINARY):
        raise BenchError("build failed")


def source_files(src_root):
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def model_key(config_text, src_root, build_file):
    """Hash of the model's configs, every file under src/ and the build file
    whose flags the trained weights depend on."""
    h = hashlib.sha256()
    h.update(config_text.encode())
    for path in source_files(src_root):
        with open(path, "rb") as f:
            data = f.read()
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        h.update(f"\0{rel}\0{len(data)}\0".encode())
        h.update(data)
    with open(build_file, "rb") as f:
        h.update(b"\0build\0" + f.read())
    return h.hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def current_key():
    done = call([BINARY, "describe"], timeout=60, capture=True)
    if done.returncode != 0:
        raise BenchError("perfbench describe failed")
    return model_key(done.stdout, os.path.join(REPO, "src"),
                     os.path.join(REPO, "CMakeLists.txt"))


def prepare_model():
    """Returns (model path, key, seconds spent training or None).

    A cached model is used only when its sidecar names this exact key and
    the file's checksum matches; anything else is retrained from fixed
    seeds. Models under other keys are deleted, never loaded."""
    key = current_key()
    os.makedirs(MODEL_DIR, exist_ok=True)
    path = os.path.join(MODEL_DIR, key + ".bin")
    sidecar = os.path.join(MODEL_DIR, key + ".json")
    for name in os.listdir(MODEL_DIR):
        if not name.startswith(key):
            os.remove(os.path.join(MODEL_DIR, name))
    try:
        with open(sidecar) as f:
            meta = json.load(f)
        if meta.get("key") == key and meta.get("sha256") == file_sha256(path):
            return path, key, None
    except (OSError, ValueError):
        pass
    log(f"[perfbench] training the paper-scale detector (key {key[:16]})")
    tmp = path + ".tmp"
    started = time.monotonic()
    done = call([BINARY, "train", "--out", tmp], timeout=800, capture=True)
    if done.returncode != 0:
        raise BenchError("model training failed")
    train_s = time.monotonic() - started
    with open(sidecar + ".tmp", "w") as f:
        json.dump({"key": key, "sha256": file_sha256(tmp),
                   "train_s": round(train_s, 3)}, f)
    os.replace(tmp, path)
    os.replace(sidecar + ".tmp", sidecar)
    return path, key, train_s


def run_binary(workload, seed, seconds, trace, model, tiny=False):
    args = [BINARY, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--model", model]
    if tiny:
        args.append("--tiny")
    done = call(args, timeout=RUN_TIMEOUT_S, capture=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench run exited {done.returncode} silently")
    try:
        return json.loads(lines[-1])
    except ValueError as err:
        raise BenchError(f"unreadable perfbench output: {lines[-1]}") from err


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when the checkout is not
    itself the top of a git tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=REPO, capture_output=True, text=True,
                             timeout=30)
        if top.returncode != 0 or os.path.realpath(
                top.stdout.strip()) != os.path.realpath(REPO):
            return None, None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=REPO,
                                capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def host_fingerprint(result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = git_state()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "int8_lane": result.get("int8_lane"),
            "build_type": result.get("build_type"),
            "workers": result.get("workers"),
            "git_sha": sha, "git_dirty": dirty}


def reference_status(workload, seed, result):
    try:
        with open(os.path.join(BENCH_DIR, "reference.json")) as f:
            reference = json.load(f)["digests"]
    except (OSError, ValueError, KeyError):
        return "no reference file"
    expected = reference.get(f"{workload}/{seed}")
    if expected is None:
        return "no reference for this seed"
    same = (expected["output"] == result["output_digest"]
            and expected["input"] == result["input_digest"])
    return "match" if same else "mismatch"


def declared_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def select_metrics(result, trace):
    """The metrics BENCHMARK.json declares for this mode, checked present,
    finite and in the declared unit."""
    produced = result["per_layer" if trace else "end_to_end"]
    metrics, problems = {}, []
    for m in declared_metrics(trace):
        got = produced.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(
                got["value"]) or got["unit"] != m["unit"]:
            problems.append(m["name"])
            continue
        metrics[m["name"]] = got
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = args.trace == 1

    try:
        build()
        model, key, train_s = prepare_model()
        result = run_binary(args.workload, args.seed, args.seconds, trace,
                            model)
        metrics, problems = select_metrics(result, trace)
    except BenchError as err:
        log(f"[perfbench] {err}")
        return 1

    host = host_fingerprint(result)
    status = reference_status(args.workload, args.seed, result)
    correct = bool(result["correct"]) and not problems
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "model_key": key, "train_s": train_s,
              "output_digest": result["output_digest"],
              "input_digest": result["input_digest"], "reference": status,
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics,
              "notes": result["notes"]}
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"model: key={key[:16]} "
          + (f"trained in {train_s:.1f} s (not part of setup_s)"
             if train_s is not None else "cached"))
    for note in result["notes"]:
        print("note: " + note)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"digests: output={result['output_digest']} "
          f"input={result['input_digest']} reference: {status}")
    print(f"analyses: attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio "
          f"{result['failed'] / max(1, result['attempted']):.6f}")
    if problems:
        print("missing or non-finite metrics: " + ", ".join(problems))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
