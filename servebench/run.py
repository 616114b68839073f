#!/usr/bin/env python3
"""Serve benchmark entry point (see servebench/README.md).

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Run from the repository root. Builds the benchmark package (servebench/CMakeLists.txt,
which builds the repository's libraries from source) into $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench), records an environment fingerprint, refuses debug,
sanitizer, audit and trace builds, runs one workload and prints its result as the last
line of stdout. Traced runs also write their spans to <build>/traces/.

Exit codes: 0 correct, 1 build failure or a correctness check failed, 2 usage or build
guard, 3 the run is invalid (no numbers reported).
"""
import argparse
import json
import math
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"  # the repository's own default build type
RUN_TIMEOUT_S = 170
WORKLOADS = ["flat-deep", "hier-deep", "edit-churn"]


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "servebench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", bdir, "--target", "servebench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "servebench")


def cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(binary, workload, seed):
    cache = cmake_cache(build_dir())
    out = subprocess.run([binary, "--fingerprint"], stdout=subprocess.PIPE,
                         text=True, timeout=30)
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "HFQ_ELIGIBLE": cache.get("HFQ_ELIGIBLE", ""),
        "HFQ_AUDIT": cache.get("HFQ_AUDIT", ""),
        "HFQ_TRACE": cache.get("HFQ_TRACE", ""),
        "HFQ_SANITIZE": cache.get("HFQ_SANITIZE", ""),
        "HFQ_TSAN": cache.get("HFQ_TSAN", ""),
        "binary": json.loads(out.stdout.strip().splitlines()[-1]),
        "workload": workload,
        "seed": seed,
    }


def guard(fp):
    """Reason to refuse reporting numbers from this build, or None."""
    if fp["build_type"] in ("", "Debug"):
        return f"CMAKE_BUILD_TYPE is '{fp['build_type']}', not an optimized build"
    for opt in ("HFQ_AUDIT", "HFQ_TRACE", "HFQ_SANITIZE", "HFQ_TSAN"):
        if fp[opt].upper() in ("ON", "1", "TRUE", "YES"):
            return f"{opt} is {fp[opt]}"
    return None


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, trace, spec):
    """Problems with the result line against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != declared[name]:
            problems.append(f"metric {name} unit {m.get('unit')} != {declared[name]}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} value {m.get('value')} is not a finite number")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        kind = "per-layer" if trace else "end-to-end"
        problems.append(f"{kind} metrics missing: {missing}")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def trace_path(workload, seed, suffix):
    tdir = os.path.join(build_dir(), "traces")
    os.makedirs(tdir, exist_ok=True)
    return os.path.join(tdir, f"{workload}-{seed}.{suffix}")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", trace_path(workload, seed, "spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1, None
    return proc.returncode, json.loads(lines[-1])


def selftest():
    """Input determinism and metric coverage, on every workload."""
    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        log("BENCHMARK.json workloads differ from the benchmark's")
        return 1
    failures = []

    def digest(workload, seed):
        out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                              "--digest"], stdout=subprocess.PIPE, text=True,
                             timeout=60, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])["digest"]

    for w in WORKLOADS:
        a, b, c = digest(w, 11), digest(w, 11), digest(w, 12)
        if a != b:
            failures.append(f"{w}: same seed, different input digests {a} {b}")
        if a == c:
            failures.append(f"{w}: seeds 11 and 12 give the same input digest {a}")
    for w in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(binary, w, 11, 4, trace)
            if code != 0 or result is None:
                failures.append(f"{w} --trace {trace}: exit {code}")
                continue
            failures += [f"{w} --trace {trace}: {p}"
                         for p in check_result(result, trace, spec)]
    for f in failures:
        log("SELFTEST FAIL " + f)
    log("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    fp = fingerprint(binary, args.workload, args.seed)
    log("env " + json.dumps(fp, sort_keys=True))
    if args.trace:
        with open(trace_path(args.workload, args.seed, "env.json"), "w") as f:
            json.dump(fp, f, sort_keys=True)
    refusal = guard(fp)
    if refusal:
        log("refusing to report numbers: " + refusal)
        return 2

    code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        return code
    problems = check_result(result, args.trace, load_spec())
    for p in problems:
        log("FAIL " + p)
    if problems:
        return 1
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
