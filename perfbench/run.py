#!/usr/bin/env python3
"""Builds and runs the bytebrain service benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload ingest_steady --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py                      # every workload, then a table

The first form runs one workload and passes the benchmark's output through:
lines starting with '#' describe the run, and the last line is one JSON
object with the keys correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1). The second
form runs every workload in turn, prints every metric by name with its
unit, and exits non-zero if any run failed a check.

The benchmark binary is built from source first, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), with CMake. Runs work in .bench_work/,
which is removed afterwards; --trace 1 leaves its span file in
.bench_work/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest_steady", "query_under_ingest"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "service_bench", "-j",
         str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "service_bench")
    return binary if os.path.exists(binary) else None


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if trace:
        traces = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 124, out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload:
        code, out = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        return code

    failed = False
    rows = []
    for workload in WORKLOADS:
        log(f"perfbench: running {workload}")
        code, out = run_one(binary, workload, args.seed, args.seconds,
                            args.trace)
        lines = out.strip().splitlines()
        for line in lines:
            if line.startswith("# CHECK FAILED"):
                log(f"{workload}: {line[2:]}")
        result = None
        if lines and not lines[-1].startswith("#"):
            result = json.loads(lines[-1])
        if code != 0 or result is None or not result["correct"]:
            failed = True
            log(f"perfbench: {workload} failed (exit code {code})")
        if result is not None:
            rows.append((workload, result))
    for workload, result in rows:
        ratio = result["failed"] / max(1, result["attempted"])
        print(f"{workload}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"failed_op_ratio={ratio:.6f}")
        for name, m in result["metrics"].items():
            print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
