#!/usr/bin/env python3
"""Builds and runs the corelocate benchmark.

One run:
    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 25 --trace 0

prints notes, every metric with its unit, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics and a self-time table.
The exit code is non-zero when a check fails (digest mismatch, malformed
map) or the program cannot be built.

Steadiness evidence:
    python3 perfbench/run.py --workload serve_cold --repeat 10 --seconds 25

runs the workload with seeds seed..seed+K-1 and prints, per metric, the
median, the quartiles, the quartile spread and the largest deviation as a
share of the median, flagging any metric whose spread exceeds its bound in
BENCHMARK.json.

Self-test of the benchmark's own logic:
    python3 perfbench/run.py --selftest

The program is built from ../src with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the current directory, which must be the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("fleet_survey", "serve_hot", "serve_cold")
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR
                           not in cache.read_text(errors="replace")):
        shutil.rmtree(out)  # configured from another checkout: start over
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    log_path.write_text("")
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", "4"],
    ):
        with open(log_path, "a") as log:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
        if code != 0:
            tail = log_path.read_text(errors="replace").splitlines()[-20:]
            sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
            sys.exit(3)
    return out


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    work_dir = out / ("work-%d" % os.getpid())
    cmd = [str(out / "perfbench_workload"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        return 4, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def load_bounds():
    path = BENCH_DIR.parent / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def repeat(out, workload, first_seed, seconds, trace, count):
    runs = []
    for k in range(count):
        seed = first_seed + k
        code, result = run_once(out, workload, seed, seconds, trace, echo=False)
        if result is None or code != 0:
            sys.stderr.write("perfbench: seed %d failed with exit code %d\n" % (seed, code))
            return 1
        runs.append(result)
        print("seed %d: %s" % (seed, json.dumps(
            {k2: v["value"] for k2, v in result["metrics"].items()})), flush=True)
    bounds = load_bounds() if trace == 0 else {}
    flagged = 0
    print("\n%s, %d seeds from %d, %d s each" % (workload, count, first_seed, seconds))
    print("%-34s %14s %14s %14s %8s %8s %6s" % (
        "metric", "median", "q1", "q3", "iqr/med", "max/med", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        worst = max(abs(v - med) for v in values) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = bound is not None and spread > bound
        flagged += flag
        print("%-34s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %6s%s" % (
            name, med, q1, q3, 100 * spread, 100 * worst,
            "" if bound is None else "%.2f" % bound, "  OUT OF BOUND" if flag else ""))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K seeds and print median/quartiles/spread per metric")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: corelocate sources (src/) not found next to %s\n"
                         % BENCH_DIR.name)
        return 3
    out = build()
    if args.selftest:
        work_dir = out / "selftest-work"
        code = subprocess.run([str(out / "perfbench_selftest"), str(work_dir)]).returncode
        shutil.rmtree(work_dir, ignore_errors=True)
        return code
    if args.repeat:
        return repeat(out, args.workload, args.seed, args.seconds, args.trace, args.repeat)
    code, result = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 5
    return code


if __name__ == "__main__":
    sys.exit(main())
