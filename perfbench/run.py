#!/usr/bin/env python3
"""Benchmark runner for the gossip-aggregation library.

Builds the benchmark driver from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build) and runs one workload: untraced, as
one driver process per iteration, reporting medians over the processes;
traced, in one process. The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload avg_reps --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 40 [--trace 1]
  python3 perfbench/run.py --self-test

Run it from the repository root. See perfbench/README.md.
"""
import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["avg_reps", "count_robust", "runtime_newscast"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DRIVER_TIMEOUT_S = 170
# An untraced run starts one driver process per iteration: each gets
# fresh memory placement and thread layout, which on a shared host shift a
# whole process's timings together. At least MIN_PROCESSES run.
MIN_PROCESSES = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = (ROOT / target).resolve()
    if ROOT not in target.parents and target != ROOT:
        target = ROOT / ".bench_build"  # never write outside the checkout
    return target / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "experiment" / "engine.hpp").is_file():
        raise RuntimeError(f"no gossip sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    driver = out / "perfbench_driver"
    if not driver.is_file():
        raise RuntimeError(f"build produced no {driver}")
    return driver


@functools.lru_cache(maxsize=None)
def git_sha():
    """The checkout's commit, read now (not at configure time)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        sha = proc.stdout.strip()
        return sha if proc.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_driver(driver, workload, seed, seconds, trace, extra=(), tag=None):
    """Runs the driver once; returns (exit code, stdout, parsed result)."""
    out = build_dir()
    tag = tag or f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha(), *extra]
    if trace:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return 124, exc.stdout or "", None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        (out / "results").mkdir(parents=True, exist_ok=True)
        (out / "results" / f"{tag}.txt").write_text(proc.stdout)
    return proc.returncode, proc.stdout, result


def pooled_run(driver, workload, seed, seconds, extra):
    """Untraced run: one driver process per checked iteration, while the
    budget lasts; returns (exit code, stdout text, result). Each metric is
    the median over the processes."""
    start = time.monotonic()
    pooled = {}
    attempted = failed = procs = 0
    lines = []
    while True:
        procs += 1
        code, stdout, res = run_driver(
            driver, workload, seed, seconds, 0, extra,
            tag=f"{workload}-seed{seed}-trace0-p{procs}")
        if code not in (0, 1) or res is None:
            lines.append(f"driver process {procs} failed (exit code {code})")
            return 2, "\n".join(lines) + "\n", None
        if procs == 1:
            lines.append(stdout.splitlines()[0])  # provenance
        lines += [ln for ln in stdout.splitlines()
                  if ln.startswith("CHECK FAILED")]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            pooled.setdefault(name, (m["unit"], []))[1].append(m["value"])
        elapsed = time.monotonic() - start
        # Stop when the next process would overrun the budget.
        if procs >= MIN_PROCESSES and elapsed * (procs + 1) / procs > seconds:
            break

    end_to_end, _ = declared_metrics()
    metrics = {}
    lines.append(f"{workload}: {procs} iterations, {elapsed:.1f} s")
    for name, (unit, values) in pooled.items():
        value = statistics.median(values)
        if name in end_to_end:
            metrics[name] = {"value": value, "unit": unit}
        # Runtime-only figures (exchange_fail_ratio,
        # wire_bytes_per_node_cycle) print here but stay out of the JSON.
        lines.append(f"  {name} = {value!r} {unit}  (median of {len(values)},"
                     f" min {min(values)!r}, max {max(values)!r})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    lines.append(json.dumps(result))
    text = "\n".join(lines) + "\n"
    (build_dir() / "results" / f"{workload}-seed{seed}-trace0.txt"
     ).write_text(text)
    return (0 if failed == 0 else 1), text, result


def run_workload(driver, workload, seed, seconds, trace, extra):
    """One benchmark run of `workload`; returns (exit code,
    stdout text, result)."""
    if not trace:
        return pooled_run(driver, workload, seed, seconds, extra)
    code, stdout, res = run_driver(driver, workload, seed, seconds, 1, extra)
    if res is not None:
        # The readable list goes before the result, which stays last.
        lines = stdout.strip().splitlines()[:-1]
        lines += [f"  {k} = {v['value']!r} {v['unit']}"
                  for k, v in res["metrics"].items()]
        stdout = "\n".join(lines + [json.dumps(res)]) + "\n"
    return code, stdout, res


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def self_test(driver):
    """Tiny-N run of every workload: every declared metric is emitted
    with its unit, and a corrupted result fails the run."""
    end_to_end, per_layer = declared_metrics()
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    for w in WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            code, _, res = run_workload(driver, w, 3, 0.5, trace,
                                        ["--scale", "tiny"])
            label = f"{w} trace {trace}"
            expect(code == 0, f"{label}: exit code {code}")
            if res is None:
                problems.append(f"{label}: no JSON result line")
                continue
            expect(set(res) == RESULT_KEYS, f"{label}: keys {sorted(res)}")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1,
                   f"{label}: correct={res.get('correct')} "
                   f"failed={res.get('failed')}")
            got = res.get("metrics", {})
            expect(set(got) == set(wanted),
                   f"{label}: missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))}")
            for name, unit in wanted.items():
                m = got.get(name)
                if m is None:
                    continue
                expect(m.get("unit") == unit,
                       f"{label}: {name} unit {m.get('unit')} != {unit}")
                expect(isinstance(m.get("value"), (int, float)),
                       f"{label}: {name} value {m.get('value')}")
        code, _, res = run_workload(driver, w, 4, 0.5, 0,
                                    ["--scale", "tiny", "--corrupt"])
        expect(code != 0, f"{w} corrupted: exit code 0")
        expect(res is not None and res.get("correct") is False
               and res.get("failed", 0) >= 1,
               f"{w} corrupted: the output check did not trip")
        log(f"self-test: {w} done")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    if problems:
        return 1
    print("self-test OK: every declared metric emitted with its unit; "
          "corrupted results fail the run")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        driver = build()
    except (RuntimeError, OSError) as exc:
        log(f"error: {exc}")
        return 2
    if args.self_test:
        return self_test(driver)
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")

    status = 0
    for w in WORKLOADS if args.all else [args.workload]:
        code, stdout, _ = run_workload(driver, w, args.seed, args.seconds,
                                       args.trace, [])
        sys.stdout.write(stdout)
        sys.stdout.flush()
        if code != 0:
            log(f"{w}: FAILED (exit code {code})")
            status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
