#!/usr/bin/env python3
"""End-to-end benchmark runner for whart (see README.md in this directory).

Builds the library and the in-process load generator from source into
.bench_build/ at the repository root, then runs each workload in its own
process with WHART_THREADS=1 and prints every metric as
`workload metric value unit`.  Timings are at the reference speed of
whart_e2e's speed probe; `raw.<metric>` lines give them as measured.  The
last line of stdout is one JSON object.

  python3 e2ebench/run.py --workload paper_s6 --seed 1 --seconds 18 --trace 0
  python3 e2ebench/run.py --workload all --repeat 3 --json-out a.json
  python3 e2ebench/run.py --compare a.json b.json

Exit status: 0 when every answer was correct, 1 when any request failed
or a compared median regressed beyond its bound, 2 on a usage or build
error.  Workloads, units and bounds are read from BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "whart_e2e"
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def run(command, timeout, **kwargs):
    """Run `command` in its own process group; on timeout the whole group
    (e.g. make and its compilers) is killed and reaped."""
    try:
        process = subprocess.Popen(command, start_new_session=True, **kwargs)
    except OSError as error:
        fail(f"cannot run {command[0]}: {error}")
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{' '.join(command[:3])} exceeded {timeout} s")
    return process.returncode, out


# The library runs on one worker.  On a few shared cores, every extra
# worker makes the timings measure the scheduler (p50 spreads of 20-40%
# between runs at 2 and 4 workers, against 2-9% at one), and each
# multi-threaded call leaves per-thread state behind that slows later
# calls.  See "Run protocol" in README.md.
WHART_THREADS = 1


# Timings whart_e2e reports beyond the BENCHMARK.json metrics: printed,
# never bounded (README.md, "End-to-end metrics").
INFO_UNITS = {"latency_p99_ms": "ms"}


def build_jobs():
    return min(4, len(os.sched_getaffinity(0)))


def build():
    """Configure once, then let CMake bring whart_e2e up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("whart sources not found at the repository root")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "whart_e2e",
                  "-j", str(build_jobs())])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail(f"{' '.join(step[:3])} exited {code}")


def run_once(workload, seed, seconds, trace):
    """One whart_e2e process; returns its parsed JSON result."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace", "--trace-out",
                    str(traces / f"{workload}-seed{seed}.json")]
    env = dict(os.environ, WHART_THREADS=str(WHART_THREADS))
    code, out = run(command, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE,
                    text=True)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"{workload}: whart_e2e exited {code} without a result")
    result = json.loads(lines[-1])
    result["correct"] = (code == 0 and result["golden_ok"]
                         and result["failed"] == 0)
    return result


def report(workload, result, specs):
    """Print one run's metrics; returns them as {name: {value, unit}}."""
    metrics = {}
    for m in specs:
        if m["name"] not in result["metrics"]:
            fail(f"{workload}: whart_e2e did not report {m['name']}")
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload} {m['name']} {value!r} {m['unit']}")
    units = dict(INFO_UNITS, **{m["name"]: m["unit"] for m in specs})
    for name, value in result["metrics"].items():
        if name in INFO_UNITS:
            print(f"{workload} {name} {value!r} {units[name]}")
    for name, value in result["raw"].items():
        print(f"{workload} raw.{name} {value!r} {units[name]}")
    print(f"{workload} probe_ns {result['probe_ns']!r} ns")
    attempted = result["attempted"]
    print(f"{workload} error_rate {result['failed'] / max(attempted, 1)!r} "
          "fraction")
    print(f"{workload} latency_samples {result['samples']} count")
    print(f"{workload} post_checked {result['post_checked']} count")
    print(f"{workload} threads {result['threads']} count")
    print(f"{workload} cpus_rotated {result['cpus']} count")
    return metrics


def compare(spec, path_a, path_b):
    """Median of B against median of A, per (workload, end-to-end metric)."""
    try:
        a = json.loads(Path(path_a).read_text())["workloads"]
        b = json.loads(Path(path_b).read_text())["workloads"]
    except (OSError, ValueError, KeyError) as error:
        fail(f"cannot read results: {error}")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            base = statistics.median(a[workload][name])
            new = statistics.median(b[workload][name])
            worse = (new - base) / base
            if m["better"] == "higher":
                worse = -worse
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"{workload} {name} {base:.6g} -> {new:.6g} {m['unit']} "
                  f"worse {worse:+.2%} bound {m['bound']:.0%} {verdict}")
    sys.exit(1 if regressions else 0)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--json-out", help="write every run's values here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        compare(spec, *args.compare)
    if args.repeat < 1:
        fail("--repeat must be at least 1")

    build()
    specs = spec["per_layer" if args.trace else "end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    values = {w: {m["name"]: [] for m in specs} for w in workloads}
    attempted = failed = 0
    correct = True
    last = {}
    for repeat in range(args.repeat):
        for workload in workloads:
            result = run_once(workload, args.seed + repeat, args.seconds,
                              args.trace)
            last = report(workload, result, specs)
            for name, metric in last.items():
                values[workload][name].append(metric["value"])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]

    if args.repeat > 1:
        for workload in workloads:
            for m in specs:
                q1, median, q3 = statistics.quantiles(
                    values[workload][m["name"]], n=4)
                print(f"{workload} {m['name']} median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} {m['unit']}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(
            {"trace": bool(args.trace), "workloads": values}, indent=1))
    if len(workloads) > 1 or args.repeat > 1:
        # Several runs: medians per workload (metric names repeat).
        last = {f"{w}.{m['name']}": {
                    "value": statistics.median(values[w][m["name"]]),
                    "unit": m["unit"]} for w in workloads for m in specs}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": last}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
