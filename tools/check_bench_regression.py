#!/usr/bin/env python3
"""Performance-regression gate over google-benchmark JSON output.

Compares a fresh benchmark run against a committed baseline and fails
(exit 1) when any tracked benchmark slowed down by more than the
threshold (default 20%).  Because baseline and current runs usually come
from different machines (a developer box vs a CI runner), the comparison
can be normalized by a calibration benchmark present in both files: each
run's times are divided by its calibration time, so only *relative*
regressions against the rest of the suite count.

It can also assert speedup invariants within a single run — e.g. that
the firing-table walk (.../0) beats the superframe collapse (.../1) by
at least 1.5x on the tagged workload:

    tools/check_bench_regression.py --current out.json \
        --require-speedup 'BM_TypicalNetworkSolve/64/1:BM_TypicalNetworkSolve/64/0:1.5'

and bound a benchmark's user counter — e.g. that a benchmark reporting
an `allocated_bytes` counter allocates nothing:

    tools/check_bench_regression.py --current out.json \
        --require-counter-max 'BM_Example:allocated_bytes:0'

Stdlib only; no third-party packages.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict[str, float]:
    """Map benchmark name -> cpu_time (ns) for aggregate-free runs.

    For runs with repetitions, prefers the `_mean` aggregate and strips
    its suffix, so names line up across runs with different repetition
    settings.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    times: dict[str, float] = {}
    aggregates: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        cpu = bench.get("cpu_time")
        if cpu is None:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "mean" and name.endswith("_mean"):
                aggregates[name[: -len("_mean")]] = float(cpu)
        else:
            times.setdefault(name, float(cpu))
    times.update(aggregates)
    return times


def load_counter(path: str, bench_name: str, counter: str) -> float | None:
    """A user counter of one benchmark (google-benchmark emits user
    counters as top-level keys of each benchmark entry).  Prefers the
    non-aggregate entry; falls back to the `_mean` aggregate."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    fallback = None
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name == bench_name and counter in bench:
            if bench.get("run_type") != "aggregate":
                return float(bench[counter])
        if name == bench_name + "_mean" and counter in bench:
            fallback = float(bench[counter])
    return fallback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed google-benchmark JSON")
    parser.add_argument("--current", required=True,
                        help="fresh google-benchmark JSON")
    parser.add_argument("--threshold", type=float, default=1.20,
                        help="max allowed current/baseline time ratio "
                             "(default 1.20 = 20%% slowdown)")
    parser.add_argument("--calibrate", metavar="NAME",
                        help="benchmark used to normalize machine speed; "
                             "must exist in both files")
    parser.add_argument("--only-prefix", action="append", default=[],
                        metavar="PREFIX",
                        help="restrict the regression check to benchmarks "
                             "whose name starts with PREFIX (repeatable)")
    parser.add_argument("--require-speedup", action="append", default=[],
                        metavar="SLOW:FAST:RATIO",
                        help="assert cpu_time(SLOW)/cpu_time(FAST) >= RATIO "
                             "within the current run (repeatable)")
    parser.add_argument("--require-counter-max", action="append", default=[],
                        metavar="NAME:COUNTER:MAX",
                        help="assert user counter COUNTER of benchmark NAME "
                             "is <= MAX in the current run (repeatable)")
    args = parser.parse_args()

    current = load_benchmarks(args.current)
    failures: list[str] = []

    for spec in args.require_speedup:
        try:
            slow_name, fast_name, ratio_text = spec.rsplit(":", 2)
            required = float(ratio_text)
        except ValueError:
            parser.error(f"bad --require-speedup spec: {spec!r}")
        slow = current.get(slow_name)
        fast = current.get(fast_name)
        if slow is None or fast is None or fast <= 0.0:
            failures.append(f"speedup {spec}: benchmark missing from "
                            f"{args.current}")
            continue
        achieved = slow / fast
        line = (f"speedup {slow_name} / {fast_name}: {achieved:.2f}x "
                f"(required {required:.2f}x)")
        if achieved < required:
            failures.append(line)
        else:
            print(f"ok: {line}")

    for spec in args.require_counter_max:
        try:
            bench_name, counter, max_text = spec.rsplit(":", 2)
            maximum = float(max_text)
        except ValueError:
            parser.error(f"bad --require-counter-max spec: {spec!r}")
        value = load_counter(args.current, bench_name, counter)
        if value is None:
            failures.append(f"counter {spec}: benchmark or counter missing "
                            f"from {args.current}")
            continue
        line = (f"counter {bench_name}[{counter}] = {value:g} "
                f"(max {maximum:g})")
        if value > maximum:
            failures.append(line)
        else:
            print(f"ok: {line}")

    if args.baseline:
        baseline = load_benchmarks(args.baseline)
        scale = 1.0
        if args.calibrate:
            base_cal = baseline.get(args.calibrate)
            cur_cal = current.get(args.calibrate)
            if not base_cal or not cur_cal:
                failures.append(f"calibration benchmark {args.calibrate!r} "
                                "missing from baseline or current run")
            else:
                scale = base_cal / cur_cal
                print(f"calibration: current machine runs "
                      f"{args.calibrate} at {1.0 / scale:.2f}x "
                      "the baseline machine's time")
        checked = 0
        for name, base_time in sorted(baseline.items()):
            if args.only_prefix and not any(
                    name.startswith(p) for p in args.only_prefix):
                continue
            cur_time = current.get(name)
            if cur_time is None:
                failures.append(f"{name}: present in baseline, missing from "
                                "current run")
                continue
            checked += 1
            ratio = (cur_time * scale) / base_time
            line = f"{name}: {ratio:.3f}x baseline"
            if ratio > args.threshold:
                failures.append(f"{line} (threshold {args.threshold:.2f}x)")
            else:
                print(f"ok: {line}")
        if checked == 0 and not failures:
            failures.append("no benchmarks matched the regression check")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
