#!/usr/bin/env python3
"""Aggregate every committed BENCH_*.json baseline into one markdown
performance-trajectory table.

Each baseline file is a google-benchmark JSON document committed at the
PR that introduced its gate (see the bench-regression job in
.github/workflows/ci.yml).  This tool renders them all into a single
markdown report — one section per suite, one row per benchmark — so the
repo's performance story is readable in one place instead of spread
across JSON blobs:

    tools/bench_summary.py                      # markdown to stdout
    tools/bench_summary.py --output summary.md  # ... or to a file
    tools/bench_summary.py --dir path/to/repo   # baselines elsewhere

Times are wall-clock (`real_time`): for a benchmark that fans work out
to a thread pool, `cpu_time` counts only the main thread and would
understate the cost.  Each suite's header names the CPU count and the
google-benchmark library build type it was recorded with, and rows run
with google-benchmark threads > 1 are marked.  For suites run with
repetitions, only the `_mean` aggregate is reported (suffix stripped),
matching how check_bench_regression.py reads them.  User counters are
listed inline per row.

Stdlib only; no third-party packages.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Keys of the google-benchmark JSON entry that are run metadata, not
#: user counters.
_NON_COUNTER_KEYS = frozenset(
    {
        "name",
        "run_name",
        "run_type",
        "repetitions",
        "repetition_index",
        "threads",
        "iterations",
        "real_time",
        "cpu_time",
        "time_unit",
        "aggregate_name",
        "aggregate_unit",
        "family_index",
        "per_family_instance_index",
    }
)


#: Nanoseconds per google-benchmark `time_unit`.
_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def format_time(ns: float) -> str:
    """Render a nanosecond wall-clock time with a human unit."""
    if ns < 1e3:
        return f"{ns:.1f} ns"
    if ns < 1e6:
        return f"{ns / 1e3:.2f} us"
    if ns < 1e9:
        return f"{ns / 1e6:.2f} ms"
    return f"{ns / 1e9:.2f} s"


def format_counter(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"


def load_rows(path: str) -> list[dict]:
    """Benchmark rows of one baseline: iteration runs, or the `_mean`
    aggregates (suffix stripped) when the suite ran with repetitions."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    rows: dict[str, dict] = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("real_time") is None:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "mean" and name.endswith("_mean"):
                rows[name[: -len("_mean")]] = bench
        else:
            rows.setdefault(name, bench)
    out = []
    for name, bench in rows.items():
        counters = {
            key: value
            for key, value in bench.items()
            if key not in _NON_COUNTER_KEYS and isinstance(value, (int, float))
        }
        out.append(
            {
                "name": name,
                "real_time": float(bench["real_time"])
                * _NS_PER_UNIT[bench.get("time_unit", "ns")],
                "threads": int(bench.get("threads", 1)),
                "counters": counters,
            }
        )
    return out


def context_line(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        context = json.load(handle).get("context", {})
    date = str(context.get("date", "?")).split("T")[0]
    cpus = context.get("num_cpus", "?")
    mhz = context.get("mhz_per_cpu", "?")
    build = context.get("library_build_type", "?")
    return (
        f"recorded {date} on num_cpus={cpus} @ {mhz} MHz, "
        f"library_build_type={build}"
    )


def render(directory: str) -> str:
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise SystemExit(f"no BENCH_*.json baselines under {directory}")
    lines = [
        "# Benchmark baseline summary",
        "",
        "Committed google-benchmark baselines, one section per suite;",
        "times are wall-clock (`real_time`), and rows marked `threaded`",
        "ran with google-benchmark threads > 1.",
        "Regenerate any suite with its `bench_*` binary and",
        "`--benchmark_format=json --benchmark_out=BENCH_<suite>.json`;",
        "the bench-regression CI job gates fresh runs against these",
        "files via tools/check_bench_regression.py.",
        "",
    ]
    for path in paths:
        suite = os.path.basename(path)[len("BENCH_") : -len(".json")]
        rows = sorted(load_rows(path), key=lambda row: row["name"])
        lines.append(f"## {suite}")
        lines.append("")
        lines.append(f"`{os.path.basename(path)}` — {context_line(path)}")
        lines.append("")
        lines.append("| benchmark | real time | threads | counters |")
        lines.append("| --- | ---: | --- | --- |")
        for row in rows:
            counters = ", ".join(
                f"{key}={format_counter(value)}"
                for key, value in sorted(row["counters"].items())
            )
            threads = (
                f"threaded ({row['threads']})" if row["threads"] > 1 else "1"
            )
            lines.append(
                f"| `{row['name']}` | {format_time(row['real_time'])} "
                f"| {threads} | {counters} |"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default=".",
        help="directory holding the BENCH_*.json baselines (default: .)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the markdown here instead of stdout",
    )
    args = parser.parse_args(argv)
    report = render(args.dir)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        try:
            print(report)
        except BrokenPipeError:  # `bench_summary.py | head` is fine
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
