#!/usr/bin/env python3
"""Summarize an --obs-dir observability bundle on the terminal.

Usage: obs_report.py <obs-dir>

Reads the three artifacts written by `whart_cli --obs-dir=<dir>` (only
metrics.json is required; trace.json and events.jsonl enrich the report
when present) and prints:

  * the top spans by total wall time, with exact p50/p99,
  * stage-level latency attribution (the hart.stage.* histograms, as a
    share of their combined time),
  * histogram quantile estimates for the busiest duration metrics,
  * cross-thread traffic (pool tasks, flow arrows, request count),
  * flight-recorder summary (event counts by kind, drops if any).

Read-only; never mutates the bundle.  Exits 1 if the bundle looks
structurally wrong (missing metrics.json).
"""
import json
import os
import sys
from collections import Counter


def fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def report_spans(metrics: dict) -> None:
    spans = metrics.get("spans") or []
    if not spans:
        return
    print("top spans by total time:")
    ranked = sorted(spans, key=lambda s: s["total_ns"], reverse=True)
    width = max(len(s["name"]) for s in ranked[:10])
    for span in ranked[:10]:
        mean = span["total_ns"] / span["count"] if span["count"] else 0
        print(
            f"  {span['name']:<{width}}  x{span['count']:<5} "
            f"total {fmt_ns(span['total_ns']):>10}  "
            f"mean {fmt_ns(mean):>10}  "
            f"p50 {fmt_ns(span['p50_ns']):>10}  "
            f"p99 {fmt_ns(span['p99_ns']):>10}"
        )
    print()


def report_stages(metrics: dict) -> None:
    histograms = metrics.get("histograms", {})
    stages = {
        name: hist
        for name, hist in histograms.items()
        if name.startswith("hart.stage.")
    }
    if not stages:
        return
    total = sum(h["sum"] for h in stages.values())
    print("stage-level latency attribution:")
    width = max(len(n) for n in stages)
    for name, hist in sorted(
        stages.items(), key=lambda kv: kv[1]["sum"], reverse=True
    ):
        share = 100.0 * hist["sum"] / total if total else 0.0
        mean = hist["sum"] / hist["count"] if hist["count"] else 0
        print(
            f"  {name:<{width}}  {share:5.1f}%  x{hist['count']:<6} "
            f"total {fmt_ns(hist['sum']):>10}  mean {fmt_ns(mean):>10}  "
            f"p99 {fmt_ns(hist.get('p99') or 0):>10}"
        )
    print()


def report_quantiles(metrics: dict) -> None:
    histograms = {
        name: hist
        for name, hist in metrics.get("histograms", {}).items()
        if name.endswith(".ns") and not name.startswith("hart.stage.")
    }
    if not histograms:
        return
    print("duration quantiles (log-bucket estimates):")
    ranked = sorted(
        histograms.items(), key=lambda kv: kv[1]["sum"], reverse=True
    )[:8]
    width = max(len(n) for n, _ in ranked)
    for name, hist in ranked:
        print(
            f"  {name:<{width}}  x{hist['count']:<6} "
            f"p50 {fmt_ns(hist.get('p50') or 0):>10}  "
            f"p90 {fmt_ns(hist.get('p90') or 0):>10}  "
            f"p99 {fmt_ns(hist.get('p99') or 0):>10}"
        )
    print()


def report_trace(trace: dict) -> None:
    events = trace.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    flows = [e for e in events if e.get("ph") in ("s", "f")]
    pool_tasks = [e for e in spans if e.get("name") == "pool_task"]
    requests = {
        e["args"]["request"]
        for e in spans
        if e.get("args", {}).get("request")
    }
    threads = {e.get("tid") for e in spans}
    print(
        f"trace: {len(spans)} spans on {len(threads)} threads, "
        f"{len(pool_tasks)} pool tasks, {len(flows) // 2} flow arrows, "
        f"{len(requests)} request(s)"
    )


def report_events(path: str) -> None:
    kinds: Counter = Counter()
    count = 0
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    kinds[json.loads(line).get("kind", "?")] += 1
                except json.JSONDecodeError:
                    kinds["<unparsable>"] += 1
                count += 1
    except OSError:
        return
    summary = ", ".join(f"{k}: {n}" for k, n in kinds.most_common())
    print(f"flight recorder: {count} events ({summary})")


def main() -> None:
    if len(sys.argv) != 2:
        print("usage: obs_report.py <obs-dir>", file=sys.stderr)
        sys.exit(2)
    obs_dir = sys.argv[1]
    metrics = load_json(os.path.join(obs_dir, "metrics.json"))
    if metrics is None:
        print(
            f"obs_report: {obs_dir}/metrics.json missing or invalid",
            file=sys.stderr,
        )
        sys.exit(1)

    print(f"observability report for {obs_dir}\n")
    report_spans(metrics)
    report_stages(metrics)
    report_quantiles(metrics)

    derived = metrics.get("derived", {})
    if derived:
        parts = [f"{k} = {v:.4g}" for k, v in sorted(derived.items())]
        print(f"derived: {', '.join(parts)}")

    trace = load_json(os.path.join(obs_dir, "trace.json"))
    if trace is not None:
        report_trace(trace)
    report_events(os.path.join(obs_dir, "events.jsonl"))


if __name__ == "__main__":
    main()
