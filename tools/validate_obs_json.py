#!/usr/bin/env python3
"""Validate the observability JSON dumps produced by --metrics / --trace
and the flight-recorder drain from --obs-dir.

Usage: validate_obs_json.py <metrics.json> <trace.json> [events.jsonl]

Checks that the metrics snapshot parses, contains the counters the
instrumented analysis engine must have bumped (path solves), the path
loops' stage timer (hart.stage.walk.ns, one sample per loop of walks,
so never more samples than walks) and well-formed histograms with
quantile estimates; that the
trace file is a valid Chrome trace_event dump — complete ("X") spans
with causality args plus paired flow ("s"/"f") events linking every
pool task back to its submitting span; and, when given, that the
events.jsonl flight-recorder drain is line-delimited JSON with the
expected schema.  Used by the CI observability smoke step; exits
non-zero with a message on the first violation.
"""
import json
import sys

EVENT_KINDS = {
    "generic",
    "request_begin",
    "request_end",
    "task_submit",
    "task_start",
    "solve_done",
    "contract_failure",
    "trace_clear",
}


def fail(message: str) -> None:
    print(f"validate_obs_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate_metrics(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)

    for section in ("counters", "gauges", "histograms", "derived"):
        if section not in data:
            fail(f"{path}: missing section '{section}'")

    counters = data["counters"]
    if counters.get("hart.path_solve.count", 0) <= 0:
        fail(f"{path}: expected hart.path_solve.count > 0")

    for name, hist in data["histograms"].items():
        for key in ("count", "sum", "min", "max", "buckets", "p50", "p90",
                    "p99"):
            if key not in hist:
                fail(f"{path}: histogram '{name}' missing '{key}'")
        total = sum(b["count"] for b in hist["buckets"])
        if total != hist["count"]:
            fail(
                f"{path}: histogram '{name}' bucket counts {total} != "
                f"count {hist['count']}"
            )
        quantiles = [hist["p50"], hist["p90"], hist["p99"]]
        if any(q is not None and q < 0 for q in quantiles):
            fail(f"{path}: histogram '{name}' has a negative quantile")
        if hist["count"] > 0:
            p50, p90, p99 = quantiles
            if not p50 <= p90 <= p99:
                fail(
                    f"{path}: histogram '{name}' quantiles not monotone: "
                    f"{p50} / {p90} / {p99}"
                )
            if not hist["min"] <= p50 <= hist["max"]:
                fail(
                    f"{path}: histogram '{name}' p50 {p50} outside "
                    f"[{hist['min']}, {hist['max']}]"
                )

    # Stage-level latency attribution: every path solve of a default run
    # is a firing-table walk, and each loop of walks (analyze_network's
    # paths, a sweep's grid points, the what-if baseline and each query,
    # rank_link_upgrades) reports its wall-clock as one
    # hart.stage.walk.ns sample, while every walk counts itself in
    # hart.path_solve.count.  A loop of no walks records nothing, so
    # there are never more samples than walks.
    stages = [n for n in data["histograms"] if n.startswith("hart.stage.")]
    walk = data["histograms"].get("hart.stage.walk.ns")
    if walk is None or walk["count"] <= 0:
        fail(f"{path}: no hart.stage.walk.ns latency histogram recorded")
    if walk["count"] > counters["hart.path_solve.count"]:
        fail(
            f"{path}: {walk['count']} hart.stage.walk.ns samples but only "
            f"{counters['hart.path_solve.count']} path solves"
        )

    print(
        f"validate_obs_json: {path}: OK "
        f"({len(counters)} counters, {len(data['histograms'])} histograms, "
        f"{len(stages)} stage timers, "
        f"{counters.get('hart.path_solve.count')} path solves)"
    )


def validate_trace(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)

    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    spans = [e for e in events if e.get("ph") == "X"]
    flows = [e for e in events if e.get("ph") in ("s", "f")]
    other = [e for e in events if e.get("ph") not in ("X", "s", "f")]
    if other:
        fail(f"{path}: unexpected event phase in {other[0]}")
    if not spans:
        fail(f"{path}: no complete ('X') span events")

    for event in spans:
        for key in ("name", "cat", "ph", "pid", "tid", "ts", "dur"):
            if key not in event:
                fail(f"{path}: span missing '{key}': {event}")
        if event["dur"] < 0 or event["ts"] < 0:
            fail(f"{path}: negative timestamp in {event}")

    # Flow events: every id must appear exactly once as "s" and once as
    # "f" (the submit side and the worker side), and the finish side
    # must bind to the enclosing slice (bp: "e").
    begins = {}
    ends = {}
    for event in flows:
        for key in ("name", "cat", "ph", "pid", "tid", "ts", "id"):
            if key not in event:
                fail(f"{path}: flow event missing '{key}': {event}")
        side = begins if event["ph"] == "s" else ends
        if event["id"] in side:
            fail(f"{path}: duplicate flow {event['ph']} id {event['id']}")
        side[event["id"]] = event
        if event["ph"] == "f" and event.get("bp") != "e":
            fail(f"{path}: flow finish without bp='e': {event}")
    if set(begins) != set(ends):
        fail(
            f"{path}: unpaired flow ids (s: {sorted(begins)}, "
            f"f: {sorted(ends)})"
        )

    # Causality: every pool_task span carries the flow that delivered it,
    # with both endpoints present, and inherits a request id.
    span_ids = {e["args"]["span"] for e in spans if "span" in e.get("args", {})}
    for event in spans:
        if event["name"] != "pool_task":
            continue
        args = event.get("args", {})
        flow = args.get("flow")
        if not flow:
            fail(f"{path}: pool_task span without flow id: {event}")
        if flow not in begins or flow not in ends:
            fail(f"{path}: pool_task flow {flow} lacks an s/f pair")
        if not args.get("request"):
            fail(f"{path}: pool_task span without request id: {event}")
        if args.get("parent") not in span_ids:
            fail(
                f"{path}: pool_task parent {args.get('parent')} is not a "
                "recorded span"
            )

    names = {event["name"] for event in spans}
    if "analyze_network" not in names:
        fail(f"{path}: no analyze_network span recorded (spans: {names})")
    print(
        f"validate_obs_json: {path}: OK ({len(spans)} spans, "
        f"{len(flows)} flow endpoints, spans: {', '.join(sorted(names))})"
    )


def validate_events(path: str) -> None:
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"{path}:{lineno}: not valid JSON: {error}")
            for key in ("ts_ns", "thread", "kind", "name", "p0", "p1"):
                if key not in record:
                    fail(f"{path}:{lineno}: event missing '{key}': {record}")
            if record["kind"] not in EVENT_KINDS:
                fail(f"{path}:{lineno}: unknown event kind {record['kind']}")
            if record["ts_ns"] < 0:
                fail(f"{path}:{lineno}: negative timestamp")
            records.append(record)
    if not records:
        fail(f"{path}: no events recorded")
    for earlier, later in zip(records, records[1:]):
        if later["ts_ns"] < earlier["ts_ns"]:
            fail(f"{path}: events not time-sorted at ts {later['ts_ns']}")
    kinds = sorted({r["kind"] for r in records})
    # The analysis engine must have left request markers in the recorder.
    if "request_begin" not in kinds or "request_end" not in kinds:
        fail(f"{path}: no request_begin/request_end events (kinds: {kinds})")
    print(
        f"validate_obs_json: {path}: OK ({len(records)} events, "
        f"kinds: {', '.join(kinds)})"
    )


def main() -> None:
    if len(sys.argv) not in (3, 4):
        fail(
            "usage: validate_obs_json.py <metrics.json> <trace.json> "
            "[events.jsonl]"
        )
    validate_metrics(sys.argv[1])
    validate_trace(sys.argv[2])
    if len(sys.argv) == 4:
        validate_events(sys.argv[3])


if __name__ == "__main__":
    main()
