"""The repository benchmark: one seeded workload, closed loop, CPU only.

Run from the repository root::

    python3 perfbench/run.py --workload query-hot --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Times are scaled to a reference host speed measured by ``probe.py``
between segments; the table prints them raw as well.
``--trace 1`` alternates untraced and traced segments and reports the
per-layer table from the traced ones, with the traced/untraced ops/s
ratio as the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are a readable table with sample
counts.  The exit code is 1 when a correctness check failed and 2 when
the library cannot be imported.

``--slow LAYER=K`` runs one wrapped layer ``K`` times per call (for
example ``asr.maintenance.delta=2``): the injected regression the
sensitivity test expects the benchmark's bounds to flag.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Fresh worlds a run sets up; ``setup_s`` is the median of their set-ups.
WORLDS = 3
#: Segments every world replays whatever the host's speed.  Counts that
#: must repeat exactly are taken over these segments only.
EXACT_SEGMENTS = 6
#: No segment starts after this many seconds, whatever ``--seconds`` says.
MAX_RUN_S = 120.0
#: Interpreter thread switch interval during a run.  At the default 5 ms
#: two CPU-bound clients fall into a convoy in some runs and alternate in
#: others, which flips select-text's median between about 2.5 and 5 ms;
#: at 0.5 ms they interleave the same way every run.  One client is not
#: affected: the main thread only waits while it runs.
SWITCH_INTERVAL_S = 0.0005


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def windowed_percentile(series: list[list[float]], q: float) -> tuple[float, str]:
    """The median over time windows of each window's ``q`` percentile.

    ``series`` holds each segment's samples in time order.  A window is a
    run of consecutive segments holding enough samples to leave ten above
    the percentile; a median over windows resists a slow spell of the
    host where a percentile of the pooled samples shifts with its length.
    """
    need = math.ceil(10 / (1 - q))
    windows: list[list[float]] = []
    current: list[float] = []
    for samples in series:
        current.extend(samples)
        if len(current) >= need:
            windows.append(current)
            current = []
    if current and windows:
        windows[-1].extend(current)
    elif current:
        windows.append(current)
    value = statistics.median(percentile(window, q) for window in windows)
    count = sum(map(len, windows))
    return value, f"n={count} in {len(windows)} window(s) of >={need}"


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        slow: dict[str, int] | None = None) -> dict:
    """Measure ``seconds`` of segments over :data:`WORLDS` fresh worlds.

    In trace mode every second segment is traced.  Returns the segments
    (untraced and traced, each tagged with whether it is in the exact
    prefix), the set-ups and the correctness gate's findings.
    """
    default_switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        return _measure(workload_name, seed, seconds, trace, slow)
    finally:
        sys.setswitchinterval(default_switch)


def _measure(workload_name: str, seed: int, seconds: float, trace: bool, slow) -> dict:
    from probe import REFERENCE_S, HostProbe
    from spans import OP_SPAN, SpanRecorder, instrument
    from workloads import WORKLOADS, Client, OpStream, build_world, gate, replay

    workload = WORKLOADS[workload_name]
    host = HostProbe()
    began = time.perf_counter()
    plain, traced, setups, problems = [], [], [], []
    facts: dict = {}
    for world_index in range(WORLDS):
        probed = host.measure()
        started = time.perf_counter()
        world = build_world(workload, seed)
        stream = OpStream(workload, world.generated, seed, world_index)
        setup_s = time.perf_counter() - started
        after = host.measure()
        scale = 2 * REFERENCE_S / (probed + after)
        probed = after
        setups.append(SetUp(setup_s, world.generate_s, world.build_s, scale))
        if not facts:
            facts = {"asr_rows": world.asr_rows, "asr_pages": world.asr_pages}
        clients = [Client(world) for _ in range(workload.clients)]
        issued, measured = [], 0.0
        try:
            for index in itertools.count():
                if index >= EXACT_SEGMENTS and (
                    measured >= seconds / WORLDS
                    or time.perf_counter() - began > MAX_RUN_S
                ):
                    break
                ops = stream.segment()
                issued.extend(ops)
                recorder = SpanRecorder() if trace and index % 2 else None
                on_op = None
                if recorder is not None:
                    def on_op(client, op, recorder=recorder):
                        span = recorder.open(OP_SPAN)
                        try:
                            return client.execute(op)
                        finally:
                            recorder.close(span)
                with instrument(recorder, slow):
                    segment = replay(clients, ops, on_op=on_op)
                after = host.measure()
                segment.scale = 2 * REFERENCE_S / (probed + after)
                probed = after
                segment.recorder = recorder
                segment.exact = index < EXACT_SEGMENTS
                (traced if recorder else plain).append(segment)
                measured += segment.wall_s
        finally:
            for client in clients:
                client.close()
        problems.extend(gate(world, issued, seed))
        world.close()
    return {"workload": workload, "plain": plain, "traced": traced,
            "setups": setups, "problems": problems, **facts}


@dataclass(frozen=True)
class SetUp:
    """One world's set-up times (raw seconds) and the host scale around them."""

    setup_s: float
    generate_s: float
    build_s: float
    scale: float


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _failed(raw: dict) -> tuple[int, int]:
    segments = raw["plain"] + raw["traced"]
    attempted = sum(s.ops for s in segments)
    return attempted, sum(s.failed for s in segments) + len(raw["problems"])


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    """The user-visible metrics of the untraced segments, plus table lines.

    Times are scaled to the reference host speed (:mod:`probe`); the table
    also prints each one raw.
    """
    from workloads import POOL_PAGES

    segments = raw["plain"]
    exact = [s for s in segments if s.exact]
    attempted, failed = _failed(raw)

    def latency(attribute: str, q: float, scaled: bool = True) -> tuple[float, str]:
        return windowed_percentile(
            [[ms * (s.scale if scaled else 1.0) for ms in getattr(s, attribute)]
             for s in segments], q)

    tails = {
        "query_p50_ms": ("query_ms", 0.50),
        "query_p99_ms": ("query_ms", 0.99),
        "update_p50_ms": ("update_ms", 0.50),
        "update_p95_ms": ("update_ms", 0.95),
    }
    metrics = {
        "ops_per_s": _metric(
            statistics.median(s.ops / (s.wall_s * s.scale) for s in segments), "1/s"),
        **{name: _metric(latency(*spec)[0], "ms") for name, spec in tails.items()},
        "pages_per_op": _metric(
            sum(s.pages for s in exact) / sum(s.ops for s in exact), "pages/op"),
        "setup_s": _metric(statistics.median(w.setup_s * w.scale for w in raw["setups"]), "s"),
        "asr_pages": _metric(raw["asr_pages"], "pages"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }
    samples = {
        "ops_per_s": f"median of {len(segments)} segments of {segments[0].ops} ops; "
                     f"raw {statistics.median(s.ops / s.wall_s for s in segments):.4f}",
        **{name: f"{latency(*spec)[1]}; raw {latency(*spec, scaled=False)[0]:.4f}"
           for name, spec in tails.items()},
        "pages_per_op": f"over the first {len(exact)} segments",
        "setup_s": f"median of {len(raw['setups'])} set-ups; "
                   f"raw {statistics.median(w.setup_s for w in raw['setups']):.4f}",
        "asr_pages": f"{raw['asr_rows']} ASR rows; the pool holds {POOL_PAGES} pages",
        "peak_rss_mb": "process peak",
        "ok_ratio": f"{failed} failed of {attempted}",
    }
    lines = [
        f"{name:<14} {m['value']:>12.4f} {m['unit']:<8} {samples[name]}"
        for name, m in metrics.items()
    ]
    return metrics, lines


def _span_table(segments: list) -> dict[str, dict]:
    """Calls and host-scaled times per span name, summed over ``segments``."""
    table: dict[str, dict] = {}
    for segment in segments:
        for name, row in segment.recorder.layers().items():
            into = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["total_s"] += row["total_s"] * segment.scale
            into["self_s"] += row["self_s"] * segment.scale
    return table


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of the traced segments, plus table lines.

    Times are host-scaled self times in ms per op over every traced
    segment; counts are per segment, over the traced segments of the
    exact prefix.
    """
    from spans import OP_SPAN

    segments, plain = raw["traced"], raw["plain"]
    exact = [s for s in segments if s.exact]
    n, ops = len(exact), sum(s.ops for s in segments)
    table, exact_table = _span_table(segments), _span_table(exact)
    counts: dict[str, int] = {}
    for segment in exact:
        for name, value in segment.recorder.counts.items():
            counts[name] = counts.get(name, 0) + value
    pool = {key: sum(s.pool[key] for s in exact) for key in exact[0].pool}

    def self_ms(name: str) -> dict:
        return _metric(table.get(name, {}).get("self_s", 0.0) * 1e3 / ops, "ms/op")

    def per_segment(value: float) -> dict:
        return _metric(value / n, "count")

    def ratio(part: float, whole: float) -> dict:
        return _metric(part / whole if whole else 0.0, "ratio")

    root = table[OP_SPAN]
    covered = sum(row["self_s"] for name, row in table.items() if name != OP_SPAN)
    examined = counts.get("asr.maintenance.rows_examined", 0)
    changed = counts.get("asr.maintenance.rows_changed", 0)
    metrics = {
        "workload.generate_s": _metric(
            statistics.median(w.generate_s * w.scale for w in raw["setups"]), "s"),
        "asr.build_s": _metric(statistics.median(w.build_s * w.scale for w in raw["setups"]), "s"),
        "gom.update_self_ms": self_ms("gom.update"),
        "asr.maintenance.delta_ms": self_ms("asr.maintenance.delta"),
        "asr.maintenance.rows_examined": per_segment(examined),
        "asr.maintenance.rows_changed": per_segment(changed),
        "asr.maintenance.useful_ratio": ratio(changed, examined),
        "asr.apply_ms": self_ms("asr.apply"),
    }
    for op in ("search", "range", "insert", "delete"):
        name = f"storage.btree.{op}"
        metrics[f"{name}.calls"] = per_segment(exact_table.get(name, {}).get("calls", 0))
        metrics[f"{name}.self_ms"] = self_ms(name)
    metrics.update({
        "storage.pool.hit_ratio": ratio(pool["hits"], pool["hits"] + pool["misses"]),
        "storage.pool.evictions": per_segment(pool["evictions"]),
        "storage.pool.page_reads": per_segment(pool["page_reads"]),
        "storage.pool.page_writes": per_segment(pool["page_writes"]),
        "query.planner.plan_ms": self_ms("query.planner.plan"),
        "query.evaluator.supported_ms": self_ms("query.evaluator.supported"),
        "query.evaluator.unsupported_ms": self_ms("query.evaluator.unsupported"),
        "query.evaluator.pages_per_query": _metric(
            counts.get("query.evaluator.pages", 0)
            / max(1, counts.get("query.evaluator.queries", 0)), "pages"),
        "query.service.parse_ms": self_ms("query.service.parse"),
        "query.service.validate_ms": self_ms("query.service.validate"),
        "query.service.compile_ms": self_ms("query.service.compile"),
        "query.service.run_ms": self_ms("query.service.run"),
        "query.cache.hit_ratio": ratio(
            counts.get("query.cache.hits", 0), counts.get("query.cache.probes", 0)),
        "telemetry.drift.observe_ms": self_ms("telemetry.drift.observe"),
        "concurrency.lock.read_wait_ms": self_ms("concurrency.lock.read_wait"),
        "concurrency.lock.write_wait_ms": self_ms("concurrency.lock.write_wait"),
        "bench.trace_overhead_ratio": _metric(
            statistics.median(s.ops / (s.wall_s * s.scale) for s in segments)
            / statistics.median(s.ops / (s.wall_s * s.scale) for s in plain), "ratio"),
        "bench.layer_coverage_ratio": ratio(covered, root["total_s"]),
        "bench.uncovered_ms": self_ms(OP_SPAN),
    })
    lines = [f"{'span':<32} {'calls/op':>9} {'self ms/op':>11} {'share':>7}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<32} {row['calls'] / ops:>9.2f} {row['self_s'] * 1e3 / ops:>11.4f} "
            f"{row['self_s'] / root['total_s']:>7.1%}"
        )
    lines.append(
        f"{len(segments)} traced segments of {segments[0].ops} ops (counts over the "
        f"first {n}); spans cover {covered / root['total_s']:.1%} of op wall time, "
        f"{root['self_s'] / root['total_s']:.1%} is uncovered; maintenance changed "
        f"{changed} of {examined} rows examined"
    )
    lines += [f"{name:<34} {m['value']:>14.4f} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def _slow_spec(text: str) -> tuple[str, int]:
    name, _, times = text.partition("=")
    return name, int(times or 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow", type=_slow_spec, action="append", default=[])
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the library sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)} or all")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, report(name, args))
    return status


def report(name: str, args) -> int:
    """Run one workload and print its table and result line; its exit code."""
    raw = run(name, args.seed, args.seconds, bool(args.trace), dict(args.slow))
    metrics, lines = per_layer(raw) if args.trace else end_to_end(raw)
    attempted, failed = _failed(raw)
    print(f"workload {name} seed {args.seed} trace {args.trace}: "
          f"{len(raw['plain'])} untraced + {len(raw['traced'])} traced segments over "
          f"{len(raw['setups'])} worlds; median host scale "
          f"{statistics.median(s.scale for s in raw['plain'] + raw['traced']):.3f}")
    for line in lines:
        print(line)
    for segment in raw["plain"] + raw["traced"]:
        for error in segment.errors:
            print(f"ERROR: {error}")
    for problem in raw["problems"]:
        print(f"FAILED: {problem}")
    correct = not raw["problems"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
