"""The traced run: per-layer metrics and the tracing overhead.

One untraced pass through the real CLI entry points, then one pass
whose server-side processes run under ``traced_server.py``; both use
the same seed and phase plan.  Per-layer numbers come from the traced
pass's spans and ``stats`` snapshots, the per-process figures and run
validity from the untraced pass, and each end-to-end metric is also
reported as the traced/untraced ratio (the cost of tracing).
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import launch
import measure
import run as runner
from verify import Reference

#: Share of ``--seconds`` given to each of the two passes.
PASS_SHARE = 0.6
IMPORT_SAMPLES = 3

LAYER_UNITS = {
    "setup.import_ms": "ms",
    "setup.import_scipy_ms": "ms",
    "setup.ready_ms": "ms",
    "frontend.overhead_us": "us",
    "wire.decode_us": "us",
    "wire.encode_us": "us",
    "wire.bytes_per_req": "B",
    "server.handle_self_us": "us",
    "server.refused_share": "ratio",
    "batcher.batch_size_mean": "count",
    "batcher.wait_us": "us",
    "engine.eval_batch_us": "us",
    "engine.ns_per_point": "ns",
    "engine.curve_ms": "ms",
    "engine.plan_hit_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "workers.roundtrip_ms": "ms",
    "workers.compute_ms": "ms",
    "workers.ipc_ms": "ms",
    "workers.ring_fallback_share": "ratio",
    "workers.utilization": "ratio",
    "router.handle_self_us": "us",
    "router.backend_call_ms": "ms",
    "router.retries": "count",
    "router.backend_skew": "ratio",
    **{f"proc.cpu_ms_per_req.{r}": "ms" for r in ("frontend", "backend", "worker")},
    **{f"proc.rss_mb.{r}": "MB" for r in ("frontend", "backend", "worker")},
    "loadgen.cpu_share": "ratio",
    "loadgen.late_ms_p90": "ms",
    "host.steal_share": "ratio",
    **{f"trace_ratio.{m}": "ratio" for m in runner.END_TO_END_UNITS},
}


# ----------------------------------------------------------------------
# Import cost
# ----------------------------------------------------------------------


def parse_importtime(text: str) -> tuple[float, float]:
    """(repro import ms, scipy import ms) from ``-X importtime`` output.

    The first is the cumulative time of the top-level ``repro`` entries;
    the second adds every ``scipy`` entry not nested in another one.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.lstrip()
        rows.append(((len(raw) - len(name)) // 2, name, cumulative))
    repro_us = sum(c for level, name, c in rows if level == 0 and name.split(".")[0] == "repro")
    scipy_us = 0
    for i, (level, name, c) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < level), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            scipy_us += c
    return repro_us / 1000.0, scipy_us / 1000.0


def import_cost(env: dict[str, str]) -> tuple[float, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.service"],
            env=env, capture_output=True, text=True, check=True,
        )
        samples.append(parse_importtime(done.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------


class Spans:
    """Spans of one traced process, indexed for self-time queries."""

    def __init__(self, role: str, data: dict, windows: list[tuple[float, float]]):
        self.role = role
        self.marks = data["marks"]
        # Only spans that start inside a measured window count, so
        # warm-up and drains do not skew per-layer figures.
        self.rows = [
            tuple(s) for s in data["spans"]
            if any(lo <= s[2] <= hi for lo, hi in windows)
        ]
        self.children: dict[int, list[tuple]] = {}
        for span in self.rows:
            if span[4] is not None:
                self.children.setdefault(span[4], []).append(span)

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.rows if s[1] == name]

    def self_time(self, span: tuple) -> float:
        """Duration minus the part of it its children cover."""
        intervals = sorted((max(c[2], span[2]), min(c[3], span[3]))
                           for c in self.children.get(span[0], ()))
        covered, reach = 0.0, span[2]
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span[3] - span[2] - covered


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _dur(span: tuple) -> float:
    return span[3] - span[2]


def batch_waits(spans: Spans) -> list[float]:
    """Per submit: time waited beyond its batch's engine (or worker) call."""
    flushes = {s[0] for s in spans.named("batcher.flush")}
    engine = sorted(
        (s[3], _dur(s)) for s in spans.rows
        if s[4] in flushes and s[1] in ("engine.eval_batch", "workers.submit")
    )
    ends = [e[0] for e in engine]
    waits = []
    for submit in spans.named("batcher.submit"):
        k = bisect.bisect_right(ends, submit[3]) - 1
        if k >= 0:
            waits.append(max(0.0, _dur(submit) - engine[k][1]))
    return waits


def layer_metrics(workload, traced: runner.Run, spans: list[Spans]) -> dict[str, float]:
    front = next(s for s in spans if s.role == "frontend")
    servers = [s for s in spans if s.named("server.handle")]
    all_rows = [row for s in spans for row in s.rows]
    stats_all = [traced.outcome.stats] if workload.topology == "serve" else traced.backend_stats
    out: dict[str, float] = {}

    ready = front.marks.get("ready"), front.marks.get("init")
    out["setup.ready_ms"] = (ready[0] - ready[1]) * 1000.0 if all(ready) else 0.0

    handle_name = "router.handle" if workload.topology == "route" else "server.handle"
    handle_dur = {s[5]: _dur(s) for s in front.named(handle_name) if s[5] is not None}
    gaps = [
        phase.recv[i] - phase.sent[i] - handle_dur[phase.requests[i]["id"]]
        for phase in (w.phase for w in traced.outcome.latency_windows)
        for i in range(phase.next_index)
        if phase.recv[i] and phase.requests[i]["id"] in handle_dur
    ]
    out["frontend.overhead_us"] = statistics.median(gaps) * 1e6 if gaps else 0.0

    decodes = [s for s in front.named("wire.decode") if s[6][0] == 1]
    encodes = [s for s in front.named("wire.encode") if s[6][0] == 2]
    out["wire.decode_us"] = _mean(map(_dur, decodes)) * 1e6
    out["wire.encode_us"] = _mean(map(_dur, encodes)) * 1e6
    out["wire.bytes_per_req"] = (
        (sum(s[6][1] for s in decodes) + sum(s[6][1] for s in encodes)) / len(decodes)
        if decodes else 0.0
    )

    out["server.handle_self_us"] = _mean(
        s.self_time(h) for s in servers for h in s.named("server.handle")
    ) * 1e6
    counters = [st.get("counters", {}) for st in stats_all]
    requests = sum(c.get("requests_total", 0) for c in counters)
    out["server.refused_share"] = (
        sum(c.get("overloaded_total", 0) for c in counters) / requests if requests else 0.0
    )
    sizes = [st.get("histograms", {}).get("batch_size", {}) for st in stats_all]
    flushes = sum(h.get("count", 0) for h in sizes)
    out["batcher.batch_size_mean"] = (
        sum(h.get("mean", 0.0) * h.get("count", 0) for h in sizes) / flushes if flushes else 0.0
    )
    out["batcher.wait_us"] = _mean(w for s in spans for w in batch_waits(s)) * 1e6

    evals = [r for r in all_rows if r[1] == "engine.eval_batch"]
    out["engine.eval_batch_us"] = _mean(map(_dur, evals)) * 1e6
    points = sum(r[6] for r in evals)
    out["engine.ns_per_point"] = sum(map(_dur, evals)) / points * 1e9 if points else 0.0
    out["engine.curve_ms"] = _mean(
        _dur(r) for r in all_rows if r[1] == "engine.curve_plan"
    ) * 1e3
    plans = [st.get("plan_cache", {}) for st in stats_all]
    lookups = sum(p.get("hits", 0) + p.get("misses", 0) for p in plans)
    out["engine.plan_hit_ratio"] = (
        sum(p.get("hits", 0) for p in plans) / lookups if lookups else 0.0
    )
    caches = [st.get("cache", {}) for st in stats_all]
    lookups = sum(c.get("hits", 0) + c.get("misses", 0) for c in caches)
    out["cache.hit_ratio"] = sum(c.get("hits", 0) for c in caches) / lookups if lookups else 0.0

    out.update(worker_metrics(traced, all_rows))

    router_rows = [r for r in all_rows if r[1] == "router.handle"]
    out["router.handle_self_us"] = _mean(front.self_time(r) for r in router_rows) * 1e6
    out["router.backend_call_ms"] = _mean(
        _dur(r) for r in all_rows if r[1] == "router.backend_call"
    ) * 1e3
    if workload.topology == "route":
        rstats = traced.outcome.stats
        out["router.retries"] = float(rstats.get("counters", {}).get("retries_total", 0))
        per_backend = [b.get("requests_total", 0) for b in rstats.get("backends", {}).values()]
        out["router.backend_skew"] = (
            max(per_backend) / statistics.fmean(per_backend) if sum(per_backend) else 0.0
        )
    else:
        out["router.retries"] = 0.0
        out["router.backend_skew"] = 0.0
    return out


def worker_metrics(traced: runner.Run, all_rows: list[tuple]) -> dict[str, float]:
    keys = ("workers.roundtrip_ms", "workers.compute_ms", "workers.ipc_ms",
            "workers.ring_fallback_share", "workers.utilization")
    before = traced.outcome.stats_before.get("workers")
    after = traced.outcome.stats.get("workers")
    if not before or not after:
        return dict.fromkeys(keys, 0.0)

    def total(stats, field):
        return sum(s[field] for s in stats["shards"])

    jobs = total(after, "jobs") - total(before, "jobs")
    busy = total(after, "busy_seconds") - total(before, "busy_seconds")
    ring_jobs = after["ring"]["jobs"] - before["ring"]["jobs"]
    fallbacks = after["ring"]["fallbacks"] - before["ring"]["fallbacks"]
    uptime = after["uptime_seconds"] - before["uptime_seconds"]
    roundtrip = _mean(_dur(r) for r in all_rows if r[1] == "workers.submit") * 1e3
    compute = busy / jobs * 1e3 if jobs else 0.0
    return {
        "workers.roundtrip_ms": roundtrip,
        "workers.compute_ms": compute,
        "workers.ipc_ms": roundtrip - compute,
        "workers.ring_fallback_share": (
            fallbacks / (ring_jobs + fallbacks) if ring_jobs + fallbacks else 0.0
        ),
        "workers.utilization": busy / (uptime * after["workers"]) if uptime else 0.0,
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def main(root: Path, workload, seed: int, seconds: float) -> int:
    ref = Reference()
    seconds = max(1.0, PASS_SHARE * seconds)

    untraced = runner.Run(root, workload, seed, seconds, 1, tag="untraced")
    untraced.execute(ref)
    tally = untraced.verify(ref)
    base, _, validity = untraced.end_to_end()

    spans_dir = root / runner.WORKDIR / f"spans-{untraced.token}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()
    files: list[tuple[str, Path]] = []

    def traced_argv(role: str, args: list[str]) -> list[str]:
        path = spans_dir / f"{role}-{next(counter)}.json"
        files.append((role, path))
        return [sys.executable, str(root / "servebench" / "traced_server.py"), str(path), *args]

    def backend_stats(run: runner.Run) -> None:
        run.backend_stats = [
            launch.stats(p.port) for p in run.topology.procs if p.role == "backend"
        ]

    traced = runner.Run(root, workload, seed, seconds, 1, traced_argv, tag="traced")
    traced.execute(ref, on_live=backend_stats)
    traced_tally = traced.verify(ref)
    with_trace, _, _ = traced.end_to_end()
    windows = [(w.phase.snapshots["start"]["t"], w.phase.snapshots["end"]["t"])
               for w in traced.outcome.latency_windows]
    spans = [Spans(role, json.loads(path.read_text()), windows) for role, path in files]
    for _, path in files:
        path.unlink()
    spans_dir.rmdir()

    metrics = layer_metrics(workload, traced, spans)
    metrics["setup.import_ms"], metrics["setup.import_scipy_ms"] = import_cost(untraced.env)
    for role in ("frontend", "backend", "worker"):
        metrics[f"proc.cpu_ms_per_req.{role}"] = untraced.cpu_ms_by_role[role]
        metrics[f"proc.rss_mb.{role}"] = untraced.rss.get(role, 0.0)
    for name in ("loadgen.cpu_share", "loadgen.late_ms_p90", "host.steal_share"):
        metrics[name] = validity[name]
    for name, value in base.items():
        metrics[f"trace_ratio.{name}"] = with_trace[name] / value if value else 0.0

    tally.add(traced_tally)
    problems = untraced.problems + traced.problems
    ok = tally.correct and not problems
    rows = {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}
    runner.report(f"{workload.name} seed={seed} traced", tally, rows, {},
                  {"validity": validity, "untraced": base, "traced": with_trace,
                   "problems": problems,
                   "slow_drains": untraced.slow_drains + traced.slow_drains})
    print(runner.summary(ok, tally, rows))
    measure.log("traced run done")
    return 0 if ok else 1
