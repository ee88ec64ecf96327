"""Measured windows against a live topology.

Each launch of a run serves a few rounds of short windows, and the
reported figures are medians over all windows of the run: short-term
host noise (a fixed pure-Python loop here repeats with an IQR of
6-10 % of its median) then averages out instead of landing in one
long window.  A round is

* a ``closed`` window: ``outstanding`` requests kept in flight; gives
  ``throughput_rps`` and, on closed-loop workloads, the latency and
  CPU figures;
* a ``fixed`` window (open-loop workloads): seeded Poisson arrivals at
  the workload's fixed rate; gives their latency and CPU figures.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import procs
from generator import Connection, Phase, closed_loop, open_loop
from workloads import RequestSource, Workload, poisson_arrivals

#: Seconds of closed-loop ramp before a window opens.
WARMUP = 0.15
#: Host steal share above which a window or launch is taken to be
#: measuring another tenant rather than the program.  Quiet periods here
#: read 0-1.5 %; contended ones 10-30 %.
STEAL_LIMIT = 0.03


def log(message: str) -> None:
    """Progress on stderr; standard output carries only the report."""
    print(f"[servebench {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Plan:
    """How the run's ``seconds`` are split into windows."""

    rounds: int
    window: float

    @classmethod
    def for_workload(cls, workload: Workload, seconds: float, launches: int) -> "Plan":
        per_launch = seconds / launches
        kinds = 2 if workload.fixed_rate is not None else 1
        rounds = max(1, round(per_launch / (kinds * workload.window)))
        window = per_launch / (kinds * rounds)
        return cls(rounds, window)


@dataclass
class Window:
    """One measured window: its phase and resource deltas."""

    phase: Phase
    wall: float
    replies: int
    cpu: dict[int, float]
    roles: dict[int, str]
    loadgen_cpu: float
    host_total: int
    host_steal: int

    @property
    def latencies(self) -> list[float]:
        return latencies(self.phase)

    @property
    def steal_share(self) -> float:
        return self.host_steal / max(1, self.host_total)


def calmest(items: list, steal_share) -> list:
    """The items measured while the host was quiet (steal share at most
    ``STEAL_LIMIT``), if at least half were; otherwise the half with the
    least steal (the run is then flagged by its ``host.steal_share``)."""
    calm = [x for x in items if steal_share(x) <= STEAL_LIMIT]
    if 2 * len(calm) >= len(items):
        return calm
    return sorted(items, key=steal_share)[: (len(items) + 1) // 2]


def quiet(windows: list[Window]) -> list[Window]:
    return calmest(windows, lambda w: w.steal_share)


@dataclass
class Outcome:
    phases: list[Phase] = field(default_factory=list)
    closed: list[Window] = field(default_factory=list)
    fixed: list[Window] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    stats_before: dict[str, Any] = field(default_factory=dict)
    next_id: int = 1

    @property
    def latency_windows(self) -> list[Window]:
        """Windows whose latency and CPU figures the run reports."""
        return self.fixed or self.closed

    def phase(self, name: str, requests, due=None) -> Phase:
        p = Phase(name, requests, self.next_id, due=due)
        self.next_id += len(requests)
        self.phases.append(p)
        return p


class Snapshotter:
    """CPU of the server-side processes, the generator and the host."""

    def __init__(self, topology: procs.Topology):
        self.pids = procs.roles(topology)

    def __call__(self) -> dict[str, Any]:
        return {
            "t": time.perf_counter(),
            "cpu": {pid: procs.cpu_seconds(pid) for pid in self.pids},
            "self": time.process_time(),
            "host": procs.host_cpu(),
        }


def window_of(phase: Phase, replies: int, roles: dict[int, str]) -> Window:
    start, end = phase.snapshots["start"], phase.snapshots["end"]
    return Window(
        phase=phase,
        wall=end["t"] - start["t"],
        replies=replies,
        cpu={pid: end["cpu"][pid] - start["cpu"][pid] for pid in start["cpu"]},
        roles=roles,
        loadgen_cpu=end["self"] - start["self"],
        host_total=end["host"][0] - start["host"][0],
        host_steal=end["host"][1] - start["host"][1],
    )


def latencies(phase: Phase) -> list[float]:
    """Latency in ms of each reply the phase counts.

    Closed loop: replies completed inside the window, timed from their
    send.  Open loop: every request, timed from its due time.
    """
    if phase.due is not None:
        return [
            (phase.recv[i] - phase.due[i]) * 1000.0
            for i in range(phase.next_index)
            if phase.recv[i]
        ]
    lo, hi = phase.window
    return [
        (phase.recv[i] - phase.sent[i]) * 1000.0
        for i in range(phase.next_index)
        if lo <= phase.recv[i] <= hi
    ]


def completed_in_window(phase: Phase) -> int:
    lo, hi = phase.window
    return sum(
        1 for i in range(phase.next_index) if phase.ok[i] and lo <= phase.recv[i] <= hi
    )


async def run_launch(
    workload: Workload,
    seed: int,
    plan: Plan,
    topology: procs.Topology,
    launch_no: int,
    out: Outcome,
    last: bool,
    stats_call,
) -> None:
    """The windows of one launch, then (on the last) a stats snapshot."""
    host, port = topology.entry
    nconn = min(2, os.cpu_count() or 1)
    conns = [await Connection.open(host, port) for _ in range(nconn)]
    snap = Snapshotter(topology)
    try:
        if last:
            out.stats_before = await asyncio.to_thread(stats_call, port)
        for r in range(plan.rounds):
            tag = f"{launch_no}.{r}"
            budget = int(workload.max_rps * (WARMUP + plan.window)) + workload.outstanding
            closed = out.phase(f"closed{tag}",
                               RequestSource(workload, seed, f"closed{tag}").take(budget))
            await closed_loop(conns, closed, workload.outstanding, WARMUP,
                              plan.window, snap)
            if closed.exhausted:
                log(f"closed window {tag} used up its input early")
            out.closed.append(window_of(closed, completed_in_window(closed), snap.pids))
            if workload.fixed_rate is not None:
                due = poisson_arrivals(workload.fixed_rate, plan.window, seed, f"fixed{tag}")
                fixed = out.phase(f"fixed{tag}",
                                  RequestSource(workload, seed, f"fixed{tag}").take(len(due)),
                                  due)
                await open_loop(conns, fixed, workload.backlog_limit, snap)
                out.fixed.append(window_of(fixed, sum(fixed.ok[: fixed.next_index]), snap.pids))
        log(f"launch {launch_no}: {plan.rounds} round(s) of {plan.window:.2f} s windows")
        if last:
            out.stats = await asyncio.to_thread(stats_call, port)
    finally:
        for conn in conns:
            conn.close()
        await asyncio.gather(*(c.closed for c in conns))

