"""Serving benchmark: one workload, one seed, one summary line.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload scalar-open --seed 1 --seconds 10 --trace 0

Starts the real ``repro serve`` / ``repro route`` processes, drives
them from this process, verifies every reply, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as the last line of standard output.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import launch
import measure
import procs
from verify import Reference, Tally, verify_phase
from workloads import WORKLOADS

#: Launches per run whose setup time is measured; the median is reported
#: and the last launch serves the measured phases.
SETUP_LAUNCHES = 4
WORKDIR = ".servebench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_req": "ms",
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}


def check_sources(root: Path) -> None:
    if not (root / "src" / "repro" / "__main__.py").is_file():
        sys.exit(f"servebench: no program sources under {root / 'src'}; "
                 "run from the root of a checkout")


def warm_bytecode(env: dict[str, str], workdir: Path) -> None:
    """Fill the bytecode cache once per checkout, as installing would."""
    marker = workdir / "pycache" / ".warm"
    if marker.exists():
        return
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.service, repro.service.router, repro.service.workers"],
        env=env, check=True,
    )
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("")


class Run:
    """Launches, measurement and teardown of one workload run."""

    def __init__(self, root: Path, workload, seed: int, seconds: float,
                 launches: int, argv_for=None, tag: str = "plain"):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.launches = launches
        self.argv_for = argv_for
        self.workdir = root / WORKDIR
        self.token = f"{os.getpid()}-{seed}-{tag}-{time.time_ns()}"
        self.logdir = self.workdir / f"run-{self.token}"
        self.env = procs.server_env(root, self.token, self.workdir)
        self.setups: list[float] = []
        self.setup_steal: list[float] = []
        self.rss: dict[str, float] = {}
        self.problems: list[str] = []
        self.slow_drains: list[str] = []
        self.rss_procs = 0
        self.ports: list[int] = []
        self.topology: procs.Topology | None = None
        self.outcome: measure.Outcome | None = None
        self.backend_stats: list[dict] = []

    def execute(self, ref: Reference, on_live=None) -> None:
        shm_before = procs.shm_names()
        warm_bytecode(self.env, self.workdir)
        plan = measure.Plan.for_workload(self.workload, self.seconds, self.launches)
        self.outcome = measure.Outcome()
        topo = None
        try:
            for k in range(self.launches):
                host_before = procs.host_cpu()
                topo, setup = launch.bring_up(
                    self.workload, self.env, self.logdir, ref, self.argv_for
                )
                host_after = procs.host_cpu()
                self.ports += topo.ports
                self.setups.append(setup)
                self.setup_steal.append(
                    (host_after[1] - host_before[1]) / max(1, host_after[0] - host_before[0])
                )
                last = k == self.launches - 1
                asyncio.run(measure.run_launch(
                    self.workload, self.seed, plan, topo, k, self.outcome, last,
                    launch.stats,
                ))
                if last:
                    self.topology = topo
                    if on_live is not None:
                        on_live(self)
                    for pid, role in procs.roles(topo).items():
                        self.rss[role] = self.rss.get(role, 0.0) + procs.vm_hwm_mb(pid)
                        self.rss_procs += 1
                failures, slow = procs.stop(topo)
                self.problems += failures
                self.slow_drains += slow
                topo = None
        except BaseException:
            if topo is not None:
                procs.kill(topo)
            raise
        finally:
            self.problems += procs.hygiene(self.token, self.ports, shm_before)
        if not self.problems:
            shutil.rmtree(self.logdir, ignore_errors=True)

    def verify(self, ref: Reference) -> Tally:
        tally = Tally()
        for phase in self.outcome.phases:
            verify_phase(phase, ref, tally)
        return tally

    def end_to_end(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """(metrics, sample counts, validity figures).

        Medians over the windows (and launches) measured while the host
        was quietest; see ``measure.calmest``.
        """
        out = self.outcome
        windows = measure.quiet(out.latency_windows)
        closed = measure.quiet(out.closed)
        setups = [s for s, _ in measure.calmest(list(zip(self.setups, self.setup_steal)),
                                                lambda launch: launch[1])]
        lats = [w.latencies for w in windows]
        med = statistics.median
        metrics = {
            "setup_s": med(setups),
            "peak_rss_mb": sum(self.rss.values()),
            "cpu_ms_per_req": med(1000.0 * sum(w.cpu.values()) / w.replies for w in windows),
            "throughput_rps": med(w.replies / w.wall for w in closed),
            "p50_ms": med(measure.percentile(l, 50) for l in lats),
            "p90_ms": med(measure.percentile(l, 90) for l in lats),
        }
        samples = {
            "setup_s": len(setups),
            "peak_rss_mb": self.rss_procs,
            "cpu_ms_per_req": sum(w.replies for w in windows),
            "throughput_rps": sum(w.replies for w in closed),
            "p50_ms": sum(map(len, lats)),
            "p90_ms": sum(map(len, lats)),
        }
        late = [
            (p.sent[i] - p.due[i]) * 1000.0
            for p in out.phases if p.due is not None
            for i in range(p.next_index)
        ]
        every = out.latency_windows
        host_total = sum(w.host_total for w in every)
        loadgen = med(w.loadgen_cpu / w.wall for w in windows)
        busiest = med(max(w.cpu.values()) / w.wall for w in windows)
        validity = {
            "loadgen.cpu_share": loadgen,
            "loadgen.cpu_us_per_req": med(1e6 * w.loadgen_cpu / w.replies for w in windows),
            "loadgen.late_ms_p90": measure.percentile(late, 90) if late else 0.0,
            "host.steal_share": sum(w.host_steal for w in every) / host_total
            if host_total else 0.0,
            "server.busiest_cpu_share": busiest,
            "program_bound": loadgen < busiest,
            "quiet_windows": f"{len(windows)}/{len(every)}",
            "quiet_launches": f"{len(setups)}/{len(self.setups)}",
        }
        self.cpu_ms_by_role = {
            role: med(
                1000.0 * sum(c for pid, c in w.cpu.items() if w.roles[pid] == role) / w.replies
                for w in windows
            )
            for role in ("frontend", "backend", "worker")
        }
        return metrics, samples, validity


def summary(correct: bool, tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.sent,
        "failed": tally.failed + tally.refused + tally.missing + tally.mismatched + tally.stray,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(title: str, tally: Tally, rows: dict[str, tuple[float, str]],
           samples: dict[str, int], extra: dict) -> None:
    print(f"== {title}")
    print(f"requests: sent {tally.sent}, ok {tally.ok}, failed {tally.failed}, "
          f"refused {tally.refused}, missing {tally.missing}, "
          f"mismatched {tally.mismatched}, stray {tally.stray}, aborted windows {tally.aborted}")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    for name, (value, unit) in rows.items():
        n = samples.get(name)
        print(f"  {name:34s} {value:14.6g} {unit:6s}" + (f" n={n}" if n is not None else ""))
    print(json.dumps(extra, sort_keys=True, default=str))


def plain(root: Path, workload, seed: int, seconds: float) -> int:
    ref = Reference()
    run = Run(root, workload, seed, seconds, SETUP_LAUNCHES)
    run.execute(ref)
    tally = run.verify(ref)
    metrics, samples, validity = run.end_to_end()
    rows = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    ok = tally.correct and not run.problems
    report(f"{workload.name} seed={seed} seconds={seconds}", tally, rows, samples,
           {"validity": validity, "problems": run.problems,
            "slow_drains": run.slow_drains, "setups": run.setups})
    print(summary(ok, tally, rows))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    check_sources(root)
    # The reference evaluation reads the catalog and calls repro.core.
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    if args.trace:
        import trace_run

        return trace_run.main(root, workload, args.seed, args.seconds)
    return plain(root, workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
