"""Workload definitions: topology, load shape and seeded request mixes.

Each workload names the processes it starts, the closed-loop depth, the
open-loop rate (if any), and a request mix.  Request bodies are a pure
function of ``(workload, seed, phase)``, so a seed reproduces them
exactly and another seed changes parameters but not proportions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

#: The two catalog platforms the paper measures; with two workers they
#: land on different shards (crc32 of the key, mod 2).
PLATFORMS = ("gtx580-double", "i7-950-double")
CATALOG = (
    "gtx580-double",
    "gtx580-single",
    "i7-950-double",
    "i7-950-single",
    "keckler-fermi",
)

#: Scalar metric names the ``eval`` op accepts, per model.
EVAL_METRICS: dict[str, tuple[str, ...]] = {
    "time": (
        "communication_penalty",
        "normalized_performance",
        "attainable_gflops",
        "time_per_flop",
    ),
    "energy": (
        "energy_penalty",
        "normalized_efficiency",
        "attainable_gflops_per_joule",
        "energy_per_flop",
    ),
    "power": ("power", "normalized_power"),
    "capped": (
        "slowdown",
        "normalized_performance",
        "attainable_gflops",
        "time_per_flop",
        "power",
        "energy_per_flop",
        "normalized_efficiency",
    ),
}
CURVE_KINDS = ("roofline", "archline", "powerline", "capped-powerline")

#: Scalar-eval batch keys in a fixed rank order for the Zipf draw.
BATCH_KEYS = tuple(
    (machine, model, metric)
    for model, metrics in EVAL_METRICS.items()
    for metric in metrics
    for machine in PLATFORMS
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``mix`` maps request kinds to shares (summing to 1).  An open-loop
    window aborts, failing the run, once more than ``backlog_limit``
    requests are outstanding.
    """

    name: str
    topology: str  # "serve" or "route"
    serve_args: tuple[str, ...]
    mix: tuple[tuple[str, float], ...]
    outstanding: int
    max_rps: float  # sizes a closed window's pre-encoded input
    window: float = 1.0  # target length of one measured window, seconds
    fixed_rate: float | None = None  # open-loop rate for p50/p90
    backlog_limit: int = 512  # open-loop windows only
    curve_ppo: int = 0
    grid_points: int = 0
    why: str = ""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scalar-open",
            topology="serve",
            serve_args=(),
            mix=(
                ("eval", 0.94),
                ("tradeoff", 0.02),
                ("greenup", 0.02),
                ("balance", 0.01),
                ("describe", 0.01),
            ),
            outstanding=8,
            max_rps=15000.0,
            window=0.6,
            fixed_rate=2000.0,
            why="per-request overhead path: frontend, wire, admission, "
            "micro-batcher; model compute is negligible",
        ),
        Workload(
            name="heavy-closed",
            topology="serve",
            serve_args=("--workers", "2", "--cache-size", "0"),
            mix=(("curve", 0.7), ("grid", 0.3)),
            outstanding=2,
            max_rps=1500.0,
            window=1.2,
            curve_ppo=2000,
            grid_points=8192,
            why="compute and worker-IPC path: 20k-point curves and 8k-point "
            "grids through two worker processes",
        ),
        Workload(
            name="mixed-routed",
            topology="route",
            serve_args=(),
            mix=(
                ("eval", 0.66),
                ("hot", 0.15),
                ("tradeoff", 0.04),
                ("greenup", 0.04),
                ("balance", 0.03),
                ("describe", 0.03),
                ("curve", 0.05),
            ),
            outstanding=2,
            max_rps=3000.0,
            window=0.8,
            curve_ppo=200,
            why="router hop and ring placement: cached beside computed, "
            "2k-point curves sharing a loop with tiny evals",
        ),
    )
}

#: Zipf exponent of the scalar-eval batch-key draw.
ZIPF_S = 1.1
HOT_SET_SIZE = 64


class SampledGrid:
    """A sent grid reduced to its length and the points kept for checking."""

    __slots__ = ("n", "points")

    def __init__(self, n: int, points: dict[int, float]):
        self.n = n
        self.points = points

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> float:
        return self.points[i]


class RequestSource:
    """Seeded request bodies for one phase of one workload.

    Bodies have no ``id``; the generator assigns ids when it encodes
    them.  Separate phases use separate streams, so how many requests
    one phase draws never shifts another phase's bodies.
    """

    def __init__(self, workload: Workload, seed: int, phase: str):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}/{phase}")
        kinds, shares = zip(*workload.mix)
        self._kinds = kinds
        self._cum = list(_cumulative(shares))
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(BATCH_KEYS))]
        self._key_cum = list(_cumulative(weights))
        # The hot set depends on the seed only, so every phase of a run
        # repeats the same requests and the cache can serve them.
        hot_rng = random.Random(f"{workload.name}/{seed}/hot")
        self._hot = [
            self._scalar(hot_rng, machines=CATALOG) if i % 4 else
            self._curve(hot_rng, ppo=workload.curve_ppo or 64)
            for i in range(HOT_SET_SIZE)
        ]

    def take(self, n: int) -> list[dict[str, Any]]:
        return [self.next() for _ in range(n)]

    def next(self) -> dict[str, Any]:
        kind = self._kinds[_pick(self._cum, self.rng.random())]
        rng = self.rng
        if kind == "eval":
            if self.workload.topology == "route":
                return self._scalar(rng, machines=CATALOG)
            machine, model, metric = BATCH_KEYS[
                _pick(self._key_cum, rng.random())
            ]
            return {
                "op": "eval",
                "machine": machine,
                "model": model,
                "metric": metric,
                "intensity": _intensity(rng),
            }
        if kind == "hot":
            return dict(self._hot[rng.randrange(len(self._hot))])
        if kind == "curve":
            return self._curve(rng, ppo=self.workload.curve_ppo)
        if kind == "grid":
            machine, model, metric = BATCH_KEYS[rng.randrange(len(BATCH_KEYS))]
            n = self.workload.grid_points
            start = rng.uniform(-3.0, -1.0)
            step = rng.uniform(8.0, 10.0) / n
            return {
                "op": "eval",
                "machine": machine,
                "model": model,
                "metric": metric,
                "intensities": [2.0 ** (start + i * step) for i in range(n)],
            }
        machine = rng.choice(
            CATALOG if self.workload.topology == "route" else PLATFORMS
        )
        if kind == "tradeoff":
            return {
                "op": "tradeoff",
                "machine": machine,
                "intensity": _intensity(rng),
                "f": round(1.0 + rng.random(), 6),
                "m": round(1.0 + 3.0 * rng.random(), 6),
            }
        if kind == "greenup":
            return {
                "op": "greenup",
                "machine": machine,
                "intensity": _intensity(rng),
                "m": round(1.0 + 3.0 * rng.random(), 6),
            }
        return {"op": kind, "machine": machine}

    @staticmethod
    def _scalar(rng: random.Random, machines) -> dict[str, Any]:
        model = rng.choice(tuple(EVAL_METRICS))
        return {
            "op": "eval",
            "machine": rng.choice(machines),
            "model": model,
            "metric": rng.choice(EVAL_METRICS[model]),
            "intensity": _intensity(rng),
        }

    def _curve(self, rng: random.Random, ppo: int) -> dict[str, Any]:
        machines = CATALOG if self.workload.topology == "route" else PLATFORMS
        lo = 2.0 ** rng.uniform(-4.0, -2.0)
        return {
            "op": "curve",
            "machine": rng.choice(machines),
            "kind": rng.choice(CURVE_KINDS),
            "lo": lo,
            "hi": lo * 1024.0,
            "points_per_octave": ppo,
            "normalized": rng.random() < 0.5,
        }


def poisson_arrivals(rate: float, seconds: float, seed: int, tag: str) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)`` at ``rate``/s."""
    rng = random.Random(f"arrivals/{seed}/{tag}")
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def _intensity(rng: random.Random) -> float:
    """Log-uniform intensity over [2^-3, 2^8] flop/byte."""
    return 2.0 ** rng.uniform(-3.0, 8.0)


def _cumulative(weights):
    total = float(sum(weights))
    acc = 0.0
    for w in weights:
        acc += w / total
        yield acc


def _pick(cumulative: list[float], u: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def expected_points(request: dict[str, Any]) -> int:
    """Length of the float series a curve or grid reply must carry."""
    if request["op"] == "curve":
        lo_l = math.log2(request["lo"])
        hi_l = math.log2(request["hi"])
        return max(2, int(round((hi_l - lo_l) * request["points_per_octave"])) + 1)
    return len(request["intensities"])
