"""Reply verification against the benchmark's own evaluation.

Scalar models and curve points are recomputed from the catalog
parameters with the paper's eqs. 3-7 in plain Python floats; capped
power and the structured analyses call ``repro.core`` directly.
Nothing here goes through the serving stack (engine, batcher, workers).

Floats from eqs. 3-7 must agree to a relative 1e-12 (the reference may
associate operations differently from the vectorised kernels); values
taken from ``repro.core`` and grid intensities must match exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import frames
from workloads import expected_points

REL_TOL = 1e-12
#: Work scale of the engine's tradeoff/greenup profiles; speedup and
#: greenup are ratios, so the value cancels up to rounding.
REFERENCE_WORK = 1e12
GIGA = 1e9
OVERLOADED = "overloaded"


class Reference:
    """Plain-float model evaluation from catalog parameters."""

    def __init__(self) -> None:
        from repro.machines.catalog import get_machine

        self._get = get_machine
        self._machines: dict[str, Any] = {}
        self._params: dict[str, dict[str, float]] = {}

    def machine(self, key: str):
        if key not in self._machines:
            self._machines[key] = self._get(key)
        return self._machines[key]

    def params(self, key: str) -> dict[str, float]:
        p = self._params.get(key)
        if p is None:
            m = self.machine(key)
            tau_flop, tau_mem = m.tau_flop, m.tau_mem
            eps_flop, eps_mem, pi0 = m.eps_flop, m.eps_mem, m.pi0
            eps_hat = eps_flop + pi0 * tau_flop
            p = {
                "tau_flop": tau_flop,
                "b_tau": tau_mem / tau_flop,
                "b_eps": eps_mem / eps_flop,
                "eps_hat": eps_hat,
                "eta": eps_flop / eps_hat,
                "pi_flop": eps_flop / tau_flop,
                "pi0": pi0,
                "peak_gflops": (1.0 / tau_flop) / GIGA,
                "peak_gflops_per_joule": (1.0 / eps_hat) / GIGA,
            }
            self._params[key] = p
        return p

    def scalar(self, machine: str, model: str, metric: str, x: float) -> float:
        """One ``eval`` value: eqs. 3-7, or ``repro.core`` for capped."""
        if model == "capped":
            from repro.core.powercap import CappedModel

            return float(getattr(CappedModel(self.machine(machine)), metric)(x))
        p = self.params(machine)
        b_tau = p["b_tau"]
        if model == "time":  # eq. 3
            penalty = max(1.0, b_tau / x)
            if metric == "communication_penalty":
                return penalty
            if metric == "time_per_flop":
                return p["tau_flop"] * penalty
            perf = min(1.0, x / b_tau)
            if metric == "normalized_performance":
                return perf
            if metric == "attainable_gflops":
                return perf * p["peak_gflops"]
        eta = p["eta"]
        b_eps_hat = eta * p["b_eps"] + (1.0 - eta) * max(0.0, b_tau - x)
        if model == "energy":  # eqs. 4-5
            penalty = b_eps_hat / x
            if metric == "energy_penalty":
                return penalty
            if metric == "energy_per_flop":
                return p["eps_hat"] * (1.0 + penalty)
            efficiency = 1.0 / (1.0 + penalty)
            if metric == "normalized_efficiency":
                return efficiency
            if metric == "attainable_gflops_per_joule":
                return efficiency * p["peak_gflops_per_joule"]
        if model == "power":  # eq. 7
            power = (p["pi_flop"] / eta) * (
                min(x, b_tau) / b_tau + b_eps_hat / max(x, b_tau)
            )
            if metric == "power":
                return power
            if metric == "normalized_power":
                return power / (p["pi_flop"] + p["pi0"])
        raise KeyError(f"no reference for {model}.{metric}")

    def curve_point(self, request: dict[str, Any], x: float) -> float:
        kind = request["kind"]
        normalized = request["normalized"]
        machine = request["machine"]
        if kind == "roofline":
            metric = "normalized_performance" if normalized else "attainable_gflops"
            return self.scalar(machine, "time", metric, x)
        if kind == "archline":
            metric = (
                "normalized_efficiency"
                if normalized
                else "attainable_gflops_per_joule"
            )
            return self.scalar(machine, "energy", metric, x)
        if kind == "powerline":
            metric = "normalized_power" if normalized else "power"
            return self.scalar(machine, "power", metric, x)
        return self.scalar(machine, "capped", "power", x)

    def analysis(self, request: dict[str, Any]) -> dict[str, Any]:
        """Expected ``result`` of balance/describe/tradeoff/greenup."""
        from repro.core.algorithm import AlgorithmProfile
        from repro.core.balance import analyze
        from repro.core.tradeoff import TradeoffAnalyzer, greenup_work_ceiling

        op = request["op"]
        m = self.machine(request["machine"])
        if op == "balance":
            r = analyze(m)
            return {
                "machine": r.machine_name,
                "b_tau": r.b_tau,
                "b_eps": r.b_eps,
                "b_eps_effective": r.b_eps_effective,
                "raw_gap": r.raw_gap,
                "effective_gap": r.effective_gap,
                "race_to_halt_effective": r.race_to_halt_effective,
                "energy_implies_time": r.energy_implies_time,
                "gap_interval": list(r.gap_interval) if r.gap_interval else None,
                "text": r.describe(),
            }
        if op == "describe":
            return {
                "name": m.name,
                "tau_flop": m.tau_flop,
                "tau_mem": m.tau_mem,
                "eps_flop": m.eps_flop,
                "eps_mem": m.eps_mem,
                "pi0": m.pi0,
                "power_cap": m.power_cap,
                "b_tau": m.b_tau,
                "b_eps": m.b_eps,
                "b_eps_effective": m.effective_balance_crossing,
                "peak_gflops": m.peak_gflops,
                "peak_gflops_per_joule": m.peak_gflops_per_joule,
                "text": m.describe(),
            }
        x = float(request["intensity"])
        analyzer = TradeoffAnalyzer(
            m, AlgorithmProfile.from_intensity(x, work=REFERENCE_WORK)
        )
        if op == "tradeoff":
            point = analyzer.evaluate(float(request["f"]), float(request["m"]))
            return {
                "f": point.f,
                "m": point.m,
                "speedup": point.speedup,
                "greenup": point.greenup,
                "outcome": str(point.outcome),
            }
        if op == "greenup":
            saving = float(request["m"])
            return {
                "intensity": x,
                "m": saving,
                "threshold_closed": analyzer.greenup_threshold(saving),
                "threshold_exact": analyzer.exact_greenup_threshold(saving),
                "work_ceiling": greenup_work_ceiling(b_eps=m.b_eps, intensity=x),
            }
        raise KeyError(f"no reference for op {op!r}")


def grid_point(request: dict[str, Any], i: int) -> float:
    """The i-th intensity of a curve's log-2 grid (``units.log2_grid``)."""
    lo_l = math.log2(request["lo"])
    hi_l = math.log2(request["hi"])
    n = expected_points(request)
    return 2.0 ** (lo_l + i * ((hi_l - lo_l) / (n - 1)))


def _close(got: Any, want: float) -> bool:
    return isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL)


def unpack(record: Any) -> tuple[dict[str, Any], dict[str, tuple[int, dict[int, float]]]]:
    """(envelope, series) from a stored reply, whole or sampled.

    Whole frames expose every point of every series; sampled ones only
    the points chosen before the run.
    """
    if isinstance(record, (bytes, bytearray)):
        blob, arrays = frames.sections(bytes(record))
        series = {k: (len(v), dict(enumerate(v))) for k, v in arrays.items()}
        return json.loads(blob), series
    blob, series = record
    return json.loads(blob), series


def check(request: dict[str, Any], record: Any, ref: Reference) -> str | None:
    """``None`` if the reply is right, else what is wrong with it."""
    envelope, series = unpack(record)
    if envelope.get("id") != request["id"]:
        return f"reply id {envelope.get('id')!r} for request {request['id']}"
    if not envelope.get("ok"):
        return f"error reply {envelope.get('error')!r}"
    result = envelope.get("result")
    if not isinstance(result, dict):
        return "reply has no result object"
    op = request["op"]
    if op == "eval" and "intensities" in request:
        grid = request["intensities"]
        count, values = series.get("values", (len(result.get("values", [])), {}))
        if "values" not in series and isinstance(result.get("values"), list):
            values = dict(enumerate(result["values"]))
        if count != len(grid):
            return f"grid of {len(grid)} points answered with {count}"
        for i, got in values.items():
            try:
                x = grid[i]
            except KeyError:  # a large grid keeps only its sampled points
                continue
            want = ref.scalar(request["machine"], request["model"],
                              request["metric"], x)
            if not _close(got, want):
                return f"grid point {i}: {got!r} != {want!r}"
        return None
    if op == "eval":
        want = ref.scalar(request["machine"], request["model"],
                          request["metric"], request["intensity"])
        got = result.get("value")
        return None if _close(got, want) else f"value {got!r} != {want!r}"
    if op == "curve":
        n = expected_points(request)
        for name in ("intensities", "values"):
            if name not in series and isinstance(result.get(name), list):
                series[name] = (len(result[name]), dict(enumerate(result[name])))
            count, _ = series.get(name, (0, {}))
            if count != n:
                return f"curve {name}: {count} points, expected {n}"
        xs = series["intensities"][1]
        for i, got in series["values"][1].items():
            x = grid_point(request, i)
            if xs.get(i) != x:
                return f"curve intensity {i}: {xs.get(i)!r} != {x!r}"
            want = ref.curve_point(request, x)
            if not _close(got, want):
                return f"curve value {i}: {got!r} != {want!r}"
        if not isinstance(result.get("label"), str):
            return "curve without a label"
        return None
    want = ref.analysis(request)
    for key, value in want.items():
        got = result.get(key)
        if isinstance(value, float):
            if not (got == value or (math.isnan(value) and isinstance(got, float) and math.isnan(got))):
                return f"{op}.{key}: {got!r} != {value!r}"
        elif got != value:
            return f"{op}.{key}: {got!r} != {value!r}"
    return None


@dataclass
class Tally:
    """Outcome counts of every request the run sent."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    refused: int = 0
    missing: int = 0
    mismatched: int = 0
    stray: int = 0
    aborted: int = 0  # open-loop windows cut short by their backlog limit
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not (self.failed or self.refused or self.missing or self.mismatched
                    or self.stray or self.aborted)

    def add(self, other: "Tally") -> None:
        for name in ("sent", "ok", "failed", "refused", "missing", "mismatched", "stray",
                     "aborted"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.problems += other.problems

    def note(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)


def verify_phase(phase, ref: Reference, tally: Tally) -> None:
    """Check every reply of a phase; unsent requests are not counted."""
    if phase.aborted:
        tally.aborted += 1
        tally.note(f"{phase.name}: backlog passed its limit; the window was aborted")
    tally.stray += len(phase.strays)
    for seq in phase.strays[:3]:
        tally.note(f"{phase.name}: stray or duplicate reply for id {seq}")
    for i in range(phase.next_index):
        request = phase.requests[i]
        tally.sent += 1
        record = phase.replies[i]
        if record is None:
            tally.missing += 1
            tally.note(f"{phase.name}: no reply to id {request['id']}")
            continue
        if not phase.ok[i]:
            envelope, _ = unpack(record)
            code = (envelope.get("error") or {}).get("code")
            if code == OVERLOADED:
                tally.refused += 1
            else:
                tally.failed += 1
                tally.note(f"{phase.name}: id {request['id']} failed: {envelope.get('error')!r}")
            continue
        problem = check(request, record, ref)
        if problem is None:
            tally.ok += 1
        else:
            tally.mismatched += 1
            tally.note(f"{phase.name}: id {request['id']} {request['op']}: {problem}")
