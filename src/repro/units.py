"""Unit helpers for the energy-roofline model.

The paper's quantities span ~15 orders of magnitude: picojoules per flop,
gigaflops per second, watts, nanoseconds.  Internally the library works in
**strict SI base units** — seconds, joules, watts, flops, bytes — and this
module provides the conversion constants and formatting helpers used at API
boundaries.  Keeping all internal math in SI avoids the classic unit-mixing
bugs (pJ vs J, GB/s vs B/s) that plague energy-model implementations.

Conventions
-----------
* ``tau``-style parameters (time per op) are seconds per flop / per byte.
* ``epsilon``-style parameters (energy per op) are joules per flop / per byte.
* Rates (``GFLOP/s``, ``GB/s``) convert via :data:`GIGA`.
* Intensity is flops per byte throughout, matching the paper's figures.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Final

import numpy as np

# ---------------------------------------------------------------------------
# SI prefixes
# ---------------------------------------------------------------------------

FEMTO: Final[float] = 1e-15
PICO: Final[float] = 1e-12
NANO: Final[float] = 1e-9
MICRO: Final[float] = 1e-6
MILLI: Final[float] = 1e-3
KILO: Final[float] = 1e3
MEGA: Final[float] = 1e6
GIGA: Final[float] = 1e9
TERA: Final[float] = 1e12
PETA: Final[float] = 1e15

#: Bytes per word used when a profile is expressed in words (double precision).
BYTES_PER_DOUBLE: Final[int] = 8
#: Bytes per single-precision word.
BYTES_PER_SINGLE: Final[int] = 4


def gflops_to_flops_per_second(gflops: float) -> float:
    """Convert a GFLOP/s rate to flop/s."""
    return gflops * GIGA


def flops_per_second_to_gflops(rate: float) -> float:
    """Convert a flop/s rate to GFLOP/s."""
    return rate / GIGA


def gbytes_to_bytes_per_second(gbs: float) -> float:
    """Convert a GB/s bandwidth to B/s."""
    return gbs * GIGA


def bytes_per_second_to_gbytes(rate: float) -> float:
    """Convert a B/s bandwidth to GB/s."""
    return rate / GIGA


def time_per_flop_from_gflops(gflops: float) -> float:
    """Peak throughput (GFLOP/s) -> seconds per flop (``tau_flop``).

    This is the paper's Table II derivation: a 515 GFLOP/s device has
    ``tau_flop = (515e9)**-1 ~= 1.9 ps`` per flop.
    """
    if gflops <= 0:
        raise ValueError(f"throughput must be positive, got {gflops}")
    return 1.0 / gflops_to_flops_per_second(gflops)


def time_per_byte_from_gbytes(gbs: float) -> float:
    """Peak bandwidth (GB/s) -> seconds per byte (``tau_mem``)."""
    if gbs <= 0:
        raise ValueError(f"bandwidth must be positive, got {gbs}")
    return 1.0 / gbytes_to_bytes_per_second(gbs)


def picojoules(pj: float) -> float:
    """Convert picojoules to joules."""
    return pj * PICO


def to_picojoules(joules: float) -> float:
    """Convert joules to picojoules."""
    return joules / PICO


def to_picoseconds(seconds: float) -> float:
    """Convert seconds to picoseconds (Table II's ``tau`` display unit)."""
    return seconds / PICO


def milliseconds(ms: float) -> float:
    """Convert milliseconds to seconds (CLI/protocol boundary helper)."""
    return ms * MILLI


def to_milliseconds(seconds: float) -> float:
    """Convert seconds to milliseconds (latency/phase display unit)."""
    return seconds / MILLI


#: Divisor between a percentage and its dimensionless ratio.
PERCENT: Final[float] = 100.0


def percent(pct: float) -> float:
    """Convert a percentage to a dimensionless ratio (CLI boundary helper)."""
    return pct / PERCENT


def to_percent(ratio: float) -> float:
    """Convert a dimensionless ratio to a percentage (display unit)."""
    return ratio * PERCENT


def joules_per_flop_to_gflops_per_joule(epsilon: float) -> float:
    """Energy per flop (J) -> energy efficiency (GFLOP/J).

    The reciprocal relationship used on the paper's arch-line y-axes:
    e.g. 829 pJ/flop -> ~1.2 GFLOP/J (GTX 580 double precision).
    """
    if epsilon <= 0:
        raise ValueError(f"energy per flop must be positive, got {epsilon}")
    return 1.0 / (epsilon * GIGA)


def format_si(value: float, unit: str, *, digits: int = 3) -> str:
    """Render ``value`` with an auto-selected SI prefix.

    >>> format_si(1.9e-12, 's')
    '1.9 ps'
    >>> format_si(5.15e11, 'FLOP/s')
    '515 GFLOP/s'
    """
    if value == 0:
        return f"0 {unit}"
    if not math.isfinite(value):
        return f"{value} {unit}"
    prefixes = [
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "u"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ]
    mag = abs(value)
    for scale, prefix in prefixes:
        if mag >= scale:
            scaled = value / scale
            return f"{scaled:.{digits}g} {prefix}{unit}"
    scale, prefix = prefixes[-1]
    return f"{value / scale:.{digits}g} {prefix}{unit}"


def log2_grid(lo: float, hi: float, points_per_octave: int = 8) -> np.ndarray:
    """Logarithmically spaced grid between ``lo`` and ``hi`` (inclusive).

    Used to sample intensity axes, which the paper plots in log base 2.
    Point ``i`` is exactly ``2.0 ** (log2(lo) + i * step)``: the
    exponents are one vectorised multiply-add (bit-identical to the
    scalar form), while the powers stay libm ``pow`` per element,
    because ``np.power``/``np.exp2`` differ from it by an ULP on some
    points.
    """
    if lo <= 0 or hi <= 0:
        raise ValueError("grid bounds must be positive")
    if hi < lo:
        raise ValueError(f"hi ({hi}) must be >= lo ({lo})")
    if points_per_octave < 1:
        raise ValueError("points_per_octave must be >= 1")
    lo_l, hi_l = math.log2(lo), math.log2(hi)
    n = max(2, int(round((hi_l - lo_l) * points_per_octave)) + 1)
    step = (hi_l - lo_l) / (n - 1)
    exponents = (lo_l + np.arange(n) * step).tolist()
    return np.fromiter(map(math.pow, repeat(2.0), exponents), float, n)
