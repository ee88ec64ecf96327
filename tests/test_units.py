"""Unit conversions and grids."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import (
    BYTES_PER_DOUBLE,
    BYTES_PER_SINGLE,
    format_si,
    gflops_to_flops_per_second,
    joules_per_flop_to_gflops_per_joule,
    log2_grid,
    picojoules,
    time_per_byte_from_gbytes,
    time_per_flop_from_gflops,
    to_picojoules,
)


class TestConversions:
    def test_word_sizes(self):
        assert BYTES_PER_DOUBLE == 8 and BYTES_PER_SINGLE == 4

    def test_gflops_round_trip(self):
        assert gflops_to_flops_per_second(515.0) == 515e9

    def test_table2_tau_flop(self):
        """The paper's headline derivation: 515 GFLOP/s -> ~1.9 ps."""
        assert time_per_flop_from_gflops(515.0) * 1e12 == pytest.approx(1.94, abs=0.01)

    def test_table2_tau_mem(self):
        assert time_per_byte_from_gbytes(144.0) * 1e12 == pytest.approx(6.94, abs=0.01)

    def test_tau_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            time_per_flop_from_gflops(0.0)
        with pytest.raises(ValueError):
            time_per_byte_from_gbytes(-1.0)

    def test_picojoules_round_trip(self):
        assert to_picojoules(picojoules(212.0)) == pytest.approx(212.0)

    def test_gflops_per_joule(self):
        """829 pJ/flop -> ~1.2 GFLOP/J (the GTX 580 double peak)."""
        assert joules_per_flop_to_gflops_per_joule(829e-12) == pytest.approx(
            1.206, abs=0.01
        )

    def test_gflops_per_joule_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            joules_per_flop_to_gflops_per_joule(0.0)


class TestFormatSI:
    def test_pico(self):
        assert format_si(1.9e-12, "s") == "1.9 ps"

    def test_giga(self):
        assert format_si(5.15e11, "FLOP/s") == "515 GFLOP/s"

    def test_unit_scale(self):
        assert format_si(3.0, "W") == "3 W"

    def test_zero(self):
        assert format_si(0.0, "J") == "0 J"

    def test_nonfinite(self):
        assert "inf" in format_si(math.inf, "J")


class TestLog2Grid:
    def test_endpoints_included(self):
        grid = log2_grid(0.5, 512.0, points_per_octave=1)
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(512.0)

    def test_density(self):
        grid = log2_grid(1.0, 16.0, points_per_octave=2)
        assert len(grid) == 9

    def test_strictly_increasing(self):
        grid = log2_grid(0.25, 64.0, points_per_octave=3)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        lo_exp=st.floats(-20.0, 20.0),
        octaves=st.floats(0.0, 16.0),
        points_per_octave=st.integers(1, 400),
    )
    def test_bit_identical_to_scalar_reference(
        self, lo_exp, octaves, points_per_octave
    ):
        """Every point is exactly ``2.0 ** (lo_l + i * step)``."""
        lo = 2.0 ** lo_exp
        hi = lo * 2.0 ** octaves
        lo_l, hi_l = math.log2(lo), math.log2(hi)
        n = max(2, int(round((hi_l - lo_l) * points_per_octave)) + 1)
        step = (hi_l - lo_l) / (n - 1)
        reference = [2.0 ** (lo_l + i * step) for i in range(n)]
        grid = log2_grid(lo, hi, points_per_octave).tolist()
        assert [x.hex() for x in grid] == [x.hex() for x in reference]

    def test_validation(self):
        with pytest.raises(ValueError):
            log2_grid(0.0, 1.0)
        with pytest.raises(ValueError):
            log2_grid(2.0, 1.0)
        with pytest.raises(ValueError):
            log2_grid(1.0, 2.0, points_per_octave=0)
