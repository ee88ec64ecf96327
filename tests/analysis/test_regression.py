"""OLS regression with inference statistics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.regression import ols
from repro.exceptions import FittingError


def design_with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(x), x])


class TestBasicFit:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        y = 3.0 + 2.0 * x
        result = ols(design_with_intercept(x), y, names=("intercept", "slope"))
        assert result.coefficient("intercept") == pytest.approx(3.0)
        assert result.coefficient("slope") == pytest.approx(2.0)
        assert result.r_squared == pytest.approx(1.0)

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 10, 50)
        y = 1.5 + 0.7 * x + rng.normal(0, 0.3, 50)
        ours = ols(design_with_intercept(x), y, names=("intercept", "slope"))
        theirs = scipy_stats.linregress(x, y)
        assert ours.coefficient("slope") == pytest.approx(theirs.slope)
        assert ours.coefficient("intercept") == pytest.approx(theirs.intercept)
        assert ours.std_errors[1] == pytest.approx(theirs.stderr)
        assert ours.p_values[1] == pytest.approx(theirs.pvalue, rel=1e-6)
        assert ours.r_squared == pytest.approx(theirs.rvalue**2)

    def test_multivariate(self):
        rng = np.random.default_rng(1)
        X = np.column_stack(
            [np.ones(100), rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)]
        )
        beta = np.array([2.0, -1.0, 0.5])
        y = X @ beta
        result = ols(X, y)
        assert result.coefficients == pytest.approx(beta)
        assert np.all(result.p_values < 1e-10)

    def test_residuals(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 4.0])
        result = ols(design_with_intercept(x), y)
        assert result.residuals == pytest.approx(y - (x * 1.3 - 0.2), abs=1e-9)

    def test_dof(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), x)
        assert result.dof == 8


class TestDiagnostics:
    def test_summary_contains_names(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), 2 * x, names=("a", "b"))
        text = result.summary()
        assert "a" in text and "b" in text and "R^2" in text

    def test_coefficient_lookup_unknown(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), x, names=("a", "b"))
        with pytest.raises(KeyError):
            result.coefficient("missing")

    def test_p_value_lookup(self):
        x = np.linspace(0, 1, 10)
        result = ols(design_with_intercept(x), 5 * x, names=("a", "b"))
        assert result.p_value("b") < 1e-10


class TestFailureModes:
    def test_rank_deficient(self):
        x = np.linspace(0, 1, 10)
        X = np.column_stack([x, 2 * x])  # collinear
        with pytest.raises(FittingError, match="rank"):
            ols(X, x)

    def test_too_few_rows(self):
        X = np.ones((2, 3))
        with pytest.raises(FittingError, match="more observations"):
            ols(X, np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(FittingError):
            ols(np.ones((5, 2)), np.ones(4))

    def test_one_dimensional_design_rejected(self):
        with pytest.raises(FittingError):
            ols(np.ones(5), np.ones(5))

    def test_non_finite_rejected(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(FittingError, match="finite"):
            ols(X, y)

    def test_wrong_name_count(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(FittingError, match="names"):
            ols(design_with_intercept(x), x, names=("only-one",))


def test_importing_the_service_does_not_import_scipy():
    """scipy is imported lazily inside :func:`ols`: it costs ~1 s and
    ~65 MB per process, and the serving stack never fits a model."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    probe = "import sys, repro.service; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
