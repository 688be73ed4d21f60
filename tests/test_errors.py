"""Tests for the shared tolerance table and input checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

import gsicdetect
from gsicdetect import NumericIntegrityError, ValidationOutcome
from gsicdetect.errors import (hermiticity_deviation, purity_range_deviation,
                               require_real)

PACKAGE = Path(gsicdetect.__file__).parent


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-6):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


def test_no_einsum_of_three_or_more_operands():
    # no benchmark workload times correlation_matrix or index_of_coincidence,
    # so a nested-loop einsum over three operands would come back unnoticed;
    # subscript strings and interleaved sublists are not operands
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) != "einsum":
                continue
            operands = [a for a in node.args if not isinstance(
                a, (ast.Constant, ast.List, ast.Tuple))]
            if len(operands) >= 3:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_hermiticity_deviation_of_a_matrix_and_a_stack():
    m = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.0]])
    assert hermiticity_deviation(m) == 0.0
    bad = m.copy()
    bad[0, 1] += 0.5
    assert hermiticity_deviation(bad) == 0.5
    assert hermiticity_deviation(np.stack([m, bad, m])) == 0.5


def test_hermiticity_deviation_is_the_full_formula_off_the_exact_case():
    # an exactly Hermitian stack returns 0.0 at once; anything else,
    # a NaN entry included, gets the largest |M - M^H| entry as before
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    herm = z + np.swapaxes(z, 1, 2).conj()
    assert hermiticity_deviation(herm) == 0.0
    for bad in (z, herm + 1e-13 * z):
        assert hermiticity_deviation(bad) == float(
            np.abs(bad - np.swapaxes(bad, 1, 2).conj()).max())
    herm[2, 1, 1] = np.nan
    assert np.isnan(hermiticity_deviation(herm))


def test_require_real_rejects_residue_and_nan():
    assert require_real(2.0 + 1e-12j, 1e-10, "x") == 2.0
    assert np.array_equal(require_real(np.array([1.0, 2.0 + 1e-12j]), 1e-10,
                                       "x"), [1.0, 2.0])
    for bad in (2.0 + 1e-9j, complex(2.0, float("nan"))):
        with pytest.raises(NumericIntegrityError, match="imaginary residue"):
            require_real(bad, 1e-10, "x")


def test_validation_outcome_fails_on_any_nan_deviation():
    ok = {"first": 0.0, "second": 1e-12}
    assert ValidationOutcome(ok, tolerance=1e-10).passed
    for key in ok:
        dev = dict(ok, **{key: float("nan")})
        assert not ValidationOutcome(dev, tolerance=1e-10).passed


def test_purity_range_deviation():
    assert purity_range_deviation(2, 0.2) == 0.0
    assert purity_range_deviation(2, 0.25 + 1e-3) == pytest.approx(1e-3)
    assert purity_range_deviation(2, 0.125 - 1e-3) == pytest.approx(1e-3)
    assert np.isnan(purity_range_deviation(2, float("nan")))
