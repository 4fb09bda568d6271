"""Golden fixtures shared across the suite, plus the acceptance banner.

The golden matrices all have hand-checkable closed forms: a semicirculant
with a single eigenvalue, a mixed-spectrum matrix whose power sequence
has a genuine non-geometric part, two real matrices with a conjugate
eigenvalue pair on the circle of radius 2, and a 2x2 with the single
negative eigenvalue -2 (the smallest case where the principal logarithm
does not exist).
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from pcanon.linalg import Matrix
from pcanon.scalar import CC, QQ

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_SQRT3 = math.sqrt(3.0)


@pytest.fixture
def semicirculant_4x4() -> Matrix:
    """Upper-Toeplitz [2,4,2,3]; single eigenvalue 2 of index 4."""
    return Matrix(QQ, [[2, 4, 2, 3],
                       [0, 2, 4, 2],
                       [0, 0, 2, 4],
                       [0, 0, 0, 2]])


@pytest.fixture
def mixed_spectrum_4x4() -> Matrix:
    """Eigenvalues 2, -2 and 0 with the zero eigenvalue of index 2."""
    return Matrix(QQ, [[1, 1, 1, 0],
                       [1, 1, 1, -1],
                       [0, 0, -1, 1],
                       [0, 0, 1, -1]])


@pytest.fixture
def mixed_delta_golden() -> tuple[Matrix, Matrix]:
    """The two non-geometric coefficient matrices of mixed_spectrum_4x4."""
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    v0 = Matrix(QQ, [[h, -h, -q, 0],
                     [-h, h, 0, -q],
                     [0, 0, h, h],
                     [0, 0, h, h]])
    v1 = Matrix(QQ, [[0, 0, q, q],
                     [0, 0, -q, -q],
                     [0, 0, 0, 0],
                     [0, 0, 0, 0]])
    return v0, v1


def spiral_3x3_at(x: complex) -> Matrix:
    """Real 3x3 family with eigenvalues 2e^(i pi/6), 2e^(-i pi/6) and x."""
    s = _SQRT3
    return Matrix(CC, [
        [2 * s - x - 10, 2 * s - 2 * x - 23, s - x - 5],
        [4, s + 9, 2],
        [-2 * s + 2 * x + 2, -4 * s + 4 * x + 5, -s + 2 * x + 1],
    ])


@pytest.fixture
def spiral_3x3() -> Matrix:
    """Eigenvalues 2e^(+-i pi/6) and 0: powers are pure cos/sin spirals."""
    return spiral_3x3_at(0.0)


def spiral_3x3_powers(k: int, x: complex = 0.0) -> Matrix:
    """Closed form for spiral_3x3_at(x)^k, valid for k >= 1."""
    c = math.cos(k * math.pi / 6)
    s = math.sin(k * math.pi / 6)
    g = 2.0 ** k
    xk = x ** k
    return Matrix(CC, [
        [2 * g * (c - 5 * s) - xk, 2 * g * (c - 11.5 * s) - 2 * xk,
         g * (c - 5 * s) - xk],
        [4 * g * s, g * (c + 9 * s), 2 * g * s],
        [-2 * g * (c - s) + 2 * xk, -4 * g * (c - 1.25 * s) + 4 * xk,
         -g * (c - s) + 2 * xk],
    ])


@pytest.fixture
def negative_pair_2x2() -> Matrix:
    """Single eigenvalue -2 of index 2; no principal logarithm."""
    return Matrix(QQ, [[1, 3], [-3, -5]])


@pytest.fixture
def jordan5_at_3() -> Matrix:
    return Matrix.jordan_block(QQ, 5, 3)


# -- acceptance banner ------------------------------------------------------

_ACCEPTANCE: dict[int, str] = {}
_ACCEPTANCE_TOTAL = 10


def record_acceptance(n: int, message: str) -> None:
    _ACCEPTANCE[n] = message


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    ran_acceptance = bool(_ACCEPTANCE) or any(
        "test_acceptance" in getattr(rep, "nodeid", "")
        for reps in terminalreporter.stats.values() if isinstance(reps, list)
        for rep in reps)
    if not ran_acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in range(1, _ACCEPTANCE_TOTAL + 1):
        if n in _ACCEPTANCE:
            terminalreporter.write_line(f"ACCEPTANCE {n}: PASS - {_ACCEPTANCE[n]}")
        else:
            terminalreporter.write_line(
                f"ACCEPTANCE {n}: FAIL - criterion did not run to completion")
