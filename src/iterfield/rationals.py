"""Exact rational vectors and matrices built on fractions.Fraction.

Floats convert exactly (every finite double is a dyadic rational), so a
matrix entered as floats is treated as the exact rational matrix those
floats represent.

Products and solves run on integer numerators over one common
denominator: one normalizing gcd per result entry instead of one per
term, and the same Fractions as plain Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np


def to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if not np.isfinite(f):
            raise ValueError(f"cannot convert non-finite value {f!r} to a rational")
        return Fraction(f)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def fraction_vector(v) -> list[Fraction]:
    return [to_fraction(x) for x in v]


def fraction_matrix(M) -> list[list[Fraction]]:
    rows = [[to_fraction(x) for x in row] for row in M]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


def zeros_vector(n: int) -> list[Fraction]:
    return [Fraction(0)] * n


def _integer_rows(rows):
    """(N, d) with rows[i][j] = N[i][j] / d: integer numerators over the
    least common denominator of all entries."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def sum_numerators(matrices):
    """(S, d) with S / d the entrywise sum of same-shape rational matrices:
    integer numerators over the least common denominator, no Fraction made."""
    parts = [_integer_rows(rows) for rows in matrices]
    den = math.lcm(*(d for _, d in parts))
    total = [[0] * len(row) for row in parts[0][0]]
    for rows, d in parts:
        scale = den // d
        total = [[s + scale * x for s, x in zip(srow, row)] for srow, row in zip(total, rows)]
    return total, den


def mat_mul(A, B):
    NA, da = _integer_rows(A)
    NB, db = _integer_rows(B)
    den = da * db
    cols = list(zip(*NB))
    return [[Fraction(sum(map(mul, row, col)), den) for col in cols] for row in NA]


def mat_vec(A, v):
    NA, da = _integer_rows(A)
    (nv,), dv = _integer_rows([v])
    den = da * dv
    return [Fraction(sum(map(mul, row, nv)), den) for row in NA]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c: Fraction, A):
    return [[c * x for x in row] for row in A]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_scale(c: Fraction, v):
    return [c * x for x in v]


def mat_power(A, k: int):
    if k < 0:
        raise ValueError("exponent must be non-negative")
    result = identity(len(A))
    base = A
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


class SingularMatrixError(ArithmeticError):
    pass


def solve_linear(A, b) -> list[Fraction]:
    """Exact solve of A x = b by fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 1968).

    [A | b] is scaled to integers; every update divides exactly by the
    previous pivot, so after the last column every diagonal entry is the
    final pivot and x_i is the last column over it.  Pivots are the first
    nonzero entry at or below the diagonal, as in plain Gaussian
    elimination, whose entries these are up to nonzero factors: a singular
    matrix fails at the same column.
    """
    n = len(A)
    aug, _ = _integer_rows([[to_fraction(x) for x in row] + [to_fraction(b[i])]
                            for i, row in enumerate(A)])
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], prow)]
        prev = p
    return [Fraction(aug[i][n], prev) for i in range(n)]


def to_float_matrix(A) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in A], dtype=float)


def to_float_vector(v) -> np.ndarray:
    return np.array([float(x) for x in v], dtype=float)
