"""Exact rational vectors and matrices built on fractions.Fraction.

Floats convert exactly (every finite double is a dyadic rational), so a
matrix entered as floats is treated as the exact rational matrix those
floats represent.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


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
    """Exact solve of A x = b by fraction Gaussian elimination."""
    n = len(A)
    aug = [[to_fraction(x) for x in row] + [to_fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def to_float_matrix(A) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in A], dtype=float)


def to_float_vector(v) -> np.ndarray:
    return np.array([float(x) for x in v], dtype=float)
