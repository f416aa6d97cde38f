"""Exact rational vectors and matrices in one scaled-integer form.

Floats convert exactly (every finite double is a dyadic rational, read
with ``float.as_integer_ratio``), so a matrix entered as floats is
treated as the exact rational matrix those floats represent.

Every exact computation runs on integer numerators over one positive
common denominator: a matrix is a pair (N, d) with entries N[i][j] / d.
Int, Fraction and float entries enter this form directly (``numerators``),
products, powers, solves and weighted sums stay in it, and a Fraction is
made only for each entry of a public result (``mat_mul``, ``mat_power``,
``solve_linear``, ``affine_parts``): one normalizing gcd per output
entry, and the same Fractions as plain Fraction arithmetic.
An affine map x -> A x + b is the augmented (n+1)x(n+1) matrix
[[A, b], [0, 1]] in this form, so composition is one product, iteration
is a power, and scaling and summing are integer combinations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from . import IterfieldError

# Decimal digits per chunk when writing a long integer: below the smallest
# int-to-str limit Python allows (640), so ``fraction_text`` never hits it.
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an integer of any length, converted in chunks."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return str(n) + "".join(reversed(chunks))


def fraction_text(q: Fraction) -> str:
    """str(q), without the process's int-to-str digit limit: exact
    certificates can have gaps of many thousand digits."""
    try:
        return str(q)
    except ValueError:
        pass
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def ratio(value) -> tuple[int, int]:
    """(p, q) with value = p / q exactly and q > 0, from an int, a float,
    a Fraction or a numeric string."""
    if isinstance(value, np.integer):
        return int(value), 1
    if isinstance(value, str):
        value = Fraction(value)
    try:
        return value.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"cannot convert {type(value).__name__} to a rational") from None
    except (OverflowError, ValueError):
        raise ValueError(f"cannot convert non-finite value {float(value)!r} to a rational") from None


def to_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*ratio(value))


def numerators(rows):
    """(N, d) with rows[i][j] = N[i][j] / d, d the least common denominator."""
    pairs = [[ratio(x) for x in row] for row in rows]
    den = math.lcm(*(q for row in pairs for _, q in row))
    return [[p * (den // q) for p, q in row] for row in pairs], den


def product(A, B):
    """The integer matrix product A B."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def power(N, d: int, k: int):
    """(P, d^k) with P / d^k = (N / d)^k, by repeated squaring."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if any(len(row) != len(N) for row in N):
        raise ValueError("matrix must be square")
    n, result = len(N), None
    while k:
        if k & 1:
            result = (N, d) if result is None else (product(result[0], N), result[1] * d)
        k >>= 1
        if k:
            N, d = product(N, N), d * d
    return result or ([[int(i == j) for j in range(n)] for i in range(n)], 1)


def affine_numerators(A, b):
    """The augmented form of x -> A x + b, from arrays of exact entries."""
    N, d = numerators(np.column_stack([A, b]).tolist())
    N.append([0] * len(N) + [d])
    return N, d


def affine_combination(terms):
    """The augmented form of sum_i w_i F_i, from pairs (w_i, form of F_i)
    with exact weights w_i: one integer scale per form, over the least
    common denominator."""
    parts = [(ratio(w), N, d) for w, (N, d) in terms]
    den = math.lcm(*(q * d for (_, q), _, d in parts))
    n = len(parts[0][1]) - 1
    total = [[0] * (n + 1) for _ in range(n)]
    for (p, q), N, d in parts:
        s = p * (den // (q * d))
        total = [[t + s * x for t, x in zip(trow, row)] for trow, row in zip(total, N)]
    total.append([0] * n + [den])
    return total, den


def affine_compose(outer, inner):
    """The augmented form of outer after inner."""
    return product(outer[0], inner[0]), outer[1] * inner[1]


def lowest_terms(form):
    """The form over its least denominator: every numerator and d divided by
    their gcd, as ``numerators`` gives the form's rational entries."""
    N, d = form
    g = math.gcd(d, *(x for row in N for x in row))
    return [[x // g for x in row] for row in N], d // g


def affine_split(form):
    """(A, b, d): the numerators of x -> A x + b over d."""
    N, d = form
    n = len(N) - 1
    return [row[:n] for row in N[:n]], [row[n] for row in N[:n]], d


def affine_parts(form):
    """Exact rational (A, b) of an augmented form, one Fraction per entry."""
    A, b, d = affine_split(form)
    return [[Fraction(x, d) for x in row] for row in A], [Fraction(x, d) for x in b]


def mat_mul(A, B):
    NA, da = numerators(A)
    NB, db = numerators(B)
    den = da * db
    return [[Fraction(x, den) for x in row] for row in product(NA, NB)]


def mat_power(A, k: int):
    P, den = power(*numerators(A), k)
    return [[Fraction(x, den) for x in row] for row in P]


class SingularMatrixError(IterfieldError, ArithmeticError):
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
    aug, _ = numerators([list(row) + [b[i]] for i, row in enumerate(A)])
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


def to_float_vector(v) -> np.ndarray:
    return np.array([float(x) for x in v], dtype=float)
