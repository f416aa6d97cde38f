"""Reference computations that check iterfield's outputs.

None of these call iterfield.  Exact questions go through sympy (integer
matrix powers, sparse polynomial rings over QQ); numeric questions through
plain numpy written from the definitions.  They run after the timed loop.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

# ----- exact linear algebra -----


def integer_scaled(matrix):
    """(B, D) with matrix = B / D exactly, B an integer matrix."""
    fr = [[Fraction(x) for x in row] for row in matrix]
    den = 1
    for row in fr:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    return [[int(x * den) for x in row] for row in fr], den


def linear_scan(matrix, k_max):
    """Per k: None when A^k is symmetric, else (i, j, gap) for the first
    asymmetric pair in row-major order over the upper triangle."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    B, den = integer_scaled(matrix)
    n = len(B)
    base = DomainMatrix([[ZZ(v) for v in row] for row in B], (n, n), ZZ)
    power = base
    out = {}
    for k in range(1, k_max + 1):
        if k > 1:
            power = power * base
        P = power.to_list()
        first = None
        for i in range(n):
            for j in range(i + 1, n):
                if P[i][j] != P[j][i]:
                    first = (i + 1, j + 1, Fraction(int(P[i][j] - P[j][i]), den ** k))
                    break
            if first:
                break
        out[k] = first
    return out


_CERT_RE = re.compile(r"entry \((\d+),(\d+)\) minus \((\d+),(\d+)\) = (-?\d+(?:/\d+)?)$")


def parse_matrix_certificate(text):
    m = _CERT_RE.search(text or "")
    if not m:
        return None
    return int(m.group(1)), int(m.group(2)), Fraction(m.group(5))


# ----- exact polynomials -----

def parse_poly_text(text, nvars):
    """iterfield's canonical text ('4*x0^3 + -8*x0^1*x1^2') as {exps: Fraction}."""
    terms = {}
    if text.strip() == "0":
        return terms
    for piece in text.split(" + "):
        coeff, *factors = piece.strip().split("*")
        exps = [0] * nvars
        for factor in factors:
            name, _, power = factor.partition("^")
            exps[int(name[1:])] += int(power) if power else 1
        terms[tuple(exps)] = Fraction(coeff)
    return terms


def ring_terms(p):
    return {tuple(m): Fraction(int(c.numerator), int(c.denominator)) for m, c in p.terms()}


def poly_asymmetry(potential_terms, nvars, k):
    """Entries of J(V^k) - J(V^k)^T for V the gradient of the potential,
    as {(i, j): {exps: Fraction}} over i < j, computed in sympy's ring."""
    from sympy import QQ
    from sympy.polys.rings import ring

    names = ",".join(f"x{i}" for i in range(nvars))
    R, *gens = ring(names, QQ)
    pot = R(0)
    for exps, coeff in potential_terms:
        term = R(QQ(coeff))
        for g, e in zip(gens, exps):
            term *= g ** e
        pot += term
    V = [pot.diff(g) for g in gens]
    current = list(V)
    for _ in range(k - 1):
        current = [v.compose(list(zip(gens, current))) for v in V]
    out = {}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out[(i, j)] = ring_terms(current[i].diff(gens[j]) - current[j].diff(gens[i]))
    return out


def cubic_tower(scales, k):
    """Coefficient groups of the scaled symbolic cubic family's asymmetry.

    The potential is r1*a*x^3 + r2*b*x^2*y + r3*c*x*y^2 + r4*d*y^3 over
    QQ[a, b, c, d, x, y]; returns {(ex, ey): {(ea, eb, ec, ed): Fraction}}.
    """
    from sympy import QQ
    from sympy.polys.rings import ring

    R, a, b, c, d, x, y = ring("a,b,c,d,x,y", QQ)
    r1, r2, r3, r4 = scales
    pot = r1 * a * x**3 + r2 * b * x**2 * y + r3 * c * x * y**2 + r4 * d * y**3
    V = [pot.diff(x), pot.diff(y)]
    current = list(V)
    for _ in range(k - 1):
        current = [v.compose([(x, current[0]), (y, current[1])]) for v in V]
    entry = current[0].diff(y) - current[1].diff(x)
    groups = {}
    for mono, coeff in ring_terms(entry).items():
        groups.setdefault((mono[4], mono[5]), {})[mono[:4]] = coeff
    return groups


# ----- numeric fields, batched over sample points -----

def ball_samples(dimension, count, seed, radius=1.0):
    """Uniform samples from a ball (Gaussian direction, radius ~ U^(1/n))."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dimension))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dimension)
    return g / norms * radii[:, None]


def _activation(name):
    if name == "quadratic":
        return (lambda t: t), (lambda t: np.ones_like(t))
    if name == "exp":
        return np.exp, np.exp

    def sigmoid(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    return sigmoid, (lambda t: sigmoid(t) * (1.0 - sigmoid(t)))


class BatchField:
    """A numeric field from a workload field spec, evaluated on (N, n) batches."""

    def __init__(self, spec):
        self.form = spec["form"]
        self.Z = np.asarray(spec["directions"], dtype=float)
        self.n = self.Z.shape[1]
        self.d1, self.d2 = _activation(spec["activation"])
        self.gamma = spec.get("gamma")
        self.M = np.asarray(spec["matrix"], dtype=float) if "matrix" in spec else None

    def _grad(self, X):
        T = X @ self.Z.T
        value = self.d1(T) @ self.Z
        jac = np.einsum("ni,ij,ik->njk", self.d2(T), self.Z, self.Z)
        return value, jac

    def step(self, X):
        """(F(X), J_F(X)) for the batch."""
        if self.form == "grad":
            return self._grad(X)
        if self.form == "gd":
            value, jac = self._grad(X)
            return X - self.gamma * value, np.eye(self.n)[None] - self.gamma * jac
        if self.form == "linear-after":
            value, jac = self._grad(X)
            return value @ self.M.T, np.einsum("ij,njk->nik", self.M, jac)
        value, jac = self._grad(X @ self.M.T)
        return value, np.einsum("nij,jk->nik", jac, self.M)


def chain_residuals(spec, points, k_max):
    """Per k: (worst asymmetry residual over finite samples, skipped count).

    Residual is ||P - P^T||_F / max(1, ||P||_F) for the chain product P of
    step Jacobians along each sample's orbit.
    """
    field = BatchField(spec)
    X = np.array(points, dtype=float)
    alive = np.ones(len(X), dtype=bool)
    P = None
    out = {}
    with np.errstate(all="ignore"):
        for k in range(1, k_max + 1):
            value, J = field.step(X)
            P = J if P is None else np.einsum("nij,njk->nik", J, P)
            ok = np.all(np.isfinite(P.reshape(len(X), -1)), axis=1)
            alive &= ok
            gap = np.linalg.norm(P - np.transpose(P, (0, 2, 1)), axis=(1, 2))
            scale = np.maximum(1.0, np.linalg.norm(P, axis=(1, 2)))
            res = np.where(alive, gap / scale, -1.0)
            out[k] = (float(np.max(res)) if alive.any() else None, int((~alive).sum()))
            X = value
            alive &= np.all(np.isfinite(X), axis=1)
    return out


def closed_glm_iterate(directions, activation, k, X):
    """k-fold iterate of an orthogonal model gradient by per-direction recursion."""
    Z = np.asarray(directions, dtype=float)
    d1, _ = _activation(activation)
    w = np.sum(Z * Z, axis=1)
    S = np.asarray(X, dtype=float) @ Z.T
    for _ in range(k - 1):
        S = w * d1(S)
    return d1(S) @ Z


def closed_glm_gd_iterate(directions, activation, gamma, k, X):
    Z = np.asarray(directions, dtype=float)
    d1, _ = _activation(activation)
    w = np.sum(Z * Z, axis=1)
    S = np.asarray(X, dtype=float) @ Z.T
    acc = np.zeros_like(S)
    for _ in range(k):
        value = d1(S)
        acc += value
        S = S - gamma * w * value
    return np.asarray(X, dtype=float) - gamma * acc @ Z


def relative_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.linalg.norm(a - b, axis=-1) / np.maximum(1.0, np.linalg.norm(b, axis=-1))
    return float(np.max(rows))


# ----- federated averaging -----

def client_gd_power(client, gamma, k, x):
    """k local gradient-descent steps of one client from x."""
    y = np.array(x, dtype=float)
    for _ in range(k):
        y = y - gamma * client_gradient(client, y)
    return y


def client_gradient(client, x):
    if client["kind"] == "quadratic":
        A = np.asarray(client["matrix"], dtype=float)
        return A @ (x - np.asarray(client["center"], dtype=float))
    Z = np.asarray(client["directions"], dtype=float)
    d1, _ = _activation(client["activation"])
    return d1(Z @ x) @ Z


def server_trace(clients, gamma, k, rounds, x0):
    """Model-average recursion x <- mean_i (local descent)^k(x), unit server step."""
    xs = [np.array(x0, dtype=float)]
    for _ in range(rounds):
        x = xs[-1]
        xs.append(sum(client_gd_power(c, gamma, k, x) for c in clients) / len(clients))
    return np.array(xs)


def server_field_norm(clients, gamma, k, x):
    x = np.asarray(x, dtype=float)
    avg = sum(client_gd_power(c, gamma, k, x) for c in clients) / len(clients)
    return float(np.linalg.norm(x - avg))


def quadratic_fixed_point(clients, gamma, k):
    """Zero of the server field for quadratic clients, by a float solve."""
    n = len(clients[0]["center"])
    M = np.zeros((n, n))
    v = np.zeros(n)
    for c in clients:
        A = np.asarray(c["matrix"], dtype=float)
        b = np.asarray(c["center"], dtype=float)
        B = np.linalg.matrix_power(np.eye(n) - gamma * A, k)
        M += np.eye(n) - B
        v += (np.eye(n) - B) @ b
    return np.linalg.solve(M, v)


def quadratic_average_minimizer(clients):
    A = sum(np.asarray(c["matrix"], dtype=float) for c in clients)
    rhs = sum(np.asarray(c["matrix"], dtype=float) @ np.asarray(c["center"], dtype=float)
              for c in clients)
    return np.linalg.solve(A, rhs)
