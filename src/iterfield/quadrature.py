"""One-dimensional adaptive quadrature used for potentials.

An adaptive Gauss-Kronrod 10/21 integrator (QUADPACK's qk21 rule and error
estimate, Piessens et al. 1983) written over numpy arrays: ``integrate_batch``
integrates many intervals together, evaluating the integrand once per
round at the 21 nodes of every open subinterval, and bisects only the
subintervals of intervals that have not converged.  An interval converges
when the error estimates of its subintervals sum to at most
max(ABS_TOL, REL_TOL |integral|); one that would need more than
``SUBINTERVAL_CAP`` subintervals raises QuadratureError naming it.  Both
constants are read at each call.  Each interval's
subintervals, sums and decisions depend on that interval alone, so an
integral is bit-identical whatever else shares its batch.  Overflow or a
non-finite value, in the integrand or in the integral, raises
NonFiniteValueError: potentials keep the fields' overflow policy.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from . import IterfieldError
from .fields import NonFiniteValueError

ABS_TOL = 1e-10
REL_TOL = 1e-12
SUBINTERVAL_CAP = 10**4

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# qk21 nodes in [0, 1] (the last is the centre) and their Kronrod weights;
# the Gauss 10-point rule uses the nodes at odd positions.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# Node columns: the centre, then t = c - h x_j and t = c + h x_j for j = 0..9.
_NODES = np.array([0.0] + [s * x for x in _XGK[:10] for s in (-1.0, 1.0)])
_WGK_PAIRS = np.array(_WGK[:10])
# QUADPACK's summation order: the Gauss nodes, then the Kronrod-only ones.
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)


class QuadratureError(IterfieldError, RuntimeError):
    """The adaptive integrator failed to converge on an interval."""


Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _qk21(fn: Integrand, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray,
          a: np.ndarray, b: np.ndarray):
    """(integral, error estimate) of qk21 on every subinterval [lo, hi],
    summed column by column as QUADPACK does, so each row's floats depend
    on that row alone."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = centre[:, None] + half[:, None] * _NODES
    f = _checked(fn, t, rows, a, b)
    absf = np.abs(f)
    pairs = f[:, 1::2] + f[:, 2::2]
    weighted = pairs * _WGK_PAIRS
    weighted_abs = (absf[:, 1::2] + absf[:, 2::2]) * _WGK_PAIRS
    resg = 0.0
    resk = _WGK[10] * f[:, 0]
    resabs = np.abs(resk)
    for j in _ORDER:
        if j % 2:
            resg = resg + _WG[j // 2] * pairs[:, j]
        resk = resk + weighted[:, j]
        resabs = resabs + weighted_abs[:, j]
    dev = np.abs(f - (resk * 0.5)[:, None])
    weighted_dev = (dev[:, 1::2] + dev[:, 2::2]) * _WGK_PAIRS
    resasc = _WGK[10] * dev[:, 0]
    for j in range(10):
        resasc = resasc + weighted_dev[:, j]
    dhalf = np.abs(half)
    resabs, resasc = resabs * dhalf, resasc * dhalf
    err = np.abs((resk - resg) * half)
    scaled = np.minimum(1.0, 200.0 * err / np.where(resasc == 0.0, 1.0, resasc))
    err = np.where((resasc != 0.0) & (err != 0.0), resasc * (scaled * np.sqrt(scaled)), err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _checked(fn: Integrand, t: np.ndarray, rows: np.ndarray, a, b) -> np.ndarray:
    """fn at the nodes t, raising on the first non-finite value."""
    f = np.asarray(fn(t, rows), dtype=float)
    bad = ~np.isfinite(f)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        i = rows[r]
        raise NonFiniteValueError(
            f"integrand is {f[r, c]} at t={t[r, c]} on [{a[i]}, {b[i]}]")
    return f


def integrate_batch(fn: Integrand, a, b) -> np.ndarray:
    """The integrals of fn over the intervals [a_i, b_i], as an array.

    ``fn(t, rows)`` gets nodes t of shape (R, q) and, for each row of
    nodes, the index i of the interval they lie in; it returns the
    integrand at t, shape (R, q), elementwise.  An interval of zero width
    integrates to 0.0, and one narrower than the smallest normal float
    takes the midpoint rule.  Runs under one errstate.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    value = np.zeros(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        width = np.abs(b - a)
        bad = ~np.isfinite(width)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteValueError(f"interval [{a[i]}, {b[i]}] is not finite")
        narrow = np.flatnonzero((width > 0.0) & (width < _TINY))
        if narrow.size:
            mid = (0.5 * (a[narrow] + b[narrow]))[:, None]
            value[narrow] = (b[narrow] - a[narrow]) * _checked(fn, mid, narrow, a, b)[:, 0]
        # the open subintervals; the first len(res) have their qk21 results
        rows = np.flatnonzero(width >= _TINY)
        lo, hi = a[rows], b[rows]
        res = err = np.zeros(0)
        while rows.size:
            new_res, new_err = _qk21(fn, lo[res.size:], hi[res.size:], rows[res.size:], a, b)
            res, err = np.concatenate([res, new_res]), np.concatenate([err, new_err])
            # per-interval sums in each interval's own subinterval order
            total = np.bincount(rows, res, minlength=a.size)
            total_err = np.bincount(rows, err, minlength=a.size)
            count = np.bincount(rows, minlength=a.size)
            broken = ~(np.isfinite(total) & np.isfinite(total_err))
            if broken.any():
                i = int(np.argmax(broken))
                raise NonFiniteValueError(
                    f"integral or its error estimate overflowed on [{a[i]}, {b[i]}]")
            target = np.maximum(ABS_TOL, REL_TOL * np.abs(total))
            still = total_err > target
            done = (count > 0) & ~still
            value[done] = total[done]
            # in an open interval, bisect the subintervals whose error exceeds
            # half its target shared evenly over its subintervals
            split = still[rows] & (err > 0.5 * target[rows] / count[rows])
            keep = still[rows] & ~split
            over = np.flatnonzero(
                count + np.bincount(rows[split], minlength=a.size) > SUBINTERVAL_CAP)
            if over.size:
                i = over[0]
                raise QuadratureError(f"quadrature did not converge on [{a[i]}, {b[i]}]: "
                                      f"more than {SUBINTERVAL_CAP} subintervals needed")
            s_lo, s_hi, s_rows = lo[split], hi[split], rows[split]
            mid = 0.5 * (s_lo + s_hi)
            stuck = (mid == s_lo) | (mid == s_hi)
            if stuck.any():
                i = s_rows[int(np.argmax(stuck))]
                raise QuadratureError(f"quadrature did not converge on [{a[i]}, {b[i]}]: "
                                      "a subinterval is too narrow to bisect")
            rows = np.concatenate([rows[keep], s_rows, s_rows])
            lo = np.concatenate([lo[keep], s_lo, mid])
            hi = np.concatenate([hi[keep], mid, s_hi])
            res, err = res[keep], err[keep]
    return value


def integrate(fn: Callable[[float], float], a: float, b: float) -> float:
    """The integral of a scalar callable over [a, b]: ``integrate_batch``
    on one interval, calling fn once per node."""
    def on_nodes(t, _rows):
        try:
            return np.array([fn(float(s)) for s in t.ravel()], dtype=float).reshape(t.shape)
        except OverflowError as err:
            raise NonFiniteValueError(f"integrand overflowed on [{a}, {b}]") from err

    return float(integrate_batch(on_nodes, [a], [b])[0])
