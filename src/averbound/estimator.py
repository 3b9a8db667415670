"""Certified error estimator for the averaging approximation.

Solves, in the slow time tau = eps*t, the coupled system for

* the averaged actions J (dJ/dtau = fbar(J)),
* the fundamental matrix R of the linearized averaged flow,
* its inhomogeneous companion K driven by pbar,
* the accumulated growth integral m,
* the certified bound n, with n(0) = ell0 the fixed point of the
  self-consistent level map ell -> offset_value(tau=0, eps*ell).

A successful run certifies |I(t) - J(eps*t)| <= eps * n(eps*t) for
t in [0, U/eps); the run stops early (status ``domain_violation``) as soon
as one of the validity conditions

    0 < n < rho_hat(J)/eps,      d(offset)/dr (eps*n) < 1/eps

fails along the way.

The slow right-hand side is straight-line code, generated once per d, per
form of the offset partials (by the bundle's gradients or by central
differences) and per code of the members it writes in, with every
operation of an evaluation written out; at d = 1 the same evaluation is
written into each stage of the adaptive Dormand-Prince run the slow solve
takes, its whole step loop generated in one function.  ``fbar``,
``dfbar``, ``pbar`` and the majorants and gradients an evaluation calls
are written in where the inliner the direct run uses can
(:mod:`~averbound.inline`), and called otherwise.  :func:`_slow_functions`
hands the slow solve its right-hand side, run kernel and stop predicate.
"""
from __future__ import annotations

import functools
import math
import textwrap
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import inline, ode
from .ode import _compile_factory, _dot, _seq
from .model import (IDENTITY_TOL, AuxiliaryBundle, BoundBundle, SystemSpec,
                    frobenius, offset_value)

__all__ = [
    "ContractionError",
    "NoConvergenceError",
    "SingularMatrixError",
    "WindowError",
    "ViolationKind",
    "EstimatorStatus",
    "ContractionWindow",
    "EstimatorTrajectory",
    "auto_window",
    "find_fixed_point",
    "run_estimator",
    "run_averaged",
]

_COND_LIMIT = 1e12
_FD_STEP = 1e-6               # central differences: step * max(1, |argument|)
_WINDOW_SAMPLES = 101         # level-map slope samples per window check
_FIXED_POINT_MAX_ITER = 200
REPORT_GRID_POINTS = 2048
# The averaged solve that feeds a direct run is this many times tighter in
# rtol and atol than the run itself.
AVERAGED_TIGHTENING = 10.0


class ContractionError(RuntimeError):
    """The supplied window fails a contraction precondition."""


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration did not meet the tolerance within its cap."""


class SingularMatrixError(RuntimeError):
    """The fundamental matrix became numerically singular."""


class WindowError(RuntimeError):
    """No valid contraction window could be constructed."""


class ViolationKind(str, Enum):
    N_NONPOSITIVE = "n_nonpositive"
    N_EXCEEDS_RHO_OVER_EPS = "n_exceeds_rho_over_eps"
    DALPHA_DR_EXCEEDS_INV_EPS = "dalpha_dr_exceeds_inv_eps"


class EstimatorStatus(str, Enum):
    COMPLETED = "completed"
    DOMAIN_VIOLATION = "domain_violation"
    STEP_FAILURE = "step_failure"


# ---------------------------------------------------------------------------
# Bound-function derivatives


def _dalpha_dr(bounds: BoundBundle, j, rmat, k, r, eps) -> float:
    if bounds.a_grad is not None:
        return float(bounds.a_grad(j, rmat, k, r)[3] + eps * bounds.b_grad(j, r)[1])
    h = _FD_STEP * max(1.0, abs(r))
    return (offset_value(bounds, j, rmat, k, r + h, eps)
            - offset_value(bounds, j, rmat, k, r - h, eps)) / (2 * h)


def _inverse_norms(rows):
    """The Frobenius norms (|R|, |R^-1|) of the condition check, for R given
    as a list of three or more rows of floats, inverted by
    ``np.linalg.solve``.  At d = 1 and d = 2 the slow right-hand side
    writes them out on floats (:func:`_norm_lines`)."""
    rmat = np.array(rows)
    try:
        inv = np.linalg.solve(rmat, np.eye(len(rows)))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    norm_r, norm_inv = frobenius(rmat), frobenius(inv)
    if norm_r * norm_inv > _COND_LIMIT:
        raise SingularMatrixError("condition estimate of R exceeds 1e12")
    return norm_r, norm_inv


# ---------------------------------------------------------------------------
# Fixed point


@dataclass(frozen=True)
class ContractionWindow:
    """Interval data certifying the level map is a contraction.

    The map ell -> offset_value(0, eps*ell) is required to send
    ``[ell_star - sigma, ell_star + sigma]`` into itself with Lipschitz
    constant eps*slope_bound < 1.
    """

    ell_star: float
    sigma: float
    slope_bound: float

    def interval(self):
        return self.ell_star - self.sigma, self.ell_star + self.sigma


def _window_alpha0(spec: SystemSpec):
    d = spec.d
    return spec.i0, np.eye(d), np.zeros(d)


def _sampled_slope(spec: SystemSpec, bounds: BoundBundle, lo: float, hi: float) -> float:
    """Largest |d(offset)/dr| at radius eps*ell over ``_WINDOW_SAMPLES``
    levels ell evenly spaced in [lo, hi]; NaN at the first NaN sample,
    which Python's ``max`` would drop."""
    eps = spec.epsilon
    j0, rmat0, k0 = _window_alpha0(spec)
    worst = 0.0
    for ell in np.linspace(lo, hi, _WINDOW_SAMPLES):
        slope = abs(_dalpha_dr(bounds, j0, rmat0, k0, eps * ell, eps))
        if math.isnan(slope):
            return slope
        worst = max(worst, slope)
    return worst


def verify_window(spec: SystemSpec, bounds: BoundBundle, window: ContractionWindow,
                  worst: Optional[float] = None) -> None:
    """Check the contraction preconditions by sampling.

    Raise :class:`ContractionError` unless ``window`` lies in the tube, has
    slope bound below 1/eps, bounds the sampled slope ``worst`` (sampled
    here when not given) and maps into itself."""
    eps = spec.epsilon
    j0, rmat0, k0 = _window_alpha0(spec)
    lo, hi = window.interval()
    rho0 = bounds.rho_hat(j0)
    if not (0.0 < lo and hi < rho0 / eps):
        raise ContractionError(
            f"window [{lo}, {hi}] not inside (0, rho(0)/eps={rho0 / eps})")
    if not window.slope_bound < 1.0 / eps:
        raise ContractionError("slope bound must stay below 1/eps")
    if worst is None:
        worst = _sampled_slope(spec, bounds, lo, hi)
    if not worst <= window.slope_bound + 1e-12:     # a NaN slope fails
        raise ContractionError(
            f"sampled level-map slope {worst} exceeds supplied bound "
            f"{window.slope_bound}")
    a_star = offset_value(bounds, j0, rmat0, k0, eps * window.ell_star, eps)
    if not (abs(a_star - window.ell_star) + eps * window.slope_bound * window.sigma
            < window.sigma):
        raise ContractionError("window does not map into itself")


def auto_window(spec: SystemSpec, bounds: BoundBundle) -> ContractionWindow:
    """Propose a window around the unperturbed level ell* = offset(0, 0).

    Heuristic: sigma = ell*/2 and the slope bound is the sampled maximum of
    |d(offset)/dr| over the window (plus a tiny margin).  Raises
    :class:`WindowError` when no valid window results.
    """
    eps = spec.epsilon
    j0, rmat0, k0 = _window_alpha0(spec)
    ell_star = offset_value(bounds, j0, rmat0, k0, 0.0, eps)
    if not ell_star > 0.0:
        raise WindowError("offset bound at radius 0 must be positive")
    sigma = 0.5 * ell_star
    lo, hi = ell_star - sigma, ell_star + sigma
    if not hi < bounds.rho_hat(j0) / eps:
        raise WindowError("proposed window exceeds the tube radius")
    worst = _sampled_slope(spec, bounds, lo, hi)
    slope = worst * (1.0 + 1e-9) + 1e-15
    window = ContractionWindow(ell_star=ell_star, sigma=sigma, slope_bound=slope)
    try:
        verify_window(spec, bounds, window, worst)
    except ContractionError as exc:
        raise WindowError(f"auto window construction failed: {exc}") from exc
    return window


def find_fixed_point(spec: SystemSpec, bounds: BoundBundle,
                     window: ContractionWindow, tol: float = 1e-12) -> float:
    """Initial bound level: the fixed point of ell -> offset_value(0, eps*ell).

    Iterates the map from ell_star after verifying the contraction window by
    sampling.  Convergence requires both the fixed-point residual and the
    a-posteriori contraction bound (eps*M)^(N-1) |l2 - l1| / (1 - eps*M) to
    fall below ``tol`` within ``_FIXED_POINT_MAX_ITER`` iterations.
    """
    verify_window(spec, bounds, window)
    return _iterate_fixed_point(spec, bounds, window, tol)


def _iterate_fixed_point(spec: SystemSpec, bounds: BoundBundle,
                         window: ContractionWindow, tol: float = 1e-12) -> float:
    """The iteration of :func:`find_fixed_point` on a window already
    verified."""
    eps = spec.epsilon
    j0, rmat0, k0 = _window_alpha0(spec)
    eps_m = eps * window.slope_bound

    ell = window.ell_star
    first_gap = None
    for it in range(1, _FIXED_POINT_MAX_ITER + 1):
        nxt = offset_value(bounds, j0, rmat0, k0, eps * ell, eps)
        if first_gap is None:
            first_gap = abs(nxt - ell)
        residual = abs(nxt - ell)
        posterior = (eps_m ** max(it - 1, 0)) * first_gap / (1.0 - eps_m)
        ell = nxt
        if residual <= tol and posterior <= tol:
            return float(ell)
    raise NoConvergenceError(
        f"fixed point not located within {_FIXED_POINT_MAX_ITER} iterations "
        f"(tol={tol})")


# ---------------------------------------------------------------------------
# Slow-time coupled system


def pack_state(j, rmat, k, m, n) -> np.ndarray:
    """The packed state [J, R, K, m, n], R row by row.

    One concatenation, not slices of a preallocated array: a slice would
    broadcast a J or K of length 1 into d places without an error.
    """
    return np.concatenate((j, rmat.ravel(), k, (m, n)))


def _offsets(d: int):
    """Where R and K start in a packed state of d actions: J fills the
    first d components, R the next d*d row by row, K the d after them, and
    m and n are the last two."""
    return d, d + d * d


def unpack_state(y: np.ndarray, d: int):
    """Views (J, R, K, m, n) of a packed state, or of a grid of them with one
    state per row.  For a single state m and n are scalars."""
    r0, k0 = _offsets(d)
    j = y[..., :r0]
    rmat = y[..., r0:k0].reshape(y.shape[:-1] + (d, d))
    k = y[..., k0:k0 + d]
    # y.T[-1] is a scalar for one state and a column view for a grid.
    return j, rmat, k, y.T[-2], y.T[-1]


def report_columns(d: int) -> list:
    """Names of the columns of :meth:`EstimatorTrajectory.report_grid`."""
    ix = range(1, d + 1)
    return (["tau"] + [f"J_{a}" for a in ix]
            + [f"R_{a}{b}" for a in ix for b in ix]
            + [f"K_{a}" for a in ix] + ["m", "n"])


def _state_names(d: int) -> list:
    """Names of the floats of a packed state of d actions, in packed
    order: ``j<a>``, ``r<a>_<b>`` row by row, ``k<a>``, ``m`` and ``n``."""
    ix = range(d)
    return ([f"j{a}" for a in ix] + [f"r{a}_{b}" for a in ix for b in ix]
            + [f"k{a}" for a in ix] + ["m", "n"])


def _state_parts(d: int, state):
    """The names ``state`` of a packed state's floats as (J, rows of R,
    K, m, n), split by :func:`unpack_state`."""
    j, rmat, k, m, n = unpack_state(np.array(state, dtype=object), d)
    return j.tolist(), rmat.tolist(), k.tolist(), m, n


def _rows_of(rows):
    return _seq(_seq(row) for row in rows)


_LISTS = ("j", "rows", "kvec")


def _split_lines(d: int, state, lists):
    """Lines that split the state ``y`` into the floats of a packed state
    of d actions, named in packed order (``_state_names``), at the offsets
    of :func:`unpack_state`, unless ``state`` names them already; and then
    form those of the lists ``j``, ``rows`` and ``kvec`` of J, the rows of
    R and K that ``lists`` names."""
    split = []
    if state is None:
        state = _state_names(d)
        split.append(f"{_seq(state)} = y")
    js, rs, ks, _, _ = _state_parts(d, state)
    return split + [f"{name} = {value}" for name, value in
                    zip(_LISTS, (_seq(js), _rows_of(rs), _seq(ks)))
                    if name in lists]


def _slow_rhs_lines(d: int, state, amat, pb):
    """Lines that write out the products of the slow right-hand side for d
    actions, and the names of their entries in packed order.

    ``state`` names the floats of the packed state in packed order.  The
    lines bind the entries of dfbar R and dfbar K + pbar, as ``d<a>_<b>``
    and ``dk<a>``, and R . dR as ``r_dot_dr``: each a sum by ``ode._dot``,
    R taken row by row, and pbar added after the sum.  ``amat`` holds the
    expressions of dfbar(J)'s entries, row by row, and ``pb`` those of
    pbar(J).
    """
    ix = range(d)
    _, rs, ks, _, _ = _state_parts(d, state)
    products = []
    drs = [[f"d{a}_{b}" for b in ix] for a in ix]
    dks = [f"dk{a}" for a in ix]
    flat_rs = [x for row in rs for x in row]
    flat_drs = [x for row in drs for x in row]
    for a in ix:
        products += [f"{drs[a][b]} = {_dot((amat[a][c], rs[c][b]) for c in ix)}"
                     for b in ix]
        products.append(f"{dks[a]} = {_dot((amat[a][c], ks[c]) for c in ix)}"
                        f" + {pb[a]}")
    products.append(f"r_dot_dr = {_dot(zip(flat_rs, flat_drs))}")
    return products, flat_drs + dks


def _norm_lines(rs, used: set):
    """Lines that bind ``norm_r`` and ``norm_rinv``, the Frobenius norms of
    R and R^-1 for R given as the rows ``rs`` of named floats, and raise
    :class:`SingularMatrixError` for a singular or ill-conditioned R; the
    lists they read are added to ``used`` (:func:`_split_lines`).

    At d = 1 and d = 2 they are written out on floats, with the operations
    of an ndarray R^-1 and :func:`frobenius` in the same order (a sum of
    fewer than eight squares runs left to right in numpy too), so every
    bit is the same.  A larger R, as the list ``rows``, goes to
    :func:`_inverse_norms`, bound as ``norms``.
    """
    check = [f"if norm_r * norm_rinv > {_COND_LIMIT!r}:",
             "    raise SingularMatrixError("
             "'condition estimate of R exceeds 1e12')"]
    if len(rs) == 1:
        (r00,), = rs
        return [f"if {r00} == 0.0:",
                "    raise SingularMatrixError('fundamental matrix is zero')",
                f"inv = 1.0 / {r00}",
                f"norm_r = sqrt({r00} * {r00})",
                "norm_rinv = sqrt(inv * inv)", *check]
    if len(rs) == 2:
        (r00, r01), (r10, r11) = rs
        return [f"det = {r00} * {r11} - {r01} * {r10}",
                "if det == 0.0:",
                "    raise SingularMatrixError('fundamental matrix is singular')",
                f"i00, i01 = {r11} / det, -{r01} / det",
                f"i10, i11 = -{r10} / det, {r00} / det",
                f"norm_r = sqrt({r00} * {r00} + {r01} * {r01}"
                f" + {r10} * {r10} + {r11} * {r11})",
                "norm_rinv = sqrt(i00 * i00 + i01 * i01 + i10 * i10 + i11 * i11)",
                *check]
    used.add("rows")
    return ["norm_r, norm_rinv = norms(rows)"]


# The members the slow evaluation calls, in the order of the arguments of
# the generated make: the bundle each comes from, the number of arguments
# of its calls and the prefix of the names of its written-in body.  No
# name of the evaluation starts with "_", and no prefix is another's start.
_SLOW_MEMBERS = (("fbar", "aux", 1, "_fb_"), ("dfbar", "aux", 1, "_dfb_"),
                 ("pbar", "aux", 1, "_pb_"), ("a_hat", "bounds", 4, "_ah_"),
                 ("b_hat", "bounds", 2, "_bh_"), ("c_hat", "bounds", 2, "_ch_"),
                 ("d_hat", "bounds", 2, "_dh_"), ("e_hat", "bounds", 2, "_eh_"),
                 ("a_grad", "bounds", 4, "_ag_"), ("b_grad", "bounds", 2, "_bg_"))
_PREFIXES = {name: prefix for name, _, _, prefix in _SLOW_MEMBERS}
# The members the partials of each form call: by gradients, by differences.
_PARTIALS = {True: ("a_grad", "b_grad"), False: ("a_hat", "b_hat")}


def _constant_pattern(name: str, d: int):
    """How the evaluation reads a member made by ``examples.constant``:
    dfbar and pbar as lists of the shape of one point (:func:`inline.read`),
    the majorants whole, and fbar and the gradients not at all (they are
    called)."""
    if name == "dfbar":
        return ((None,) * d,) * d
    if name == "pbar":
        return (None,) * d
    return None if name.endswith("_hat") else False


def _constant_names(prefix: str, pattern, index=()):
    """The names of make's arguments that hold a constant member's parts,
    nested as ``pattern`` is: the prefix and the indices of each part, or
    ``<prefix>value`` for the value itself."""
    if pattern is None:
        return prefix + ("_".join(map(str, index)) if index else "value")
    return [_constant_names(prefix, sub, (*index, k))
            for k, sub in enumerate(pattern)]


def _flat(parts) -> list:
    return [parts] if type(parts) is str else [x for p in parts
                                                 for x in _flat(p)]


def _constant_arguments(prefix: str, value, pattern):
    """make's arguments for a constant member of ``value`` read as
    ``pattern``, by :func:`_constant_names`, or None when its list is not
    of the pattern's shape (the member is then called, and fails as it
    does)."""
    if pattern is None:
        return {prefix + "value": value}
    out = {}

    def walk(part, sub, name):
        if sub is None:
            out[name] = part
            return True
        return (type(part) is list and len(part) == len(sub)
                and all(walk(x, s, n) for x, s, n in zip(part, sub, name)))
    return out if walk(value.tolist(), pattern,
                       _constant_names(prefix, pattern)) else None


class _Calls:
    """The member calls of one slow evaluation: each member called by its
    name, or written in (:mod:`~averbound.inline`) under its key in
    ``keys``, with the names of its body prefixed (``_SLOW_MEMBERS``).
    ``used`` collects the names the written lines read, so that the
    evaluation forms the lists ``j``, ``rows`` and ``kvec`` and the
    perturbed arguments of the differences only where they are read."""

    def __init__(self, keys):
        self.keys = keys
        self.used = set()

    def _call(self, name, args):
        wholes = [whole for _, whole in args]
        self.used.update(wholes)
        return f"{name}({', '.join(wholes)})"

    def value(self, name, args, bind, pattern=None):
        """Lines that evaluate ``name`` on ``args``, one ``(components,
        whole)`` pair per parameter, and the expressions of the parts of
        its value that ``pattern`` reads (:func:`inline.read`), bound to
        names that start with ``bind``."""
        key, prefix = self.keys.get(name), _PREFIXES[name]
        if key is None:
            lines, parts = inline.read(bind, pattern, bind)
            return [f"{bind} = {self._call(name, args)}", *lines], parts
        if key is inline.CONSTANT:
            return [], _constant_names(prefix, pattern)
        return inline.write(key, prefix, args, self.used, bind, pattern)

    def array(self, name, args, bind, pattern):
        """Lines that evaluate ``name`` on ``args`` and read the parts the
        tuple ``pattern`` unpacks of its value as a list, ``.tolist()``;
        their expressions; and the lines of the unpacking, which the caller
        places after the calls of the members that follow."""
        key, prefix = self.keys.get(name), _PREFIXES[name]
        if key is None:
            unpack, parts = inline.read(bind, pattern, bind)
            return [f"{bind} = {self._call(name, args)}.tolist()"], parts, unpack
        if key is inline.CONSTANT:
            return [], _constant_names(prefix, pattern), []
        return inline.write(key, prefix, args, self.used, bind, pattern,
                            array=True)

    def displays(self, name, n):
        """Whether ``name`` is written in and returns a display of n
        items."""
        key = self.keys.get(name)
        return (key is not None and key is not inline.CONSTANT
                and inline.items(inline.inline_form(*key[:2]).value, n)
                is not None)


def _partials_lines(d, analytic, state, djs, drs, dks, calls):
    """Lines that bind the offset partials ``dal_dr`` (d(offset)/dr) and
    ``dal_dtau`` (d(offset)/dtau) at (J, R, K, ``radius``), for the state
    floats named ``state`` and the slow-flow entries ``djs`` (dJ), ``drs``
    (dR, row by row) and ``dks`` (dK), with the member calls of ``calls``
    (:class:`_Calls`).

    With gradients (``analytic``): one ``a_grad`` and one ``b_grad`` call,
    and d(offset)/dtau = sum(dA/dJ dJ) + sum(dA/dR dR) + sum(dA/dK dK) +
    eps * sum(dB/dJ dJ), each sum from 0.0, left to right, R in row order:
    at d = 1 and d = 2 that is np.sum's order.  Every gradient entry is
    read by index, so a part too short raises ``IndexError``.

    Without: central differences with step ``_FD_STEP`` times max(1,
    |argument|), first of the offset a_hat + eps * b_hat in r, then, for
    each nonzero slow-flow entry in packed order, of the offset in that J
    entry or of a_hat in that R or K entry, weighted by the entry and
    summed from 0.0.  The perturbed arguments are list displays.
    """
    js, rs, ks, _, _ = _state_parts(d, state)
    on_j, on_rows, on_k, on_radius = ((js, "j"), ((), "rows"), (ks, "kvec"),
                                      ((), "radius"))
    if analytic:
        vec = [None] * d
        lines, (ga_j, ga_r, ga_k, ga_rad) = calls.value(
            "a_grad", [on_j, on_rows, on_k, on_radius], "ga",
            (vec, [vec] * d, vec, None))
        b_lines, (gb_j, gb_rad) = calls.value("b_grad", [on_j, on_radius],
                                              "gb", (vec, None))

        def contract(grad, entries):
            return f"({_dot(zip(grad, entries))})"
        sum_j, sum_r, sum_k, sum_b = (
            contract(ga_j, djs), contract(sum(ga_r, []), drs),
            contract(ga_k, dks), contract(gb_j, djs))
        return lines + b_lines + [
            f"dal_dr = float({ga_rad} + eps * {gb_rad})",
            f"dal_dtau = float({sum_j} + {sum_r} + {sum_k}",
            f"                 + eps * {sum_b})"]

    def offset(jarg, rarg, side):
        """The lines of a_hat + eps * b_hat at (J, R, K, r) with J and r
        the argument pairs ``jarg`` and ``rarg``, and its expression."""
        a_lines, a = calls.value("a_hat", [jarg, on_rows, on_k, rarg],
                                 f"ah_{side}")
        b_lines, b = calls.value("b_hat", [jarg, rarg], f"bh_{side}")
        return a_lines + b_lines, f"float({a} + eps * {b})"

    def central(x, perturbed, value, step=None):
        """The central difference of ``value(pair)`` in the float ``x``,
        where ``perturbed(arg)`` is the argument pair with ``arg`` in place
        of x and its list display, or None: bound to ``dal_dr``, or, for a
        nonzero ``step``, weighted by it and added to ``dal_dtau``.  The
        value above is bound before the one below is evaluated."""
        lines = [f"ax = abs({x})",
                 # max(1.0, ax), NaN included: max keeps 1.0 unless ax > 1.0
                 f"fd = {_FD_STEP!r} * (ax if ax > 1.0 else 1.0)",
                 f"up = {x} + fd",
                 f"down = {x} - fd"]
        ends = []
        for side in ("up", "down"):
            pair, display = perturbed(side)
            calls.used.discard(pair[1])
            side_lines, expr = value(pair, side)
            if display is not None and pair[1] in calls.used:
                side_lines = [f"{pair[1]} = {display}", *side_lines]
            ends.append((side_lines, expr))
        (up_lines, upper), (down_lines, lower) = ends
        lines += [*up_lines, f"upper = {upper}", *down_lines]
        quotient = f"(upper - {lower}) / (2 * fd)"
        if step is None:
            return lines + [f"dal_dr = {quotient}"]
        return [f"if {step} != 0.0:", *("    " + line for line in lines),
                f"    dal_dtau += {step} * {quotient}"]

    def swap(names, i, arg):
        return [arg if c == i else name for c, name in enumerate(names)]

    flat_rs = [x for row in rs for x in row]

    lines = central("radius", lambda side: (((), side), None),
                    lambda pair, side: offset(on_j, pair, side))
    lines.append("dal_dtau = 0.0")
    for i, (x, step) in enumerate(zip(js, djs)):
        lines += central(
            x, lambda side: ((swap(js, i, side), f"{side}_j"),
                             _seq(swap(js, i, side))),
            lambda pair, side: offset(pair, on_radius, side), step)
    for i, (x, step) in enumerate(zip(flat_rs, drs)):
        def rows_swap(side):
            flat = swap(flat_rs, i, side)
            return (((), f"{side}_rows"),
                    _rows_of(flat[a * d:(a + 1) * d] for a in range(d)))
        lines += central(x, rows_swap, lambda pair, side: calls.value(
            "a_hat", [on_j, pair, on_k, on_radius], f"ah_{side}"), step)
    for i, (x, step) in enumerate(zip(ks, dks)):
        lines += central(
            x, lambda side: ((swap(ks, i, side), f"{side}_k"),
                             _seq(swap(ks, i, side))),
            lambda pair, side: calls.value(
                "a_hat", [on_j, on_rows, pair, on_radius], f"ah_{side}"), step)
    return lines + ["dal_dtau = float(dal_dtau)"]


def _slow_evaluation(d, analytic, keys, state=None, record="y"):
    """Lines of one evaluation of the slow right-hand side for d actions,
    and the expressions of its values in packed order: the blocks of
    :func:`_slow_rhs_lines`, :func:`_norm_lines` and
    :func:`_partials_lines` and the bound equation.

    ``keys`` holds, by member name, the key of each member written in
    (:class:`_Calls`); the others are called.  The members are evaluated in
    the order of the calls: dfbar, fbar, pbar, c_hat, d_hat, e_hat and the
    partials' members, each value bound before the arithmetic that follows
    its call in the statement.  An fbar that returns a display of d items
    binds one name per item; any other fbar's value is checked for its
    length and unpacked, as dfbar's and pbar's lists are after pbar's call.
    ``state`` names the state's floats, as in :func:`_slow_rhs_lines`.
    After the partials the evaluation records the state list named
    ``record`` and its d(offset)/dr in ``latest``; with ``record`` None it
    records nothing.
    """
    names = _state_names(d) if state is None else state
    js, rs, _, m, n = _state_parts(d, names)
    size = len(names)
    calls = _Calls(keys)
    on_j, on_radius = (js, "j"), ((), "radius")
    lines, amat, amat_unpack = calls.array("dfbar", [on_j], "amat",
                                           ((None,) * d,) * d)
    if calls.displays("fbar", d):
        fb_lines, djs = calls.value("fbar", [on_j], "dj", [None] * d)
        lines += fb_lines
    else:
        fb_lines, dj = calls.value("fbar", [on_j], "dj")
        djs = [f"dj{a}" for a in range(d)]
        lines += fb_lines + [
            # An fbar of another length would make the packed derivative as
            # much shorter or longer: the message is the integrator's for that.
            f"if len({dj}) != {d}:",
            f"    raise ValueError(f'rhs must return shape ({size},), "
            f"got ({{len({dj}) + {size - d}}},)')",
            f"{_seq(djs)} = {dj}"]
    pb_lines, pb, pb_unpack = calls.array("pbar", [on_j], "pb", (None,) * d)
    lines += pb_lines + amat_unpack + pb_unpack
    products, entries = _slow_rhs_lines(d, names, amat, pb)
    growth = [calls.value(name, [on_j, on_radius], bind)
              for name, bind in (("c_hat", "ch"), ("d_hat", "dh"),
                                 ("e_hat", "eh"))]
    (c_lines, ch), (d_lines, dh), (e_lines, eh) = growth
    lines += products + _norm_lines(rs, calls.used) + [
        f"radius = eps * {n}",
        *c_lines, *d_lines,
        f"gam = {ch} + {dh} * {n}",
        *e_lines,
        f"gam = float(gam + 0.5 * {eh} * {n} * {n})",
        "dm = norm_rinv * gam",
    ] + _partials_lines(d, analytic, names, djs, entries[:d * d],
                        entries[d * d:], calls)
    if record is not None:
        lines += [f"latest[0] = {record}", "latest[1] = dal_dr"]
    lines += [
        "denom = 1.0 - eps * dal_dr",
        "num = (dal_dtau + eps * norm_r * norm_rinv * gam",
        f"       + eps * r_dot_dr / norm_r * {m})",
        # denom is +0.0 when eps * d(offset)/dr is exactly 1, and num * inf
        # is then what numpy's num / 0.0 gives (+-inf, or NaN for a zero or
        # NaN num), without Python's ZeroDivisionError.
        "dn = num / denom if denom else num * inf",
    ]
    return (_split_lines(d, state, calls.used) + lines,
            [*djs, *entries, "dm", "dn"])


# The arguments of the generated slow ``make`` before those of the
# written-in members, in order.
_SLOW_PARAMS = ("eps", "fbar", "dfbar", "pbar", "a_hat", "b_hat", "c_hat",
                "d_hat", "e_hat", "a_grad", "b_grad", "latest", "rtol", "atol")


def _slow_outside(d: int, keys: dict) -> list:
    """The names of make's arguments that the written-in members read:
    the names their bodies read from outside (:func:`inline.outside`), and
    the parts of the constant members (:func:`_constant_names`)."""
    names = []
    for name, _, _, prefix in _SLOW_MEMBERS:
        key = keys.get(name)
        if key is inline.CONSTANT:
            names += _flat(_constant_names(prefix, _constant_pattern(name, d)))
        elif key is not None:
            names += inline.outside(key, prefix)
    return names


def _slow_rhs_source(d: int, analytic: bool, members: tuple) -> str:
    """Source of ``make(eps, fbar, dfbar, pbar, a_hat, b_hat, c_hat, d_hat,
    e_hat, a_grad, b_grad, latest, rtol, atol, **outside)``, which returns
    the slow right-hand side for d actions as straight-line code, with its
    offset partials by gradients (``analytic``) or by central differences,
    and at d = 1 a run kernel: ``rhs, (run, stage_calls)``, as
    :func:`ode._integrate` takes them, or ``rhs, None`` from d = 2 on.

    ``members`` holds, for the members of ``_SLOW_MEMBERS`` in that order,
    the key of each member written in (:func:`inline.written_in`), or None
    for a member the code calls.  A
    written-in member's names take its prefix, and those it reads from
    outside, and the parts of a constant member, are the arguments
    ``outside`` (:func:`_slow_outside`), so the source depends on the
    members' code alone.

    The right-hand side is one evaluation of :func:`_slow_evaluation`; it
    records the state it was handed and its d(offset)/dr in ``latest``.
    At d = 1 the run is the generated float run of :mod:`~averbound.ode`,
    the whole step loop in one function (:func:`ode._float_run_source`),
    with that evaluation written into each stage
    (:func:`ode._inline_stage`): the same operations on the same floats as
    a stage that calls ``rhs``, so it takes the same steps bit for bit.
    Its last stage alone records in ``latest``: the new state is the only
    stage state the stop predicate is handed, and the run calls the
    predicate at each accepted node with that very list.
    """
    keys = dict(zip((name for name, *_ in _SLOW_MEMBERS), members))
    params = (*_SLOW_PARAMS, *_slow_outside(d, keys))
    lines, values = _slow_evaluation(d, analytic, keys)
    size = len(values)
    source = [f"def make({', '.join(params)}):",
              "    def rhs(tau, y):",
              *("        " + line for line in lines),
              f"        return {_seq(values)}"]
    if d > 1:
        return "\n".join(source + ["    return rhs, None", ""])

    stage = ode._inline_stage(size, lambda time, state, last: _slow_evaluation(
        d, analytic, keys, state, "ys" if last else None))
    run = ode._float_run_source(ode._STAGES, ode._E, size, stage,
                                reads=(*params, "calls"), cells=("calls",))
    return "\n".join(source + ["    calls = 0", textwrap.indent(run, "    "),
                               "    return rhs, (run, lambda: calls)", ""])


@functools.lru_cache(maxsize=None)
def _compile_slow_rhs(d: int, analytic: bool, members: tuple):
    form = "gradients" if analytic else "differences"
    return _compile_factory(_slow_rhs_source(d, analytic, members),
                            f"<slow rhs, d = {d}, {form}>", norms=_inverse_norms,
                            sqrt=math.sqrt, SingularMatrixError=SingularMatrixError)


def _slow_members(d: int, aux: AuxiliaryBundle, bounds: BoundBundle,
                  analytic: bool):
    """The keys of the slow members the generated code writes in, in the
    order of ``_SLOW_MEMBERS`` (None for a member it calls), and make's
    arguments that they read.  A member the form of the partials does not
    call is None, and so is a constant member that the evaluation does not
    read as a constant or whose value is not of the shape it reads."""
    bundles = {"aux": aux, "bounds": bounds}
    unused = _PARTIALS[not analytic]
    keys, arguments = [], {}
    for name, bundle, nargs, prefix in _SLOW_MEMBERS:
        member = (None if name in unused
                  else inline.written_in(getattr(bundles[bundle], name), nargs))
        if member is not None and member.key is inline.CONSTANT:
            pattern = _constant_pattern(name, d)
            parts = (None if pattern is False else
                     _constant_arguments(prefix, member.values, pattern))
            member = None if parts is None else member
            arguments.update(parts or {})
        elif member is not None:
            arguments.update(inline.arguments(member, prefix))
        keys.append(None if member is None else member.key)
    return tuple(keys), arguments


def _slow_functions(spec: SystemSpec, aux: AuxiliaryBundle, bounds: BoundBundle,
                    rtol: float, atol: float):
    """The right-hand side, run kernel and stop predicate of the slow
    solve, ``(rhs, kernel, stop)``, as :func:`ode._integrate` takes them.

    ``rhs`` is the right side of the packed slow system [J, R, K, m, n], on
    lists of Python floats: it takes the state as a list and returns a new
    one.  It implements dJ = fbar(J), dR = dfbar(J) R, dK = dfbar(J) K +
    pbar(J), dm = |R^-1| * growth, and the bound equation

        dn = (d(offset)/dtau + eps |R||R^-1| growth + eps (R . dR)/|R| m)
             / (1 - eps * d(offset)/dr)

    with growth evaluated at (J, eps*n, n) and the offset partials taken at
    (J, R, K, eps*n): by one call each of the bundle's ``a_grad`` and
    ``b_grad`` when it has them, and otherwise by central differences with
    step ``_FD_STEP`` times the argument scale.  J, K and the rows of R
    reach the bundles as lists.

    The code is generated once per d, per form of the partials and per
    code of the members it writes in (:func:`_compile_slow_rhs`,
    :func:`_slow_members`), with every operation of an evaluation written
    out: the state is split at offsets fixed there; the products dfbar R,
    dfbar K + pbar and R . dR are each summed on floats from 0.0, left to
    right; the growth kernel, the norms of R and R^-1 (up to d = 2) and
    the partials are inline too.  Each of fbar, dfbar, pbar and the
    majorants and gradients the evaluation calls is written in as the
    direct run writes its members (:mod:`~averbound.inline`) where it can
    be, bit for bit the evaluation that calls it; the values the members
    read from outside are arguments, so kappa = +1 and -1 share one
    compile, as do all euler-top parameter sets.  That is numpy's result
    bit for bit wherever each sum has at most one nonzero term, as with a
    diagonal dfbar, and at d = 1.  For a full dfbar at d >= 2, numpy's
    ``@`` runs through BLAS, whose fused multiply-adds can round the last
    bit differently.

    At d = 1 ``kernel`` is the float run with the same evaluation written
    into each stage.  From d = 2 on it is ``ode._array_kernel`` on ``rhs``,
    the same loop around a step that sums the stages with numpy: the last
    bits of the d = 2 solve decide the exit code of euler-top runs next to
    the pole of the bound ODE (ROADMAP items 2 and 5).  Either steps at
    ``rtol`` and ``atol``.
    ``stop`` reads ``latest``, the record [state, d(offset)/dr] of the
    latest evaluation that ``rhs`` and the fused run write
    (:func:`_make_stop_predicate`).
    """
    d = spec.d
    analytic = bounds.a_grad is not None
    members, arguments = _slow_members(d, aux, bounds, analytic)
    make = _compile_slow_rhs(d, analytic, members)
    latest = [None, None]
    rhs, kernel = make(spec.epsilon, aux.fbar, aux.dfbar, aux.pbar,
                       bounds.a_hat, bounds.b_hat, bounds.c_hat, bounds.d_hat,
                       bounds.e_hat, bounds.a_grad, bounds.b_grad, latest,
                       rtol, atol, **arguments)
    if kernel is None:
        kernel = ode._array_kernel(rhs, d * d + 2 * d + 2, rtol, atol)
    return rhs, kernel, _make_stop_predicate(spec, bounds, latest)


def _frozen(view: np.ndarray) -> np.ndarray:
    view = view.view()
    view.flags.writeable = False
    return view


def _state_view(part: int, shape: str) -> property:
    return property(lambda self: _frozen(unpack_state(self.traj.states, self.d)[part]),
                    doc=f"Read-only view {shape} of ``traj.states``.")


@dataclass
class EstimatorTrajectory:
    """Slow-time grid of the estimator run.

    The grid is the integrator's accepted steps; ``traj.sample_many`` gives
    dense output in between, unpacked by :func:`unpack_state`.  ``n`` is the
    certified bound: on a completed run, |I(t) - J(eps*t)| <= eps * n(eps*t)
    holds for t in [0, U/eps).
    ``tau``, ``j``, ``r``, ``k``, ``m`` and ``n`` are read-only views of
    ``traj``, which holds the only copy of the grid.
    """

    d: int
    eps: float
    ell0: float
    status: EstimatorStatus
    violation_kind: Optional[ViolationKind]
    window: ContractionWindow
    window_mode: str           # "auto" or "explicit"
    wall_time_s: float
    traj: ode.Trajectory

    tau = property(lambda self: _frozen(self.traj.times),
                   doc="Read-only view (ngrid,) of ``traj.times``.")
    j = _state_view(0, "(ngrid, d)")
    r = _state_view(1, "(ngrid, d, d)")
    k = _state_view(2, "(ngrid, d)")
    m = _state_view(3, "(ngrid,)")
    n = _state_view(4, "(ngrid,)")

    @property
    def tau_final(self) -> float:
        return float(self.tau[-1])

    def report_grid(self) -> np.ndarray:
        """Rows [tau, J, R, K, m, n] at ``REPORT_GRID_POINTS`` uniform slow times."""
        taus = np.linspace(self.tau[0], self.tau[-1], REPORT_GRID_POINTS)
        return np.column_stack([taus, self.traj.sample_many(taus)])


def _make_stop_predicate(spec, bounds, latest):
    """The stop predicate of the slow solve, on a state given as a list of
    floats: the first failed validity condition, as a
    :class:`ViolationKind`, or None.

    ``latest`` is the record [state, d(offset)/dr] that the slow
    right-hand side writes at each evaluation.  d(offset)/dr is taken from
    it when the latest evaluation was handed this very list, as
    :func:`ode.integrate` hands both one list per state: at the initial
    state that is the initial call, and at an accepted state the last
    (FSAL) stage of the step.  Elsewhere, as at the bisection points of the
    stop localisation, for an equal copy of the list or with a record that
    holds nothing yet, the predicate evaluates it itself.
    """
    eps = spec.epsilon
    d = spec.d
    r0, k0 = _offsets(d)

    def violation(tau, y):
        n = y[-1]
        if n <= 0.0:
            return ViolationKind.N_NONPOSITIVE
        j = y[:r0]
        if not n < bounds.rho_hat(j) / eps:
            return ViolationKind.N_EXCEEDS_RHO_OVER_EPS
        if y is latest[0]:
            dal = latest[1]
        else:
            rows = [y[i:i + d] for i in range(r0, k0, d)]
            dal = _dalpha_dr(bounds, j, rows, y[k0:k0 + d], eps * n, eps)
        if not dal < 1.0 / eps:
            return ViolationKind.DALPHA_DR_EXCEEDS_INV_EPS
        return None

    return violation


def _check_theta0(spec: SystemSpec, aux: AuxiliaryBundle) -> None:
    """Refuse an initial angle at which v or w does not vanish: the
    integral identity behind the bound holds only where both do."""
    for name, fn in (("v", aux.v), ("w", aux.w)):
        value = float(np.max(np.abs(fn(spec.i0, spec.theta0))))
        if not value <= IDENTITY_TOL:
            raise ValueError(
                f"theta0 = {spec.theta0:g} is not certified: the identity "
                f"{name}(I0, theta0) = 0 fails with |{name}| = {value:.3g} > "
                f"{IDENTITY_TOL:g}")


def run_estimator(spec: SystemSpec, aux: AuxiliaryBundle, bounds: BoundBundle,
                  u: float, window: Optional[ContractionWindow] = None,
                  rtol: float = ode.DEFAULT_RTOL,
                  atol: float = ode.DEFAULT_ATOL) -> EstimatorTrajectory:
    """Run the full slow-time estimator on [0, u].

    Computes the fixed point ell0, integrates the coupled system from
    (I0, identity, 0, 0, ell0), and monitors the validity conditions; an
    early stop is reported as ``domain_violation`` with the failed condition.
    Raises ``ValueError`` for initial data the bundle does not certify:
    where ``aux.v`` or ``aux.w`` does not vanish at (I0, theta0) to within
    ``IDENTITY_TOL``.
    """
    if not u > 0.0:
        raise ValueError("U must be positive")
    _check_theta0(spec, aux)
    t_start = time.perf_counter()
    if window is None:
        # auto_window has verified its window on the sampled levels.
        window = auto_window(spec, bounds)
        window_mode = "auto"
        ell0 = _iterate_fixed_point(spec, bounds, window)
    else:
        window_mode = "explicit"
        ell0 = find_fixed_point(spec, bounds, window)

    d = spec.d
    y0 = pack_state(spec.i0, np.eye(d), np.zeros(d), 0.0, ell0)
    rhs, kernel, stop = _slow_functions(spec, aux, bounds, rtol, atol)
    problem = ode.IvpProblem(rhs=rhs, t0=0.0, y0=y0, t_end=u)
    traj = ode._integrate(problem, rtol, atol, stop, None, kernel)

    if traj.status is ode.Status.COMPLETED:
        status, kind = EstimatorStatus.COMPLETED, None
    elif traj.status is ode.Status.STOPPED:
        status, kind = EstimatorStatus.DOMAIN_VIOLATION, traj.stop_reason
    else:
        status, kind = EstimatorStatus.STEP_FAILURE, None

    return EstimatorTrajectory(
        d=d,
        eps=spec.epsilon,
        ell0=ell0,
        status=status,
        violation_kind=kind,
        window=window,
        window_mode=window_mode,
        wall_time_s=time.perf_counter() - t_start,
        traj=traj,
    )


def run_averaged(spec: SystemSpec, aux: AuxiliaryBundle, u: float,
                 rtol: float = ode.DEFAULT_RTOL / AVERAGED_TIGHTENING,
                 atol: float = ode.DEFAULT_ATOL / AVERAGED_TIGHTENING) -> ode.Trajectory:
    """Integrate the averaged actions dJ/dtau = fbar(J) alone on [0, u],
    handing ``aux.fbar`` and ``spec.in_domain`` the actions as a list."""
    fbar, in_domain = aux.fbar, spec.in_domain
    problem = ode.IvpProblem(
        rhs=lambda tau, j: fbar(j),
        t0=0.0,
        y0=spec.i0,
        t_end=u,
    )
    stop = lambda tau, j: not in_domain(j)
    return ode.integrate(problem, rtol=rtol, atol=atol, stop=stop)
