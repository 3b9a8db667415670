"""Certified error estimator for the averaging approximation.

Solves, in the slow time tau = eps*t, the coupled system for

* the averaged actions J (dJ/dtau = fbar(J)),
* the fundamental matrix R of the linearized averaged flow,
* its inhomogeneous companion K driven by pbar,
* the accumulated growth integral m,
* the certified bound n, with n(0) = ell0 the fixed point of the
  self-consistent level map ell -> a_hat + eps * b_hat at (I0, identity,
  0, eps*ell).

A successful run certifies |I(t) - J(eps*t)| <= eps * n(eps*t) for
t in [0, U/eps); the run stops early (status ``domain_violation``) as soon
as one of the validity conditions

    0 < n < rho_hat(J)/eps,      d(offset)/dr (eps*n) < 1/eps

fails along the way.

The slow right-hand side and stop predicate are straight-line code
generated per d, form of the offset partials (gradients or central
differences) and member code (:func:`_slow_rhs_source`); at d = 1 both are
written into the Dormand-Prince run itself.  The window and the fixed point
take the offset and d(offset)/dr from code of the same builders
(:func:`_window_source`).  Each member is evaluated by the rule the direct
run shares (:mod:`~averbound.inline`, table :data:`~averbound.inline.SLOW`):
written in where it is a plain ``def`` of assignments and one ``return``,
bound once per run where made by ``examples.constant``, else called.
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
                    frobenius)

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

    The map ell -> offset(0, eps*ell), a_hat + eps * b_hat at (I0, identity,
    0, eps*ell), must send ``[ell_star - sigma, ell_star + sigma]`` into
    itself with Lipschitz constant eps*slope_bound < 1.
    """

    ell_star: float
    sigma: float
    slope_bound: float

    def interval(self):
        return self.ell_star - self.sigma, self.ell_star + self.sigma


def _sampled_slope(spec: SystemSpec, slope, lo: float, hi: float) -> float:
    """Largest |d(offset)/dr| by the window's ``slope`` at radius eps*ell
    over ``_WINDOW_SAMPLES`` levels ell evenly spaced in [lo, hi]; NaN at
    the first NaN sample, which Python's ``max`` would drop."""
    eps = spec.epsilon
    worst = 0.0
    for ell in np.linspace(lo, hi, _WINDOW_SAMPLES):
        value = abs(slope(eps * ell))
        if math.isnan(value):
            return value
        worst = max(worst, value)
    return worst


def verify_window(spec: SystemSpec, bounds: BoundBundle, window: ContractionWindow,
                  worst: Optional[float] = None) -> None:
    """Check the contraction preconditions by sampling.

    Raise :class:`ContractionError` unless ``window`` lies in the tube, has
    slope bound below 1/eps, bounds the sampled slope ``worst`` (sampled
    here when not given) and maps into itself."""
    eps = spec.epsilon
    offset, slope = _window_functions(spec, bounds)
    lo, hi = window.interval()
    rho0 = bounds.rho_hat(spec.i0)
    if not (0.0 < lo and hi < rho0 / eps):
        raise ContractionError(
            f"window [{lo}, {hi}] not inside (0, rho(0)/eps={rho0 / eps})")
    if not window.slope_bound < 1.0 / eps:
        raise ContractionError("slope bound must stay below 1/eps")
    if worst is None:
        worst = _sampled_slope(spec, slope, lo, hi)
    if not worst <= window.slope_bound + 1e-12:     # a NaN slope fails
        raise ContractionError(
            f"sampled level-map slope {worst} exceeds supplied bound "
            f"{window.slope_bound}")
    a_star = offset(eps * window.ell_star)
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
    offset, slope = _window_functions(spec, bounds)
    ell_star = offset(0.0)
    if not ell_star > 0.0:
        raise WindowError("offset bound at radius 0 must be positive")
    sigma = 0.5 * ell_star
    lo, hi = ell_star - sigma, ell_star + sigma
    if not hi < bounds.rho_hat(spec.i0) / eps:
        raise WindowError("proposed window exceeds the tube radius")
    worst = _sampled_slope(spec, slope, lo, hi)
    window = ContractionWindow(ell_star=ell_star, sigma=sigma,
                               slope_bound=worst * (1.0 + 1e-9) + 1e-15)
    try:
        verify_window(spec, bounds, window, worst)
    except ContractionError as exc:
        raise WindowError(f"auto window construction failed: {exc}") from exc
    return window


def find_fixed_point(spec: SystemSpec, bounds: BoundBundle,
                     window: ContractionWindow, tol: float = 1e-12) -> float:
    """Initial bound level: the fixed point of ell -> offset(0, eps*ell).

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
    offset, _ = _window_functions(spec, bounds)
    eps_m = eps * window.slope_bound

    ell = window.ell_star
    first_gap = None
    for it in range(1, _FIXED_POINT_MAX_ITER + 1):
        nxt = offset(eps * ell)
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


_ON_ROWS, _ON_RADIUS = ((), "rows"), ((), "radius")


def _offset_lines(calls, on_j, on_k, rarg, side):
    """The lines of the offset a_hat + eps * b_hat at (J, R, K, r), J, K
    and r the argument pairs ``on_j``, ``on_k`` and ``rarg`` and R the list
    ``rows``, into names that end in ``side``; and its expression."""
    a_lines, a = calls.value("a_hat", [on_j, _ON_ROWS, on_k, rarg],
                             f"ah_{side}")
    b_lines, b = calls.value("b_hat", [on_j, rarg], f"bh_{side}")
    return a_lines + b_lines, f"float({a} + eps * {b})"


def _central_lines(calls, x, perturbed, value, step=None):
    """The central difference of ``value(pair, side)`` (lines and an
    expression) in the float ``x``, step ``_FD_STEP`` * max(1, |x|),
    ``perturbed(side)`` giving the pair with ``side`` for x and its list
    display, or None.  Bound to ``dal_dr``, or for a nonzero ``step``
    added to ``dal_dtau`` times it; the upper value is bound first."""
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


def _slope_lines(d, analytic, state, calls):
    """Lines that bind ``dal_dr``, d(offset)/dr at (J, R, K, ``radius``)
    for the state floats named ``state``, by the calls of ``calls``
    (:class:`inline.Calls`): the r-parts of one ``a_grad`` and one
    ``b_grad`` value (``analytic``), or the central difference of the
    offset in r.  Also the parts (dA/dJ, dA/dR, dA/dK, dB/dJ) of the
    gradients' values, or None."""
    js, _, ks, _, _ = _state_parts(d, state)
    on_j, on_k = (js, "j"), (ks, "kvec")
    if not analytic:
        return _central_lines(
            calls, "radius", lambda side: (((), side), None),
            lambda pair, side: _offset_lines(calls, on_j, on_k, pair,
                                             side)), None
    lines, (ga_j, ga_r, ga_k, ga_rad) = calls.value(
        "a_grad", [on_j, _ON_ROWS, on_k, _ON_RADIUS], "ga")
    b_lines, (gb_j, gb_rad) = calls.value("b_grad", [on_j, _ON_RADIUS], "gb")
    return (lines + b_lines + [f"dal_dr = float({ga_rad} + eps * {gb_rad})"],
            (ga_j, ga_r, ga_k, gb_j))


def _partials_lines(d, analytic, state, djs, drs, dks, calls):
    """Lines that bind ``dal_dr`` (:func:`_slope_lines`) and ``dal_dtau``,
    d(offset)/dtau at (J, R, K, ``radius``), for the state floats named
    ``state``, the slow-flow entries ``djs`` (dJ), ``drs`` (dR, row by
    row) and ``dks`` (dK), and the calls of ``calls``.

    With gradients (``analytic``): sum(dA/dJ dJ) + sum(dA/dR dR) +
    sum(dA/dK dK) + eps * sum(dB/dJ dJ), each sum from 0.0, left to right,
    R in row order (np.sum's order at d = 1 and 2); every entry is read by
    index, so a part too short raises ``IndexError``.  Without: for each
    nonzero slow-flow entry in packed order, the central difference of the
    offset in that J entry or of a_hat in that R or K entry, on list
    displays, weighted by the entry and summed from 0.0."""
    lines, grads = _slope_lines(d, analytic, state, calls)
    if analytic:
        ga_j, ga_r, ga_k, gb_j = grads

        def contract(grad, entries):
            return f"({_dot(zip(grad, entries))})"
        sum_j, sum_r, sum_k, sum_b = (
            contract(ga_j, djs), contract(sum(ga_r, []), drs),
            contract(ga_k, dks), contract(gb_j, djs))
        return lines + [f"dal_dtau = float({sum_j} + {sum_r} + {sum_k}",
                        f"                 + eps * {sum_b})"]

    def swap(names, i, arg):
        return [arg if c == i else name for c, name in enumerate(names)]

    js, rs, ks, _, _ = _state_parts(d, state)
    on_j, on_k = (js, "j"), (ks, "kvec")
    flat_rs = [x for row in rs for x in row]
    lines.append("dal_dtau = 0.0")
    for i, (x, step) in enumerate(zip(js, djs)):
        lines += _central_lines(
            calls, x, lambda side: ((swap(js, i, side), f"{side}_j"),
                                    _seq(swap(js, i, side))),
            lambda pair, side: _offset_lines(calls, pair, on_k, _ON_RADIUS,
                                             side), step)
    for i, (x, step) in enumerate(zip(flat_rs, drs)):
        def rows_swap(side):
            flat = swap(flat_rs, i, side)
            return (((), f"{side}_rows"),
                    _rows_of(flat[a * d:(a + 1) * d] for a in range(d)))
        lines += _central_lines(calls, x, rows_swap, lambda pair, side: calls.value(
            "a_hat", [on_j, pair, on_k, _ON_RADIUS], f"ah_{side}"), step)
    for i, (x, step) in enumerate(zip(ks, dks)):
        lines += _central_lines(
            calls, x, lambda side: ((swap(ks, i, side), f"{side}_k"),
                                    _seq(swap(ks, i, side))),
            lambda pair, side: calls.value(
                "a_hat", [on_j, _ON_ROWS, pair, _ON_RADIUS], f"ah_{side}"),
            step)
    return lines + ["dal_dtau = float(dal_dtau)"]


def _stop_lines(d, analytic, keys, state=None):
    """Lines that bind ``reason`` to the first validity condition that
    fails, a :class:`ViolationKind`, or None: 0 < n, n < rho_hat(J)/eps,
    d(offset)/dr < 1/eps, each tested where those before hold.  With
    ``state`` None they test the list ``y``, taking d(offset)/dr from the
    cell ``seen_dal_dr`` when ``y`` is ``seen``, else by
    :func:`_slope_lines`; else the node floats ``state`` names, whose
    last stage has bound ``dal_dr``."""
    names = _state_names(d) if state is None else state
    js, _, _, _, n = _state_parts(d, names)
    calls = inline.Calls(inline.SLOW, keys, d)
    slope = []
    if state is None:
        lines, _ = _slope_lines(d, analytic, names, calls)
        slope = ["if y is not seen:", f"    radius = eps * {n}",
                 *("    " + line for line in lines),
                 "else:", "    dal_dr = seen_dal_dr"]
    rho_lines, rho = calls.value("rho_hat", [(js, "j")], "rho")
    return _split_lines(d, state, calls.used) + [
        "reason = None",
        f"if {n} <= 0.0:",
        "    reason = ViolationKind.N_NONPOSITIVE",
        "else:",
        *("    " + line for line in rho_lines),
        f"    if not {n} < {rho} / eps:",
        "        reason = ViolationKind.N_EXCEEDS_RHO_OVER_EPS",
        "    else:",
        *("        " + line for line in slope),
        "        if not dal_dr < 1.0 / eps:",
        "            reason = ViolationKind.DALPHA_DR_EXCEEDS_INV_EPS"]


def _slow_evaluation(d, analytic, keys, state=None):
    """Lines of one evaluation of the slow right-hand side for d actions,
    and the expressions of its values in packed order: the blocks of
    :func:`_slow_rhs_lines`, :func:`_norm_lines` and
    :func:`_partials_lines` and the bound equation, for the state floats
    named ``state`` (split from ``y`` when None) and the member keys
    ``keys``.  The members run in the order dfbar, fbar, pbar, c_hat,
    d_hat, e_hat and the partials', each value bound before the arithmetic
    after its call.  An fbar whose items are bound one by one (a
    constant's parts, a written-in display of d items) gives one name per
    item; any other is checked for its length and unpacked."""
    names = _state_names(d) if state is None else state
    js, rs, _, m, n = _state_parts(d, names)
    size = len(names)
    calls = inline.Calls(inline.SLOW, keys, d)
    on_j = (js, "j")
    lines, amat, amat_unpack = calls.value("dfbar", [on_j], "amat")
    if calls.by_items("fbar", d):
        fb_lines, djs = calls.value("fbar", [on_j], "dj")
        lines += fb_lines
    else:
        fb_lines, dj = calls.value("fbar", [on_j], "dj", whole=True)
        djs = [f"dj{a}" for a in range(d)]
        lines += fb_lines + [
            # An fbar of another length would make the packed derivative as
            # much shorter or longer: the message is the integrator's for that.
            f"if len({dj}) != {d}:",
            f"    raise ValueError(f'rhs must return shape ({size},), "
            f"got ({{len({dj}) + {size - d}}},)')",
            f"{_seq(djs)} = {dj}"]
    pb_lines, pb, pb_unpack = calls.value("pbar", [on_j], "pb")
    lines += pb_lines + amat_unpack + pb_unpack
    products, entries = _slow_rhs_lines(d, names, amat, pb)
    growth = [calls.value(name, [on_j, _ON_RADIUS], bind)
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
                        entries[d * d:], calls) + [
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


def _slow_rhs_source(d: int, analytic: bool, keys: tuple) -> str:
    """Source of ``make(eps, fbar, dfbar, pbar, a_hat, b_hat, c_hat, d_hat,
    e_hat, a_grad, b_grad, rho_hat, rtol, atol, **outside)``, which returns
    the slow right-hand side, stop predicate and run kernel for d actions,
    the offset partials by gradients (``analytic``) or differences: ``rhs,
    stop, (run, stage_calls)`` at d = 1, ``rhs, stop, None`` from d = 2 on.
    ``keys`` are the members' keys (:func:`inline.members`), ``outside``
    what written-in members read (:func:`inline.outside`).

    ``rhs`` (:func:`_slow_evaluation`) keeps the list it was handed and its
    d(offset)/dr in the cells ``seen`` and ``seen_dal_dr``, which ``stop``
    (:func:`_stop_lines`) reads at the initial state and at each node of
    ``ode._array_kernel``.  The d = 1 run is the float run
    (:func:`ode._float_run_source`) with the evaluation written into each
    stage and the stop test into each node: bit for bit a run that calls
    ``rhs`` and ``stop``."""
    params = ("eps", *(slot.call for slot in inline.SLOW), "rtol", "atol",
              *inline.outside(inline.SLOW, keys, d))
    lines, values = _slow_evaluation(d, analytic, keys)
    source = [f"def make({', '.join(params)}):",
              "    seen = seen_dal_dr = None",
              "    def rhs(tau, y):",
              "        nonlocal seen, seen_dal_dr",
              *("        " + line for line in lines),
              "        seen, seen_dal_dr = y, dal_dr",
              f"        return {_seq(values)}",
              "    def stop(tau, y):",
              *("        " + line for line in _stop_lines(d, analytic, keys)),
              "        return reason"]
    if d > 1:
        return "\n".join(source + ["    return rhs, stop, None", ""])

    size = len(values)
    stage = ode._inline_stage(size, lambda time, state: _slow_evaluation(
        d, analytic, keys, state))
    test = _stop_lines(d, analytic, keys, [f"z{i}" for i in range(size)])
    run = ode._float_run_source(ode._STAGES, ode._E, size, stage, test,
                                (*params, "calls"), ("calls",))
    return "\n".join(source + ["    calls = 0", textwrap.indent(run, "    "),
                               "    return rhs, stop, (run, lambda: calls)", ""])


@functools.lru_cache(maxsize=None)
def _compile_slow_rhs(d: int, analytic: bool, keys: tuple):
    form = "gradients" if analytic else "differences"
    return _compile_factory(_slow_rhs_source(d, analytic, keys),
                            f"<slow rhs, d = {d}, {form}>", norms=_inverse_norms,
                            sqrt=math.sqrt, SingularMatrixError=SingularMatrixError,
                            ViolationKind=ViolationKind)


def _window_source(d: int, analytic: bool, keys: tuple) -> str:
    """Source of ``make(eps, j, rows, kvec, fbar, ..., rho_hat,
    **outside)``, with the members of :func:`_slow_rhs_source`, which
    returns ``offset(radius)``, a_hat + eps * b_hat at (J, R, K, r), and
    ``slope(radius)``, its d(offset)/dr, by :func:`_offset_lines` and
    :func:`_slope_lines`.  A called member gets J, R and K as handed to
    ``make``, lists or ndarrays; a written-in one reads the items of J and
    K, read once."""
    names = _state_names(d)
    js, _, ks, _, _ = _state_parts(d, names)
    calls = inline.Calls(inline.SLOW, keys, d)
    lines, value = _offset_lines(calls, (js, "j"), (ks, "kvec"), _ON_RADIUS,
                                 "r")
    offset = [*lines, f"return {value}"]
    lines, _ = _slope_lines(d, analytic, names, calls)
    source = ["def make(" + ", ".join(
        ["eps", "j", "rows", "kvec", *(slot.call for slot in inline.SLOW),
         *inline.outside(inline.SLOW, keys, d)]) + "):"]
    source += [f"    {part} = {whole}[{a}]"
               for parts, whole in ((js, "j"), (ks, "kvec"))
               for a, part in enumerate(parts) if part in calls.used]
    for name, body in (("offset", offset), ("slope", [*lines, "return dal_dr"])):
        source += [f"    def {name}(radius):", *("        " + x for x in body)]
    return "\n".join(source + ["    return offset, slope", ""])


@functools.lru_cache(maxsize=None)
def _compile_window(d: int, analytic: bool, keys: tuple):
    return _compile_factory(_window_source(d, analytic, keys), f"<window, d = "
                            f"{d}, {'gradients' if analytic else 'differences'}>")


def _members(fns: dict) -> tuple:
    """The members ``fns`` in the order of :data:`inline.SLOW`, or None."""
    return tuple(fns.get(slot.name) for slot in inline.SLOW)


def _evaluated(aux: AuxiliaryBundle, bounds: BoundBundle) -> tuple:
    """The members the slow solve evaluates (:func:`_members`): its partials
    call a_grad and b_grad when the bundle has them, else a_hat and b_hat."""
    fns = {**vars(aux), **vars(bounds)}
    if bounds.a_grad is not None:
        del fns["a_hat"], fns["b_hat"]
    return _members(fns)


def _window_members(bounds: BoundBundle) -> tuple:
    """The members the window evaluates (:func:`_members`)."""
    return _members({name: getattr(bounds, name)
                     for name in ("a_hat", "b_hat", "a_grad", "b_grad")})


def _window_functions(spec: SystemSpec, bounds: BoundBundle):
    """``offset`` and ``slope`` (:func:`_window_source`) of the bundle at
    (J, R, K) = (I0, identity, 0), as ndarrays, and ``spec.epsilon``,
    compiled once per d, form and key of a_hat, b_hat and the gradients."""
    d = spec.d
    keys, arguments = inline.members(inline.SLOW, _window_members(bounds), d)
    make = _compile_window(d, bounds.a_grad is not None, keys)
    return make(spec.epsilon, spec.i0, np.eye(d), np.zeros(d), **arguments)


def _slow_functions(spec: SystemSpec, aux: AuxiliaryBundle, bounds: BoundBundle,
                    rtol: float, atol: float):
    """The right-hand side, run kernel and stop predicate of the slow
    solve, ``(rhs, kernel, stop)``, as :func:`ode._integrate` takes them.

    ``rhs`` maps the packed state [J, R, K, m, n], a list of floats, to a
    new list: dJ = fbar(J), dR = dfbar(J) R, dK = dfbar(J) K + pbar(J),
    dm = |R^-1| * growth and

        dn = (d(offset)/dtau + eps |R||R^-1| growth + eps (R . dR)/|R| m)
             / (1 - eps * d(offset)/dr)

    with growth at (J, eps*n, n) and the partials at (J, R, K, eps*n); its
    float sums are numpy's bit for bit at d = 1 and for a diagonal dfbar
    (BLAS may round a full one's differently).  ``kernel`` is the d = 1
    float run with the evaluation and stop test written in, or
    ``ode._array_kernel`` on ``rhs``, whose numpy sums decide euler-top exit
    codes next to the pole of the bound ODE (ROADMAP items 2 and 5).
    ``stop`` returns the first failed validity condition, or None."""
    d = spec.d
    keys, arguments = inline.members(inline.SLOW, _evaluated(aux, bounds), d)
    make = _compile_slow_rhs(d, bounds.a_grad is not None, keys)
    rhs, stop, kernel = make(spec.epsilon, rtol=rtol, atol=atol, **arguments)
    if kernel is None:
        kernel = ode._array_kernel(rhs, len(_state_names(d)), rtol, atol)
    return rhs, kernel, stop


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
