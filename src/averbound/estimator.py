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

The slow right-hand side is straight-line code, generated once per d and
per form of the offset partials (by the bundle's gradients or by central
differences) with every operation of an evaluation written out; at d = 1
the same evaluation is written into each stage of the adaptive
Dormand-Prince run the slow solve takes, its whole step loop generated in
one function.  :func:`_slow_functions` hands the slow solve its right-hand
side, run kernel and stop predicate.
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

from . import ode
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


def _slow_rhs_lines(d: int, state=None):
    """The generated blocks of the slow right-hand side for d actions, and
    the names of the products' entries in packed order.

    ``state`` names the floats of the packed state in packed order; by
    default (``_state_names``) the first block splits the state ``y`` into
    them, at the offsets of :func:`unpack_state`.  The first block then
    forms the lists ``j``, ``rows`` and ``kvec`` of J, the rows of R and K.
    The second unpacks ``amat`` (dfbar(J) as rows of floats) and ``pb``
    (pbar(J)) the same way, so a member of the wrong shape raises
    ``ValueError``, and writes out the entries of dfbar R and dfbar K +
    pbar, as ``d<a>_<b>`` and ``dk<a>``, and R . dR as ``r_dot_dr``: each
    a sum by ``ode._dot``, R taken row by row, and pbar added after the
    sum.
    """
    ix = range(d)
    split = []
    if state is None:
        state = _state_names(d)
        split.append(f"{_seq(state)} = y")
    js, rs, ks, _, _ = _state_parts(d, state)
    amat = [[f"a{a}_{b}" for b in ix] for a in ix]
    drs = [[f"d{a}_{b}" for b in ix] for a in ix]
    ps, dks = ([f"{x}{a}" for a in ix] for x in ("p", "dk"))
    flat_rs = [x for row in rs for x in row]
    flat_drs = [x for row in drs for x in row]
    split += [f"j = {_seq(js)}",
              f"rows = {_rows_of(rs)}",
              f"kvec = {_seq(ks)}"]
    products = [f"{_rows_of(amat)} = amat", f"{_seq(ps)} = pb"]
    for a in ix:
        products += [f"{drs[a][b]} = {_dot((amat[a][c], rs[c][b]) for c in ix)}"
                     for b in ix]
        products.append(f"{dks[a]} = {_dot((amat[a][c], ks[c]) for c in ix)}"
                        f" + {ps[a]}")
    products.append(f"r_dot_dr = {_dot(zip(flat_rs, flat_drs))}")
    return split, products, flat_drs + dks


def _norm_lines(rs):
    """Lines that bind ``norm_r`` and ``norm_rinv``, the Frobenius norms of
    R and R^-1 for R given as the rows ``rs`` of named floats, and raise
    :class:`SingularMatrixError` for a singular or ill-conditioned R.

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
    return ["norm_r, norm_rinv = norms(rows)"]


def _partials_lines(d, analytic, state, djs, drs, dks):
    """Lines that bind the offset partials ``dal_dr`` (d(offset)/dr) and
    ``dal_dtau`` (d(offset)/dtau) at (J, R, K, ``radius``), for the state
    floats named ``state`` and the slow-flow entries named ``djs`` (dJ),
    ``drs`` (dR, row by row) and ``dks`` (dK).

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
    if analytic:
        def contract(grad, entries):
            return f"({_dot((grad(i), x) for i, x in enumerate(entries))})"
        sum_j, sum_r, sum_k, sum_b = (
            contract(lambda i: f"ga_j[{i}]", djs),
            contract(lambda i: f"ga_r[{i // d}][{i % d}]", drs),
            contract(lambda i: f"ga_k[{i}]", dks),
            contract(lambda i: f"gb_j[{i}]", djs))
        return ["ga_j, ga_r, ga_k, ga_rad = a_grad(j, rows, kvec, radius)",
                "gb_j, gb_rad = b_grad(j, radius)",
                "dal_dr = float(ga_rad + eps * gb_rad)",
                f"dal_dtau = float({sum_j} + {sum_r} + {sum_k}",
                f"                 + eps * {sum_b})"]

    js, rs, ks, _, _ = _state_parts(d, state)

    def offset(jarg, rarg):
        return (f"float(a_hat({jarg}, rows, kvec, {rarg})"
                f" + eps * b_hat({jarg}, {rarg}))")

    def central(x, shifted, value, step=None):
        """The central difference of ``value(arg)`` in the float ``x``,
        where ``shifted(x')`` is the argument with x' in place of x: bound
        to ``dal_dr``, or, for a nonzero ``step``, weighted by it and added
        to ``dal_dtau``."""
        lines = [f"ax = abs({x})",
                 # max(1.0, ax), NaN included: max keeps 1.0 unless ax > 1.0
                 f"fd = {_FD_STEP!r} * (ax if ax > 1.0 else 1.0)",
                 f"up = {shifted(x + ' + fd')}",
                 f"down = {shifted(x + ' - fd')}"]
        quotient = f"({value('up')} - {value('down')}) / (2 * fd)"
        if step is None:
            return lines + [f"dal_dr = {quotient}"]
        return [f"if {step} != 0.0:", *("    " + line for line in lines),
                f"    dal_dtau += {step} * {quotient}"]

    def swap(names, i, arg):
        return [arg if c == i else name for c, name in enumerate(names)]

    flat_rs = [x for row in rs for x in row]

    def rows_swap(i, arg):
        flat = swap(flat_rs, i, arg)
        return _rows_of(flat[a * d:(a + 1) * d] for a in range(d))

    lines = central("radius", lambda arg: arg, lambda arg: offset("j", arg))
    lines.append("dal_dtau = 0.0")
    for i, (x, step) in enumerate(zip(js, djs)):
        lines += central(x, lambda arg: _seq(swap(js, i, arg)),
                         lambda arg: offset(arg, "radius"), step)
    for i, (x, step) in enumerate(zip(flat_rs, drs)):
        lines += central(x, lambda arg: rows_swap(i, arg),
                         lambda arg: f"a_hat(j, {arg}, kvec, radius)", step)
    for i, (x, step) in enumerate(zip(ks, dks)):
        lines += central(x, lambda arg: _seq(swap(ks, i, arg)),
                         lambda arg: f"a_hat(j, rows, {arg}, radius)", step)
    return lines + ["dal_dtau = float(dal_dtau)"]


def _slow_evaluation(d, analytic, state=None, record="y"):
    """Lines of one evaluation of the slow right-hand side for d actions,
    and the expressions of its values in packed order: the blocks of
    :func:`_slow_rhs_lines`, :func:`_norm_lines` and
    :func:`_partials_lines` and the bound equation.

    ``state`` names the state's floats, as in :func:`_slow_rhs_lines`.
    After the partials the evaluation records the state list named
    ``record`` and its d(offset)/dr in ``latest``; with ``record`` None it
    records nothing.
    """
    split, products, entries = _slow_rhs_lines(d, state)
    names = _state_names(d) if state is None else state
    _, rs, _, m, n = _state_parts(d, names)
    size = len(names)
    djs = [f"dj{a}" for a in range(d)]
    lines = split + [
        "amat = dfbar(j).tolist()",
        "dj = fbar(j)",
        # An fbar of another length would make the packed derivative as
        # much shorter or longer: the message is the integrator's for that.
        f"if len(dj) != {d}:",
        f"    raise ValueError(f'rhs must return shape ({size},), "
        f"got ({{len(dj) + {size - d}}},)')",
        f"{_seq(djs)} = dj",
        "pb = pbar(j).tolist()",
    ] + products + _norm_lines(rs) + [
        f"radius = eps * {n}",
        f"gam = float(c_hat(j, radius) + d_hat(j, radius) * {n}",
        f"            + 0.5 * e_hat(j, radius) * {n} * {n})",
        "dm = norm_rinv * gam",
    ] + _partials_lines(d, analytic, names, djs, entries[:d * d], entries[d * d:])
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
    return lines, [*djs, *entries, "dm", "dn"]


# The arguments of the generated slow ``make``, in order.
_SLOW_PARAMS = ("eps", "fbar", "dfbar", "pbar", "a_hat", "b_hat", "c_hat",
                "d_hat", "e_hat", "a_grad", "b_grad", "latest", "rtol", "atol")


def _slow_rhs_source(d: int, analytic: bool) -> str:
    """Source of ``make(eps, fbar, dfbar, pbar, a_hat, b_hat, c_hat, d_hat,
    e_hat, a_grad, b_grad, latest, rtol, atol)``, which returns the slow
    right-hand side for d actions as straight-line code, with its offset
    partials by gradients (``analytic``) or by central differences, and at
    d = 1 a run kernel: ``rhs, (run, stage_calls)``, as
    :func:`ode._integrate` takes them, or ``rhs, None`` from d = 2 on.

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
    lines, values = _slow_evaluation(d, analytic)
    size = len(values)
    source = [f"def make({', '.join(_SLOW_PARAMS)}):",
              "    def rhs(tau, y):",
              *("        " + line for line in lines),
              f"        return {_seq(values)}"]
    if d > 1:
        return "\n".join(source + ["    return rhs, None", ""])

    stage = ode._inline_stage(size, lambda time, state, last: _slow_evaluation(
        d, analytic, state, "ys" if last else None))
    run = ode._float_run_source(ode._STAGES, ode._E, size, stage,
                                reads=(*_SLOW_PARAMS, "calls"),
                                cells=("calls",))
    return "\n".join(source + ["    calls = 0", textwrap.indent(run, "    "),
                               "    return rhs, (run, lambda: calls)", ""])


@functools.lru_cache(maxsize=None)
def _compile_slow_rhs(d: int, analytic: bool):
    form = "gradients" if analytic else "differences"
    return _compile_factory(_slow_rhs_source(d, analytic),
                            f"<slow rhs, d = {d}, {form}>", norms=_inverse_norms,
                            sqrt=math.sqrt, SingularMatrixError=SingularMatrixError)


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

    The code is generated once per d and per form of the partials
    (:func:`_compile_slow_rhs`), with every operation of an evaluation
    written out: the state is split at offsets fixed there; the products
    dfbar R, dfbar K + pbar and R . dR are each summed on floats from 0.0,
    left to right; the growth kernel, the norms of R and R^-1 (up to
    d = 2) and the partials are inline too.  That is numpy's result bit for
    bit wherever each sum has at most one nonzero term, as with a diagonal
    dfbar, and at d = 1.  For a full dfbar at d >= 2, numpy's ``@`` runs
    through BLAS, whose fused multiply-adds can round the last bit
    differently.

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
    make = _compile_slow_rhs(d, bounds.a_grad is not None)
    latest = [None, None]
    rhs, kernel = make(spec.epsilon, aux.fbar, aux.dfbar, aux.pbar,
                       bounds.a_hat, bounds.b_hat, bounds.c_hat, bounds.d_hat,
                       bounds.e_hat, bounds.a_grad, bounds.b_grad, latest,
                       rtol, atol)
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
