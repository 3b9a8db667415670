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
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import ode
from .model import (AuxiliaryBundle, BoundBundle, SystemSpec, frobenius,
                    growth_value, offset_value)

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
    "assemble_slow_rhs",
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
    # The run stopped because a bound function raised at the stop state, so
    # no condition could be checked there.
    UNDETERMINED = "undetermined"


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


def _alpha_tau_derivative(bounds: BoundBundle, j, rmat, k, r, eps,
                          dj, drmat, dk) -> float:
    """Chain-rule derivative of the offset bound along the slow flow, by
    central differences.

    Contracts the partial derivatives with respect to J, R and K with the
    supplied slow-flow derivatives dJ/dtau, dR/dtau, dK/dtau.  The zero
    tests, steps and weights read Python floats; the perturbed points
    handed to the bound functions stay ndarrays.
    """
    jl, rl, kl = j.tolist(), rmat.tolist(), k.tolist()
    djl, drl, dkl = dj.tolist(), drmat.tolist(), dk.tolist()
    total = 0.0
    d = len(jl)
    for i in range(d):
        if djl[i] == 0.0:
            continue
        h = _FD_STEP * max(1.0, abs(jl[i]))
        jp = j.copy(); jp[i] += h
        jm = j.copy(); jm[i] -= h
        total += djl[i] * (offset_value(bounds, jp, rmat, k, r, eps)
                           - offset_value(bounds, jm, rmat, k, r, eps)) / (2 * h)
    for a in range(d):
        for b in range(d):
            if drl[a][b] == 0.0:
                continue
            h = _FD_STEP * max(1.0, abs(rl[a][b]))
            rp = rmat.copy(); rp[a, b] += h
            rm = rmat.copy(); rm[a, b] -= h
            total += drl[a][b] * (bounds.a_hat(j, rp, k, r)
                                  - bounds.a_hat(j, rm, k, r)) / (2 * h)
    for i in range(d):
        if dkl[i] == 0.0:
            continue
        h = _FD_STEP * max(1.0, abs(kl[i]))
        kp = k.copy(); kp[i] += h
        km = k.copy(); km[i] -= h
        total += dkl[i] * (bounds.a_hat(j, rmat, kp, r)
                           - bounds.a_hat(j, rmat, km, r)) / (2 * h)
    return float(total)


def _analytic_partials(bounds: BoundBundle, j, rmat, k, r, eps,
                       dj, drmat, dk):
    """(d(offset)/dr, d(offset)/dtau) from one ``a_grad`` and one ``b_grad``
    call.

    d(offset)/dtau is np.sum(dA/dJ * dJ) + np.sum(dA/dR * dR) +
    np.sum(dA/dK * dK) + eps * np.sum(dB/dJ * dJ), with the slow-flow
    derivatives dJ, dR and dK.  Each sum runs on Python floats, from 0.0
    and left to right over R in row order: at d = 1 and d = 2 that is
    np.sum's order, so every bit is the same.
    """
    ga_j, ga_r, ga_k, ga_rad = bounds.a_grad(j, rmat, k, r)
    gb_j, gb_rad = bounds.b_grad(j, r)
    dal_dr = float(ga_rad + eps * gb_rad)
    d = dj.shape[0]
    djl, drl, dkl = dj.tolist(), drmat.tolist(), dk.tolist()
    sum_j = sum_r = sum_k = sum_b = 0.0
    for a in range(d):
        sum_j += ga_j[a] * djl[a]
        sum_k += ga_k[a] * dkl[a]
        sum_b += gb_j[a] * djl[a]
        row, drow = ga_r[a], drl[a]
        for b in range(d):
            sum_r += row[b] * drow[b]
    return dal_dr, float(sum_j + sum_r + sum_k + eps * sum_b)


def _inverse_norms(rmat: np.ndarray):
    """The Frobenius norms (|R|, |R^-1|) of the condition check.

    At d = 1 and d = 2 they are taken on Python floats, with the operations
    of an ndarray R^-1 and :func:`frobenius` in the same order (a sum of
    fewer than eight squares runs left to right in numpy too), so every
    bit is the same.
    """
    d = rmat.shape[0]
    if d == 1:
        val = rmat.item(0)
        if val == 0.0:
            raise SingularMatrixError("fundamental matrix is zero")
        inv = 1.0 / val
        norm_r, norm_inv = math.sqrt(val * val), math.sqrt(inv * inv)
    elif d == 2:
        r00, r01, r10, r11 = rmat.ravel().tolist()
        det = r00 * r11 - r01 * r10
        if det == 0.0:
            raise SingularMatrixError("fundamental matrix is singular")
        i00, i01, i10, i11 = r11 / det, -r01 / det, -r10 / det, r00 / det
        norm_r = math.sqrt(r00 * r00 + r01 * r01 + r10 * r10 + r11 * r11)
        norm_inv = math.sqrt(i00 * i00 + i01 * i01 + i10 * i10 + i11 * i11)
    else:
        try:
            inv = np.linalg.solve(rmat, np.eye(d))
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
    levels ell evenly spaced in [lo, hi]."""
    eps = spec.epsilon
    j0, rmat0, k0 = _window_alpha0(spec)
    worst = 0.0
    for ell in np.linspace(lo, hi, _WINDOW_SAMPLES):
        worst = max(worst, abs(_dalpha_dr(bounds, j0, rmat0, k0, eps * ell, eps)))
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
    if worst > window.slope_bound + 1e-12:
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


def unpack_state(y: np.ndarray, d: int):
    """Views (J, R, K, m, n) of a packed state, or of a grid of them with one
    state per row.  For a single state m and n are scalars."""
    j = y[..., :d]
    rmat = y[..., d:d + d * d].reshape(y.shape[:-1] + (d, d))
    k = y[..., d + d * d:2 * d + d * d]
    # y.T[-1] is a scalar for one state and a column view for a grid.
    return j, rmat, k, y.T[-2], y.T[-1]


def assemble_slow_rhs(spec: SystemSpec, aux: AuxiliaryBundle,
                      bounds: BoundBundle) -> Callable:
    """Right side of the packed slow system [J, R, K, m, n].

    Implements dJ = fbar(J), dR = dfbar(J) R, dK = dfbar(J) K + pbar(J),
    dm = |R^-1| * growth, and the bound equation

        dn = (d(offset)/dtau + eps |R||R^-1| growth + eps (R . dR)/|R| m)
             / (1 - eps * d(offset)/dr)

    with growth evaluated at (J, eps*n, n) and the offset partials taken at
    (J, R, K, eps*n): by one call each of the bundle's ``a_grad`` and
    ``b_grad`` when it has them, and otherwise by central differences with
    step ``_FD_STEP`` times the argument scale.
    """
    eps = spec.epsilon
    d = spec.d
    analytic = bounds.a_grad is not None

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        j, rmat, k, m, n = unpack_state(y, d)
        # n is read as a Python float.  m stays a numpy scalar: it makes dn
        # a numpy division, which gives inf rather than raising when
        # eps * d(offset)/dr reaches 1.
        n = float(n)
        amat = aux.dfbar(j)
        dj = np.asarray(aux.fbar(j), dtype=float)
        drmat = amat @ rmat
        dk = amat @ k + aux.pbar(j)

        norm_r, norm_rinv = _inverse_norms(rmat)
        radius = eps * n
        gam = growth_value(bounds, j, radius, n)
        dm = norm_rinv * gam

        if analytic:
            dal_dr, dal_dtau = _analytic_partials(bounds, j, rmat, k, radius,
                                                  eps, dj, drmat, dk)
        else:
            dal_dr = _dalpha_dr(bounds, j, rmat, k, radius, eps)
            dal_dtau = _alpha_tau_derivative(bounds, j, rmat, k, radius, eps,
                                             dj, drmat, dk)
        denom = 1.0 - eps * dal_dr
        r_dot_dr = float(np.add.reduce(rmat * drmat, axis=None))
        dn = (dal_dtau + eps * norm_r * norm_rinv * gam
              + eps * r_dot_dr / norm_r * m) / denom

        return pack_state(dj, drmat, dk, dm, dn)

    return rhs


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


def _make_stop_predicate(spec, bounds):
    """The stop predicate of the slow solve: the first failed validity
    condition at a state, as a :class:`ViolationKind`, or None."""
    eps = spec.epsilon
    d = spec.d

    def violation(tau, y):
        j, rmat, k, m, n = unpack_state(y, d)
        if n <= 0.0:
            return ViolationKind.N_NONPOSITIVE
        rho = bounds.rho_hat(j)
        if not np.isfinite(rho):
            rho = np.inf
        if not n < rho / eps:
            return ViolationKind.N_EXCEEDS_RHO_OVER_EPS
        dal = _dalpha_dr(bounds, j, rmat, k, eps * n, eps)
        if not dal < 1.0 / eps:
            return ViolationKind.DALPHA_DR_EXCEEDS_INV_EPS
        return None

    return violation


def run_estimator(spec: SystemSpec, aux: AuxiliaryBundle, bounds: BoundBundle,
                  u: float, window: Optional[ContractionWindow] = None,
                  rtol: float = ode.DEFAULT_RTOL,
                  atol: float = ode.DEFAULT_ATOL) -> EstimatorTrajectory:
    """Run the full slow-time estimator on [0, u].

    Computes the fixed point ell0, integrates the coupled system from
    (I0, identity, 0, 0, ell0), and monitors the validity conditions; an
    early stop is reported as ``domain_violation`` with the failed condition.
    """
    if not u > 0.0:
        raise ValueError("U must be positive")
    t_start = time.perf_counter()
    window_mode = "explicit"
    if window is None:
        window = auto_window(spec, bounds)
        window_mode = "auto"
    ell0 = find_fixed_point(spec, bounds, window)

    d = spec.d
    y0 = pack_state(spec.i0, np.eye(d), np.zeros(d), 0.0, ell0)
    rhs = assemble_slow_rhs(spec, aux, bounds)
    problem = ode.IvpProblem(rhs=rhs, t0=0.0, y0=y0, t_end=u)
    traj = ode.integrate(problem, rtol=rtol, atol=atol,
                         stop=_make_stop_predicate(spec, bounds))

    if traj.status is ode.Status.COMPLETED:
        status, kind = EstimatorStatus.COMPLETED, None
    elif traj.status is ode.Status.STOPPED:
        status = EstimatorStatus.DOMAIN_VIOLATION
        kind = traj.stop_reason
        if not isinstance(kind, ViolationKind):   # a bound function raised
            kind = ViolationKind.UNDETERMINED
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
        lists=True,
    )
    stop = lambda tau, j: not in_domain(j)
    return ode.integrate(problem, rtol=rtol, atol=atol, stop=stop)
