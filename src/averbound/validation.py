"""Cross-checks for bundles, bounds and computed trajectories.

Five checks, each returning a :class:`ValidationReport`:

* :func:`verify_identities` -- the auxiliary bundle satisfies its defining
  equations (finite differences in the actions and the angle, quadrature
  over the torus, algebraic Taylor identities), and f and g are
  2*pi-periodic in the angle;
* :func:`verify_bound_domination` -- the majorants a..e dominate the five
  inequality left sides on stratified samples along a computed trajectory;
* :func:`verify_integral_identity` -- the exact integral representation of
  the scaled error holds along a direct run, with trapezoid quadrature;
* :func:`verify_headline_bound` -- |L(t)| <= n(eps*t) on the full fast grid;
* :func:`analytic_crosscheck` -- J, R and K of the slow solve match an
  example's closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .direct import DirectTrajectory, envelope
from .estimator import EstimatorTrajectory, unpack_state
from .model import (IDENTITY_TOL, TWO_PI, AuxiliaryBundle, BoundBundle,
                    SystemSpec)

__all__ = [
    "ValidationReport",
    "verify_identities",
    "verify_bound_domination",
    "verify_integral_identity",
    "verify_headline_bound",
    "analytic_crosscheck",
]

CROSSCHECK_TOL = 1e-8     # largest passing closed-form residual of J, R, K
_INTEGRAL_TOL = 1e-4      # largest passing integral-identity residual
_HEADLINE_REL_SLACK = 1e-12  # |L| - n beyond this * n is a violation
# The default envelope window is the covered slow span over this count.
ENVELOPE_WINDOWS = 50
_FD_REL = 2.5e-4          # 5-point stencil step, relative to the argument
_QUAD_THETA = 256         # torus quadrature nodes (exact for short trig polys)
# Domination grid: slow times, radii up to a fraction of rho, and angles.
_DOM_TAUS, _DOM_RADII, _DOM_THETAS = 25, 10, 20
_DOM_MAX_RADIUS_FRAC = 0.98
# Domination slack: only count exceedances beyond roundoff, the a-majorants
# of several examples are attained suprema.
_DOM_REL_SLACK = 1e-12
_DOM_ABS_SLACK = 1e-14
# Columns of each majorant row in the margins of one direction: d, e, then
# a, b, c per angle.
_DOM_COLUMNS = {"a": slice(2, None, 3), "b": slice(3, None, 3),
                "c": slice(4, None, 3), "d": slice(0, 1), "e": slice(1, 2)}


@dataclass
class ValidationReport:
    """Outcome of one check: residual/violation summary plus worst point."""

    name: str
    samples: int
    tolerance: float
    max_residual: Optional[float] = None
    violations: Optional[int] = None
    details: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No violations if they are counted, else the residual within
        tolerance; a report with neither fails."""
        if self.violations is not None:
            return self.violations == 0
        return self.max_residual is not None and self.max_residual <= self.tolerance

    def to_dict(self) -> Dict:
        """The report as plain JSON values; a non-finite float is None."""
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, np.ndarray):
                return clean(x.tolist())
            if isinstance(x, (np.floating, np.integer)):
                x = x.item()
            # JSON has no inf or NaN: a missing number is written as null.
            if isinstance(x, float) and not math.isfinite(x):
                return None
            return x
        return clean({
            "name": self.name,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "violations": self.violations,
            "passed": self.passed,
            "details": self.details,
        })


# ---------------------------------------------------------------------------
# Stacked points: actions of shape (d, N), member values with a trailing N
# axis (the stacking contract of averbound.model).


def _stacked(value, shape):
    """A member's value on a stack of points as an array of ``shape``, the
    one-point shape with a trailing axis of the N points.  A value of the
    one-point shape (a member that does not read the actions) is broadcast
    along that axis."""
    value = np.asarray(value, dtype=float)
    if value.shape == shape:
        return value
    if value.ndim < len(shape):
        value = value[..., None]
    return np.broadcast_to(value, shape)


def _leading(stack):
    """A ``(..., N)`` stack as ``(N, ...)`` in C order.  Each matrix of it
    is then contiguous, so :func:`_mat_vec` runs the per-point matmul core
    on it."""
    return np.ascontiguousarray(np.moveaxis(stack, -1, 0))


def _mat_vec(mats, vecs):
    """Products ``mats @ vecs`` over stacked leading axes.

    Each product runs the same (d, d) @ (d,) matmul core as one ``m @ v``,
    so every entry is bitwise equal to the per-point product, provided each
    (d, d) matrix of ``mats`` is contiguous.
    """
    return np.matmul(mats, vecs[..., None])[..., 0]


def _row_norms(rows):
    """:func:`~averbound.model.frobenius` of each vector along the last
    axis, bitwise."""
    return np.sqrt(np.sum(rows * rows, axis=-1))


def _point_max(stack):
    """max |entry| of each point of a ``(..., N)`` stack (NaN if any is)."""
    return np.max(np.abs(stack).reshape(-1, stack.shape[-1]), axis=0)


# ---------------------------------------------------------------------------
# Finite differences (5-point central: roundoff stays far below the 1e-8 gate)


def _five_point(at, h):
    """Derivative at 0 of ``at``, a function of the offset, with step h: a
    float, or one step per point along the trailing axis of the values."""
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _d_action(fn, x, j):
    """Derivative in action j of ``fn``, a map from a (d, N) stack to
    values with a trailing N axis, at each point of the stack ``x``."""
    def at(dx):
        xp = x.copy()
        xp[j] += dx
        return fn(xp)
    return _five_point(at, _FD_REL * np.abs(x[j]))


def _action_grid(box, per_axis: int) -> np.ndarray:
    """``per_axis ** d`` points of a regular grid over ``box``, one per row."""
    lo, hi = box
    axes = [np.linspace(lo[j], hi[j], per_axis) for j in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def _sample_point(actions, theta=None, increment=None) -> Dict:
    """A sample of the identity suite as plain numbers."""
    return {"actions": [float(a) for a in actions],
            "theta": None if theta is None else float(theta),
            "increment": None if increment is None else [float(a) for a in increment]}


def verify_identities(spec: SystemSpec, aux: AuxiliaryBundle,
                      sample_box) -> ValidationReport:
    """Residuals of every defining identity of the auxiliary bundle, and of
    the 2*pi-periodicity of f and g in the angle.

    Samples a grid of at least 100 (I, theta) points inside the given action
    box (assumed inside the domain); per-identity maxima land in
    ``details["per_identity"]``, and the sample of the largest one in
    ``details["worst_point"]`` as ``{"actions", "theta", "increment"}``.

    The sample actions form one (d, P) stack.  ``s`` ... ``u`` are called
    on it once per angle, always a float: the sample angles, the torus
    quadrature nodes and the finite-difference offsets.  ``dfbar``,
    ``m_script``, ``g_script`` and ``h_script`` are called on stacks too.
    The system callables, ``fbar`` and ``pbar`` are called per point.
    """
    d = spec.d
    rows = _action_grid(sample_box, 10 if d == 1 else 4)
    for i in rows:
        if not spec.in_domain(i):
            raise ValueError(f"identity sample point {i} outside the domain")
    npts = len(rows)
    x = np.ascontiguousarray(rows.T)
    vec, mat = (d, npts), (d, d, npts)
    thetas = np.linspace(0.0, TWO_PI, 13)[:-1]
    th_quad = np.linspace(0.0, TWO_PI, _QUAD_THETA + 1)[:-1]

    worst: Dict[str, float] = {}
    worst_point: Dict[str, Dict] = {}

    def record(key, values, point):
        """The first largest residual of ``values`` (in sample order), with
        ``point(k)`` the sample of entry k.  A NaN ranks above every number,
        as ``np.argmax`` ranks it, so it fails the report."""
        values = np.ravel(values)
        k = int(np.argmax(values))
        worst[key] = float(values[k])
        worst_point[key] = point(k)

    def at_point(theta=None):
        return lambda k: _sample_point(rows[k], theta)

    def per_point(fn, xs, *args):
        """``fn`` on each point of the stack ``xs``, as a (..., N) stack."""
        return np.moveaxis(np.array([fn(i, *args) for i in xs.T], dtype=float),
                           0, -1)

    def member(fn, xs, th):
        return _stacked(fn(xs, th), vec)

    def d_theta(fn, th):
        return _five_point(lambda dx: member(fn, x, th + dx), _FD_REL)

    def torus_mean(fn):
        # Each point's nodes are summed as one contiguous (256, d) array,
        # so in the order of the mean of that point alone.
        nodes = np.array([member(fn, x, t) for t in th_quad])
        return np.mean(np.ascontiguousarray(nodes.transpose(2, 0, 1)), axis=1).T

    fbars = per_point(aux.fbar, x)
    pbars = per_point(aux.pbar, x)
    # torus averages (trapezoid is exact for trigonometric polynomials)
    f_means = np.array([np.mean(np.array([spec.f(i, t) for t in th_quad],
                                         dtype=float), axis=0)
                        for i in rows]).T
    for key, mean, target in (("fbar_is_mean_f", f_means, fbars),
                              ("pbar_is_mean_p", torus_mean(aux.p), pbars),
                              ("s_has_zero_mean", torus_mean(aux.s), 0.0)):
        record(key, _point_max(mean - target), at_point())
    for key, fn in (("v_zero_at_theta0", aux.v), ("w_zero_at_theta0", aux.w)):
        record(key, _point_max(member(fn, x, spec.theta0)), at_point(spec.theta0))

    def dfbar_at(xs):
        return _stacked(aux.dfbar(xs), mat)

    jac = np.stack([_d_action(lambda xs: per_point(aux.fbar, xs), x, j)
                    for j in range(d)], axis=1)
    dfb = dfbar_at(x)
    record("dfbar_is_jacobian", _point_max(jac - dfb), at_point())
    # m_script[i,j] = sum_k d2 fbar^i/(dI^k dI^j) fbar^k - (dfbar^2)[i,j]
    hess = np.stack([_d_action(dfbar_at, x, j) for j in range(d)], axis=2)
    dfb_rows = _leading(dfb)
    m_def = (np.einsum("nikj,nk->nij", _leading(hess), _leading(fbars))
             - np.matmul(dfb_rows, dfb_rows))
    record("m_script_definition",
           _point_max(np.moveaxis(m_def, 0, -1) - _stacked(aux.m_script(x), mat)),
           at_point())

    # Residuals per sample point (rows) and angle (columns).
    angle_keys = ("f_g_periodic", "f_decomposition", "s_from_v",
                  "p_decomposition", "p_definition", "q_definition",
                  "u_definition")
    per_angle = {key: np.empty((npts, len(thetas))) for key in angle_keys}
    om = np.array([spec.omega(i) for i in rows], dtype=float)
    for col, th in enumerate(thetas):
        fv = np.empty(vec)
        gv = np.empty(npts)
        for k, i in enumerate(rows):
            fv[:, k] = spec.f(i, th)
            gv[k] = spec.g(i, th)
            # np.maximum keeps a NaN residual of either f or g; Python's
            # max would drop one met after a number.
            per_angle["f_g_periodic"][k, col] = np.maximum(
                np.max(np.abs(fv[:, k] - np.asarray(spec.f(i, th + TWO_PI),
                                                    dtype=float))),
                abs(gv[k] - spec.g(i, th + TWO_PI)))
        ds, dv, dw = (d_theta(fn, th) for fn in (aux.s, aux.v, aux.w))
        pv = member(aux.p, x, th)
        per_angle["f_decomposition"][:, col] = _point_max(fv - fbars - om * ds)
        per_angle["s_from_v"][:, col] = _point_max(member(aux.s, x, th) - om * dv)
        per_angle["p_decomposition"][:, col] = _point_max(pv - pbars - om * dw)
        # p, q, u are the transports of s, v, w along the flow.
        f_rows = _leading(fv)
        for key, moved, fn, dth in (("p_definition", pv, aux.s, ds),
                                    ("q_definition", member(aux.q, x, th), aux.v, dv),
                                    ("u_definition", member(aux.u, x, th), aux.w, dw)):
            jac = np.stack([_d_action(lambda xs: member(fn, xs, th), x, j)
                            for j in range(d)], axis=1)
            transport = _mat_vec(_leading(jac), f_rows).T + dth * gv
            per_angle[key][:, col] = _point_max(moved - transport)
    for key in angle_keys:
        record(key, per_angle[key],
               lambda k: _sample_point(rows[k // len(thetas)],
                                       thetas[k % len(thetas)]))

    # Taylor identities on segment increments inside the box.
    pairs = [(i, tgt - i) for i in rows[:: max(1, npts // 8)]
             for tgt in _action_grid(sample_box, 3) if np.any(tgt - i != 0.0)]
    base = np.ascontiguousarray(np.array([i for i, _ in pairs]).T)
    incs = np.ascontiguousarray(np.array([di for _, di in pairs]).T)
    shape = (d, d, len(pairs))
    inc_rows = _leading(incs)
    tip = base + incs

    def at_pair(k):
        return _sample_point(pairs[k][0], increment=pairs[k][1])

    gsc = _leading(_stacked(aux.g_script(base, incs), shape))
    record("pbar_taylor",
           _point_max(per_point(aux.pbar, tip) - per_point(aux.pbar, base)
                      - _mat_vec(gsc, inc_rows).T), at_pair)
    hsc = _leading(_stacked(aux.h_script(base, incs), (d,) + shape))
    hterm = 0.5 * np.einsum("nijk,nj,nk->ni", hsc, inc_rows, inc_rows)
    dfb = _leading(_stacked(aux.dfbar(base), shape))
    record("fbar_taylor",
           _point_max(per_point(aux.fbar, tip) - per_point(aux.fbar, base)
                      - _mat_vec(dfb, inc_rows).T - hterm.T), at_pair)
    record("h_script_symmetry",
           _point_max(np.moveaxis(hsc - hsc.transpose(0, 1, 3, 2), 0, -1)), at_pair)

    keys = list(worst)
    key = keys[int(np.argmax([worst[k] for k in keys]))]
    return ValidationReport(
        name="auxiliary-identities",
        samples=npts * len(thetas),
        tolerance=IDENTITY_TOL,
        max_residual=worst[key],
        details={
            "per_identity": worst,
            "worst_identity": key,
            "worst_point": worst_point[key],
        },
    )


# ---------------------------------------------------------------------------


def _directions(d: int, count: int = 16) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, TWO_PI, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(0)
    vs = rng.normal(size=(count, d))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


def verify_bound_domination(spec: SystemSpec, aux: AuxiliaryBundle,
                            bounds: BoundBundle,
                            est: EstimatorTrajectory) -> ValidationReport:
    """Count violations of the five majorant inequalities along ``est``.

    Stratified deterministic sampling in (tau, r/rho, theta) with increment
    directions enumerated (signs for d = 1, a fan of angles for d = 2).
    Also spot-checks that c, d, e are non-decreasing in the radius.  A NaN
    left side or majorant counts as a violation.

    Per slow time, each of s, w, v, u and q is called once on the stacked
    (radius, direction, angle) grid, at most 10 x 16 x 20 points, and
    g_script and h_script once on the stacked (radius, direction)
    increments; the norms and margins are taken on arrays.
    ``details["worst"]`` maps each row "a" ... "e" to its first
    largest non-NaN margin in the order tau, radius, direction and, for the
    rows a, b, c, angle; a row without a number keeps margin -inf (None
    in :meth:`ValidationReport.to_dict`).
    """
    d = spec.d
    s0 = aux.s(spec.i0, spec.theta0)
    taus = (np.arange(_DOM_TAUS) + 0.5) / _DOM_TAUS * est.tau_final
    fracs = (np.arange(_DOM_RADII) + 0.5) / _DOM_RADII * _DOM_MAX_RADIUS_FRAC
    thetas = np.linspace(0.0, TWO_PI, _DOM_THETAS, endpoint=False)
    dirs = _directions(d)
    # Increment m is radius m // len(dirs) in direction m % len(dirs);
    # point k of the stacked grid is increment k // _DOM_THETAS at angle
    # k % _DOM_THETAS.
    n_inc = _DOM_RADII * len(dirs)
    grid_thetas = np.tile(thetas, n_inc)
    grid = (_DOM_RADII, len(dirs), _DOM_THETAS, d)
    mat = (d, d, n_inc)

    violations = 0
    samples = 0
    worst = {row: {"margin": -np.inf} for row in _DOM_COLUMNS}
    monotone_bad = 0

    for tau, packed in zip(taus, est.traj.sample_many(taus)):
        j, rmat, kvec, _, _ = unpack_state(packed, d)
        dfb = aux.dfbar(j)
        msc = aux.m_script(j)
        rho = bounds.rho_hat(j)
        base = rmat @ s0 + kvec
        radii = fracs * rho

        # Rows per radius: d, e, then a, b, c per angle.
        bound = np.empty((_DOM_RADII, 2 + 3 * _DOM_THETAS))
        prev = None
        for row, r in zip(bound, radii):
            a_val = bounds.a_hat(j, rmat, kvec, r)
            b_val = bounds.b_hat(j, r)
            c_val = bounds.c_hat(j, r)
            d_val = bounds.d_hat(j, r)
            e_val = bounds.e_hat(j, r)
            if prev is not None:
                if not (c_val >= prev[0] - 1e-12 and d_val >= prev[1] - 1e-12
                        and e_val >= prev[2] - 1e-12):
                    monotone_bad += 1
            prev = (c_val, d_val, e_val)
            row[:] = [d_val, e_val] + [a_val, b_val, c_val] * _DOM_THETAS

        steps = (radii[:, None, None] * dirs).reshape(n_inc, d)
        at_j = np.repeat(j[:, None], n_inc, axis=1)
        incs = np.ascontiguousarray(steps.T)
        lhs = np.empty((_DOM_RADII, len(dirs), bound.shape[1]))
        for col, fn, shape in ((0, aux.g_script, mat),
                               (1, aux.h_script, (d,) + mat)):
            value = _leading(_stacked(fn(at_j, incs), shape))
            lhs[:, :, col] = _row_norms(value.reshape(_DOM_RADII, len(dirs), -1))
        actions = np.repeat((j + steps).T, _DOM_THETAS, axis=1)
        sv, wv, vv, uv, qv = (
            _stacked(fn(actions, grid_thetas), actions.shape).T.reshape(grid)
            for fn in (aux.s, aux.w, aux.v, aux.u, aux.q))
        lhs[:, :, 2::3] = _row_norms(sv - base)
        lhs[:, :, 3::3] = _row_norms(wv - _mat_vec(dfb, vv))
        lhs[:, :, 4::3] = _row_norms(uv - _mat_vec(dfb, wv + qv)
                                     - _mat_vec(msc, vv))

        margin = lhs - bound[:, None, :]
        slack = _DOM_REL_SLACK * np.maximum(1.0, bound) + _DOM_ABS_SLACK
        samples += margin.size
        violations += int(np.count_nonzero(~(margin <= slack[:, None, :])))

        ranked = np.where(np.isnan(margin), -np.inf, margin)
        for row, columns in _DOM_COLUMNS.items():
            block = ranked[:, :, columns]
            irad, idir, col = np.unravel_index(int(np.argmax(block)), block.shape)
            if block[irad, idir, col] > worst[row]["margin"]:
                point = {"margin": block[irad, idir, col], "tau": tau,
                         "r": radii[irad]}
                if row in "abc":
                    point["theta"] = thetas[col]
                point["direction"] = dirs[idir].tolist()
                worst[row] = point

    violations += monotone_bad
    return ValidationReport(
        name="bound-domination",
        samples=samples,
        tolerance=0.0,
        violations=violations,
        details={"worst": worst, "monotonicity_failures": monotone_bad},
    )


# ---------------------------------------------------------------------------


def verify_integral_identity(spec: SystemSpec, aux: AuxiliaryBundle,
                             est: EstimatorTrajectory, dtraj: DirectTrajectory,
                             n_quad: int = 2048) -> ValidationReport:
    """Residual of the exact integral representation of the scaled error.

    Reconstructs I(t) = J(eps*t) + eps*L(t) on a uniform fast grid of
    ``n_quad`` intervals and compares L against the conjugation identity,
    with the memory integral computed by cumulative trapezoid quadrature.
    The residual is quadrature-dominated: halving the step (doubling
    ``n_quad``) should shrink it by about four.

    s, w, v, u, q, dfbar, m_script, g_script and h_script are each called
    once, on the whole grid of nodes, and the algebra after them runs on
    the stacked values.
    """
    eps = spec.epsilon
    d = spec.d
    t_hi = min(dtraj.t[-1], est.tau_final / eps)
    ts = np.linspace(0.0, t_hi, n_quad + 1)

    s0 = aux.s(spec.i0, spec.theta0)
    samples_fast = dtraj.traj.sample_many(ts)
    js, rmats, kvecs, _, _ = unpack_state(est.traj.sample_many(eps * ts), d)
    ell = samples_fast[:, :d]
    thetas = samples_fast[:, d]
    steps = eps * ell
    actions = js + steps

    vec, mat = (d, ts.size), (d, d, ts.size)
    sv, wv, vv, uv, qv = (_stacked(fn(actions.T, thetas), vec).T
                          for fn in (aux.s, aux.w, aux.v, aux.u, aux.q))
    at_j, incs = np.ascontiguousarray(js.T), np.ascontiguousarray(steps.T)
    gsc = _leading(_stacked(aux.g_script(at_j, incs), mat))
    hsc = _leading(_stacked(aux.h_script(at_j, incs), (d,) + mat))
    dfb = _leading(_stacked(aux.dfbar(at_j), mat))
    msc = _leading(_stacked(aux.m_script(at_j), mat))

    term = (uv
            - _mat_vec(dfb, wv + qv)
            - _mat_vec(msc, vv)
            - _mat_vec(gsc, ell)
            + 0.5 * np.einsum("nijk,nj,nk->ni", hsc, ell, ell))
    integrand = _mat_vec(np.linalg.inv(rmats), term)
    # The identity's right side without its memory term eps^2 R cumulative.
    local = sv - rmats @ s0 - kvecs - eps * (wv - _mat_vec(dfb, vv))

    dt = np.diff(ts)
    cumulative = np.zeros((ts.size, d))
    cumulative[1:] = np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * dt[:, None], axis=0)
    memory = _mat_vec(rmats, cumulative)
    resid = np.max(np.abs(ell - (local + eps ** 2 * memory)), axis=1)

    worst_idx = int(np.argmax(resid))
    return ValidationReport(
        name="integral-identity",
        samples=ts.size,
        tolerance=_INTEGRAL_TOL,
        max_residual=float(resid[worst_idx]),
        details={"worst_t": float(ts[worst_idx]), "n_quad": n_quad,
                 "residual_at_t0": float(resid[0])},
    )


# ---------------------------------------------------------------------------


def verify_headline_bound(est: EstimatorTrajectory, dtraj: DirectTrajectory,
                          window: Optional[float] = None) -> ValidationReport:
    """Check |L(t)| <= n(eps*t) on the direct run's grid.

    Violations are counted only beyond ``_HEADLINE_REL_SLACK * n`` (roundoff);
    a NaN |L| or n is a violation.
    ``details`` reports the envelope tightness max(peak |L| / n) per window
    (window defaults to the covered slow span over ``ENVELOPE_WINDOWS``).
    A NaN gap or ratio ranks below every number, so the worst gap and the
    tightness describe the finite part of the run.
    """
    return _headline_bound(est, dtraj, window, None)


def _headline_bound(est: EstimatorTrajectory, dtraj: DirectTrajectory,
                    window: Optional[float],
                    peaks: Optional[list]) -> ValidationReport:
    """:func:`verify_headline_bound`, reading the tightness from ``peaks``,
    ``direct.envelope(dtraj, window)`` when the caller has it already, or
    from a fresh envelope when it is None."""
    eps = dtraj.eps
    t_hi = min(dtraj.t[-1], est.tau_final / eps)
    mask = dtraj.t <= t_hi * (1 + 1e-12)
    ts = dtraj.t[mask]
    mags = dtraj.abs_l[mask]

    n_vals = unpack_state(est.traj.sample_many(eps * ts), est.d)[4]
    gap = mags - n_vals
    bad = ~(gap <= _HEADLINE_REL_SLACK * np.abs(n_vals))
    violations = int(np.count_nonzero(bad))
    worst_idx = int(np.argmax(np.where(np.isnan(gap), -np.inf, gap)))

    span = eps * float(ts[-1]) if ts.size else 0.0
    win = window if window is not None else max(span / ENVELOPE_WINDOWS, 1e-12)
    tightness = 0.0
    tight_at = None
    if span > 0.0:
        if peaks is None:
            peaks = envelope(dtraj, win)
        taus, peaks = np.array(peaks).T
        inside = (eps * ts[0] <= taus) & (taus <= span)
        taus, peaks = taus[inside], peaks[inside]
        ratios = peaks / unpack_state(est.traj.sample_many(taus), est.d)[4]
        ratios = np.where(np.isnan(ratios), -np.inf, ratios)
        if ratios.size and ratios.max() > 0.0:
            best = int(np.argmax(ratios))
            tightness, tight_at = float(ratios[best]), float(taus[best])

    return ValidationReport(
        name="headline-bound",
        samples=int(ts.size),
        tolerance=0.0,
        violations=violations,
        details={
            "worst_gap": float(gap[worst_idx]),
            "worst_t": float(ts[worst_idx]),
            "tightness": float(tightness),
            "tightness_at_tau": tight_at,
            "envelope_window": win,
        },
    )


# ---------------------------------------------------------------------------


def analytic_crosscheck(example, traj: EstimatorTrajectory) -> ValidationReport:
    """Compare J, R, K along ``traj`` with an example's closed forms.

    ``example`` must carry a ``closed_flow`` (see
    :class:`averbound.examples.ExampleDefinition`); raises ``ValueError``
    otherwise.  Residuals are measured on the accepted integration grid;
    ``details`` holds the largest deviation of each of J, R and K.
    """
    if example.closed_flow is None:
        raise ValueError(f"example {example.id!r} has no closed-form slow flow")
    i0 = traj.j[0]
    # Deviations of J, R and K per node; np.max keeps a NaN one, which then
    # fails the report, where Python's max would drop it.
    devs = []
    for tau, j, r, k in zip(traj.tau, traj.j, traj.r, traj.k):
        cj, cr, ck = example.closed_flow(i0, tau)
        devs.append([np.max(np.abs(j - cj)), np.max(np.abs(r - cr)),
                     np.max(np.abs(k - ck))])
    max_j, max_r, max_k = np.max(devs, axis=0).tolist()
    return ValidationReport(
        name="analytic-crosscheck",
        samples=len(traj.tau),
        tolerance=CROSSCHECK_TOL,
        max_residual=float(np.max([max_j, max_r, max_k])),
        details={"max_j": max_j, "max_r": max_r, "max_k": max_k},
    )
