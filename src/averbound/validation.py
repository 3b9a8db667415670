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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .direct import DirectTrajectory, envelope
from .estimator import EstimatorTrajectory, unpack_state
from .model import TWO_PI, AuxiliaryBundle, BoundBundle, SystemSpec, frobenius

__all__ = [
    "ValidationReport",
    "verify_identities",
    "verify_bound_domination",
    "verify_integral_identity",
    "verify_headline_bound",
    "analytic_crosscheck",
]

IDENTITY_TOL = 1e-8
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
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
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
# Finite differences (5-point central: roundoff stays far below the 1e-8 gate)


def _five_point(at, h):
    """Derivative at 0 of ``at``, a function of the offset, with step h."""
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _d_theta(fn, i, th, h=_FD_REL):
    return _five_point(lambda dx: fn(i, th + dx), h)


def _d_plain(fn, i, j):
    def at(dx):
        ip = i.copy()
        ip[j] += dx
        return fn(ip)
    return _five_point(at, _FD_REL * abs(i[j]))


def _d_action(fn, i, th, j):
    return _d_plain(lambda ip: fn(ip, th), i, j)


def _jac_action(fn, i, th, d):
    return np.stack([_d_action(fn, i, th, j) for j in range(d)], axis=1)


def _action_grid(box, per_axis: int) -> List[np.ndarray]:
    lo, hi = box
    axes = [np.linspace(lo[j], hi[j], per_axis) for j in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [np.array(pt, dtype=float) for pt in zip(*(m.ravel() for m in mesh))]


def verify_identities(spec: SystemSpec, aux: AuxiliaryBundle,
                      sample_box) -> ValidationReport:
    """Residuals of every defining identity of the auxiliary bundle, and of
    the 2*pi-periodicity of f and g in the angle.

    Samples a grid of at least 100 (I, theta) points inside the given action
    box (assumed inside the domain); per-identity maxima land in
    ``details["per_identity"]``.
    """
    d = spec.d
    points = _action_grid(sample_box, 10 if d == 1 else 4)
    thetas = np.linspace(0.0, TWO_PI, 13)[:-1]
    th_quad = np.linspace(0.0, TWO_PI, _QUAD_THETA + 1)[:-1]

    worst: Dict[str, float] = {}
    worst_point: Dict[str, Tuple] = {}

    # f and fbar may return lists; the identities subtract their values.
    def f(i, th):
        return np.array(spec.f(i, th), dtype=float)

    def fbar(i):
        return np.array(aux.fbar(i), dtype=float)

    def record(key, value, point):
        value = float(value)
        if value > worst.get(key, -1.0):
            worst[key] = value
            worst_point[key] = point

    for i in points:
        if not spec.in_domain(i):
            raise ValueError(f"identity sample point {i} outside the domain")
        om = spec.omega(i)
        # torus averages (trapezoid is exact for trigonometric polynomials)
        for key, fn, mean in (("fbar_is_mean_f", f, fbar(i)),
                              ("pbar_is_mean_p", aux.p, aux.pbar(i)),
                              ("s_has_zero_mean", aux.s, 0.0)):
            record(key, np.max(np.abs(np.mean([fn(i, t) for t in th_quad], axis=0)
                                      - mean)), (i, None))
        for key, fn in (("v_zero_at_theta0", aux.v), ("w_zero_at_theta0", aux.w)):
            record(key, np.max(np.abs(fn(i, spec.theta0))), (i, spec.theta0))
        record("dfbar_is_jacobian",
               np.max(np.abs(np.stack([_d_plain(fbar, i, j) for j in range(d)],
                                       axis=1) - aux.dfbar(i))), (i, None))
        # m_script[i,j] = sum_k d2 fbar^i/(dI^k dI^j) fbar^k - (dfbar^2)[i,j]
        dfb = aux.dfbar(i)
        hess = np.stack([_d_plain(aux.dfbar, i, j) for j in range(d)], axis=2)
        m_def = np.einsum("ikj,k->ij", hess, fbar(i)) - dfb @ dfb
        record("m_script_definition", np.max(np.abs(m_def - aux.m_script(i))), (i, None))

        for th in thetas:
            fv = f(i, th)
            gv = spec.g(i, th)
            record("f_g_periodic",
                   max(np.max(np.abs(fv - f(i, th + TWO_PI))),
                       abs(gv - spec.g(i, th + TWO_PI))), (i, th))
            record("f_decomposition",
                   np.max(np.abs(fv - fbar(i) - om * _d_theta(aux.s, i, th))),
                   (i, th))
            record("s_from_v",
                   np.max(np.abs(aux.s(i, th) - om * _d_theta(aux.v, i, th))),
                   (i, th))
            record("p_decomposition",
                   np.max(np.abs(aux.p(i, th) - aux.pbar(i)
                                 - om * _d_theta(aux.w, i, th))), (i, th))
            # p, q, u are the transports of s, v, w along the flow.
            for key, moved, fn in (("p_definition", aux.p, aux.s),
                                   ("q_definition", aux.q, aux.v),
                                   ("u_definition", aux.u, aux.w)):
                record(key,
                       np.max(np.abs(moved(i, th) - (_jac_action(fn, i, th, d) @ fv
                                                     + _d_theta(fn, i, th) * gv))),
                       (i, th))

    # Taylor identities on segment increments inside the box.
    lo, hi = sample_box
    targets = _action_grid(sample_box, 3)
    for i in points[:: max(1, len(points) // 8)]:
        for tgt in targets:
            di = tgt - i
            if np.all(di == 0.0):
                continue
            record("pbar_taylor",
                   np.max(np.abs(aux.pbar(i + di) - aux.pbar(i)
                                 - aux.g_script(i, di) @ di)), (i, tuple(di)))
            hterm = 0.5 * np.einsum("ijk,j,k->i", aux.h_script(i, di), di, di)
            record("fbar_taylor",
                   np.max(np.abs(fbar(i + di) - fbar(i)
                                 - aux.dfbar(i) @ di - hterm)), (i, tuple(di)))
            hten = aux.h_script(i, di)
            record("h_script_symmetry",
                   np.max(np.abs(hten - hten.transpose(0, 2, 1))), (i, tuple(di)))

    overall = max(worst.values())
    key = max(worst, key=worst.get)
    return ValidationReport(
        name="auxiliary-identities",
        samples=len(points) * len(thetas),
        tolerance=IDENTITY_TOL,
        max_residual=overall,
        details={
            "per_identity": worst,
            "worst_identity": key,
            "worst_point": repr(worst_point[key]),
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


def _mat_vec(mats, vecs):
    """Products ``mats @ vecs`` over stacked leading axes.

    Each product runs the same (d, d) @ (d,) matmul core as one ``m @ v``,
    so every entry is bitwise equal to the per-point product.
    """
    return np.matmul(mats, vecs[..., None])[..., 0]


def _row_norms(rows):
    """:func:`frobenius` of each vector along the last axis, bitwise."""
    return np.sqrt(np.sum(rows * rows, axis=-1))


def verify_bound_domination(spec: SystemSpec, aux: AuxiliaryBundle,
                            bounds: BoundBundle,
                            est: EstimatorTrajectory) -> ValidationReport:
    """Count violations of the five majorant inequalities along ``est``.

    Stratified deterministic sampling in (tau, r/rho, theta) with increment
    directions enumerated (signs for d = 1, a fan of angles for d = 2).
    Also spot-checks that c, d, e are non-decreasing in the radius.  A NaN
    left side or majorant counts as a violation.

    The auxiliary functions are called once per sample point; per slow time
    and radius their values are stacked and the norms and margins taken on
    arrays.  ``details["worst"]`` maps each row "a" ... "e" to its first
    largest non-NaN margin in the order tau, radius, direction and, for the
    rows a, b, c, angle; a row without a number keeps margin -inf.
    """
    d = spec.d
    s0 = aux.s(spec.i0, spec.theta0)
    taus = (np.arange(_DOM_TAUS) + 0.5) / _DOM_TAUS * est.tau_final
    fracs = (np.arange(_DOM_RADII) + 0.5) / _DOM_RADII * _DOM_MAX_RADIUS_FRAC
    thetas = np.linspace(0.0, TWO_PI, _DOM_THETAS, endpoint=False)
    theta_list = list(thetas)
    dirs = _directions(d)
    shape = (len(dirs), _DOM_THETAS, d)

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
        prev = None
        for frac in fracs:
            r = frac * rho
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

            # Rows per direction: d, e, then a, b, c per angle.
            bound = np.array([d_val, e_val] + [a_val, b_val, c_val] * _DOM_THETAS,
                             dtype=float)
            lhs = np.empty((len(dirs), bound.size))
            sv, wv, vv, uv, qv = (np.empty(shape) for _ in range(5))
            for idir, direction in enumerate(dirs):
                dj = r * direction
                i_pt = j + dj
                lhs[idir, 0] = frobenius(aux.g_script(j, dj))
                lhs[idir, 1] = frobenius(aux.h_script(j, dj))
                for ith, th in enumerate(theta_list):
                    at = (idir, ith)
                    sv[at] = aux.s(i_pt, th)
                    wv[at] = aux.w(i_pt, th)
                    vv[at] = aux.v(i_pt, th)
                    uv[at] = aux.u(i_pt, th)
                    qv[at] = aux.q(i_pt, th)
            lhs[:, 2::3] = _row_norms(sv - base)
            lhs[:, 3::3] = _row_norms(wv - _mat_vec(dfb, vv))
            lhs[:, 4::3] = _row_norms(uv - _mat_vec(dfb, wv + qv)
                                      - _mat_vec(msc, vv))

            margin = lhs - bound
            slack = _DOM_REL_SLACK * np.maximum(1.0, bound) + _DOM_ABS_SLACK
            samples += margin.size
            violations += int(np.count_nonzero(~(margin <= slack)))

            ranked = np.where(np.isnan(margin), -np.inf, margin)
            for row, columns in _DOM_COLUMNS.items():
                block = ranked[:, columns]
                idir, col = np.unravel_index(int(np.argmax(block)), block.shape)
                if block[idir, col] > worst[row]["margin"]:
                    point = {"margin": block[idir, col], "tau": tau, "r": r}
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

    The auxiliary functions are called once per node; the algebra after
    them runs on the stacked values of the whole grid.
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

    vec, mat = (ts.size, d), (ts.size, d, d)
    gsc, dfb, msc = np.empty(mat), np.empty(mat), np.empty(mat)
    hsc = np.empty((ts.size, d, d, d))
    sv, wv, vv, uv, qv = (np.empty(vec) for _ in range(5))
    for idx, (j, step, act, theta) in enumerate(zip(js, steps, actions, thetas)):
        gsc[idx] = aux.g_script(j, step)
        hsc[idx] = aux.h_script(j, step)
        dfb[idx] = aux.dfbar(j)
        wv[idx] = aux.w(act, theta)
        vv[idx] = aux.v(act, theta)
        uv[idx] = aux.u(act, theta)
        qv[idx] = aux.q(act, theta)
        msc[idx] = aux.m_script(j)
        sv[idx] = aux.s(act, theta)

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
        taus, peaks = np.array(envelope(dtraj, win)).T
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
    max_j = max_r = max_k = 0.0
    for tau, j, r, k in zip(traj.tau, traj.j, traj.r, traj.k):
        cj, cr, ck = example.closed_flow(i0, tau)
        max_j = max(max_j, float(np.max(np.abs(j - cj))))
        max_r = max(max_r, float(np.max(np.abs(r - cr))))
        max_k = max(max_k, float(np.max(np.abs(k - ck))))
    return ValidationReport(
        name="analytic-crosscheck",
        samples=len(traj.tau),
        tolerance=CROSSCHECK_TOL,
        max_residual=max(max_j, max_r, max_k),
        details={"max_j": max_j, "max_r": max_r, "max_k": max_k},
    )
