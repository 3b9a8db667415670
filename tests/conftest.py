"""Shared fixtures: example definitions and cached short runs."""
import dataclasses
import math

import numpy as np
import pytest

import averbound as ab
from averbound import estimator, validation
from averbound.estimator import unpack_state
from averbound.model import TWO_PI, frobenius, growth_value, offset_value
from averbound.ode import _FLOAT_E, _FLOAT_STAGES


@pytest.fixture(scope="session")
def vdp():
    return ab.make_vdp()


@pytest.fixture(scope="session")
def resonant():
    return ab.make_resonant()


@pytest.fixture(scope="session")
def af_plus():
    return ab.make_action_freq(1)


@pytest.fixture(scope="session")
def af_minus():
    return ab.make_action_freq(-1)


@pytest.fixture(scope="session")
def euler():
    return ab.make_euler_top(1.0, 2.0, -1.0)


@pytest.fixture(scope="session")
def resonant_run(resonant):
    """Resonant system, I0=2, eps=1e-2, U=1: estimator plus direct run."""
    spec = resonant.make_system([2.0], 1e-2)
    est = ab.run_estimator(spec, resonant.aux, resonant.bounds, 1.0)
    avg = ab.run_averaged(spec, resonant.aux, 1.0)
    dtraj = ab.run_direct(spec, resonant.aux, avg, 1.0)
    return spec, est, avg, dtraj


def _hermite(t, t0, t1, y0, y1, f0, f1):
    """The cubic Hermite interpolant in the Hermite basis, as ``ode``
    evaluated it before every dense output took the one Horner form."""
    h = t1 - t0
    x = (t - t0) / h
    x2 = x * x
    x3 = x2 * x
    return ((2 * x3 - 3 * x2 + 1) * y0 + (x3 - 2 * x2 + x) * h * f0
            + (-2 * x3 + 3 * x2) * y1 + (x3 - x2) * h * f1)


def hermite_reference(traj, t):
    """Dense output at one time by the per-point loop in the Hermite basis
    that ``Trajectory.sample_many`` once matched bit for bit; the Horner
    form stays within a few ulp of it."""
    times = traj.times
    t0, t1 = times[0], times[-1]
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    if t < t0 - slack or t > t1 + slack:
        raise ValueError(f"sample time {t} outside trajectory span [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    idx = int(np.searchsorted(times, t, side="right") - 1)
    if idx >= len(times) - 1:
        return traj.states[-1].copy()
    if t == times[idx]:
        return traj.states[idx].copy()
    return _hermite(t, times[idx], times[idx + 1], traj.states[idx],
                    traj.states[idx + 1], traj.derivs[idx], traj.derivs[idx + 1])


def cursor_reference(traj, ts):
    """Dense output at the times ``ts`` by a per-point loop over the cursor
    sampler's ``into``, with the node, end and clamping rules of
    ``Trajectory.sample_many``: the reference it must match bit for bit."""
    times = traj.times
    t0, t1 = times[0], times[-1]
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    samp = traj.sampler()
    out = np.empty((len(ts), traj.states.shape[1]))
    for row, t in zip(out, ts):
        if t < t0 - slack or t > t1 + slack:
            raise ValueError(f"sample time {t} outside trajectory span [{t0}, {t1}]")
        t = min(max(t, t0), t1)
        idx = int(np.searchsorted(times, t, side="right") - 1)
        if idx >= len(times) - 1 or t == times[idx]:
            row[:] = traj.states[idx]
        else:
            samp.into(t, row, row.size)
    return out


def float_kernel_reference(rhs, size, rtol, atol):
    """``ode._float_kernel`` as loops over the weights, as it was before the
    step was generated as straight-line code: the reference that step must
    match bit for bit."""
    def step(t, y, f, h):
        ks = [f]
        for c, weights in _FLOAT_STAGES:
            terms = [(a * h, ks[j]) for j, a in weights]
            ys = []
            i = 0
            for b in y:
                acc = 0.0
                for w, k in terms:
                    acc += w * k[i]
                ys.append(b + acc)
                i += 1
            ks.append(rhs(t + c * h, ys))
        terms = [(a * h, ks[j]) for j, a in _FLOAT_E]
        err = 0.0
        i = 0
        for yn, b in zip(ys, y):
            acc = 0.0
            for w, k in terms:
                acc += w * k[i]
            i += 1
            e = abs(acc) / (max(abs(yn), abs(b)) * rtol + atol)
            if e != e or not abs(yn) < math.inf:
                err = math.nan
                break
            if e > err:
                err = e
        return err, ys, ks[-1]
    return step


def toy_linear_decay(eps=1e-2, i0=2.0, d=1):
    """System with f independent of the angle: the scaled error vanishes.

    f = fbar = -I on d actions, each starting at i0, omega = 1, g = 0; all
    conjugation functions are zero and constant bounds keep the estimator
    well-posed.  f, fbar and the domain run on lists and ndarrays alike.
    """
    aux = ab.AuxiliaryBundle(
        fbar=lambda i: [-x for x in i],
        dfbar=lambda i: -np.eye(d),
        s=lambda i, th: np.zeros(d),
        v=lambda i, th: np.zeros(d),
        p=lambda i, th: np.zeros(d),
        pbar=lambda i: np.zeros(d),
        q=lambda i, th: np.zeros(d),
        w=lambda i, th: np.zeros(d),
        u=lambda i, th: np.zeros(d),
        m_script=lambda i: -np.eye(d),
        g_script=lambda i, di: np.zeros((d, d)),
        h_script=lambda i, di: np.zeros((d, d, d)),
    )
    bounds = ab.BoundBundle(
        rho_hat=lambda j: float(np.min(j)),
        a_hat=lambda j, r_mat, k, r: 0.01,
        b_hat=lambda j, r: 0.01,
        c_hat=lambda j, r: 0.01,
        d_hat=lambda j, r: 0.0,
        e_hat=lambda j, r: 0.0,
    )
    spec = ab.SystemSpec(
        d=d, epsilon=eps,
        omega=lambda i: 1.0,
        f=lambda i, th: [-x for x in i],
        g=lambda i, th: 0.0,
        in_domain=lambda i: all(x > 0.0 for x in i),
        i0=np.full(d, i0),
    )
    return spec, aux, bounds


def direct_reference(spec, aux, avg_traj):
    """The direct run's right-hand side and stop predicate on numpy arrays,
    as they were before the run stepped lists of floats: the reference the
    list right-hand side must match bit for bit.  Both read J(eps*t) from
    one fresh cursor sampler, as the direct run does."""
    eps, d = spec.epsilon, spec.d
    sample = avg_traj.sampler()
    tau_max = avg_traj.t_final
    jbuf = np.empty(d)

    def rhs(t, y):
        tau = eps * t
        sample.into(tau if tau < tau_max else tau_max, jbuf, d)
        actions = jbuf + eps * y[:d]
        theta = y[d]
        out = np.empty(d + 1)
        out[:d] = np.array(spec.f(actions, theta)) - np.array(aux.fbar(jbuf))
        out[d] = spec.omega(actions) + eps * spec.g(actions, theta)
        return out

    def stop(t, y):
        tau = eps * t
        sample.into(tau if tau < tau_max else tau_max, jbuf, d)
        return not spec.in_domain(jbuf + eps * y[:d])

    return rhs, stop


def _d_theta(fn, i, th):
    return validation._five_point(lambda dx: fn(i, th + dx), validation._FD_REL)


def _d_plain(fn, i, j):
    def at(dx):
        ip = i.copy()
        ip[j] += dx
        return fn(ip)
    return validation._five_point(at, validation._FD_REL * abs(i[j]))


def _jac_action(fn, i, th, d):
    return np.stack([_d_plain(lambda ip: fn(ip, th), i, j) for j in range(d)],
                    axis=1)


def identities_reference(spec, aux, sample_box):
    """``verify_identities`` as a loop over sample points and angles, as it
    was before the members were called on the stack of points: the
    reference the library's report must equal through ``to_dict()``.  Its
    worst point is written as numbers, as the library writes it."""
    d = spec.d
    points = list(validation._action_grid(sample_box, 10 if d == 1 else 4))
    thetas = np.linspace(0.0, TWO_PI, 13)[:-1]
    th_quad = np.linspace(0.0, TWO_PI, validation._QUAD_THETA + 1)[:-1]

    worst = {}
    worst_point = {}

    def f(i, th):
        return np.array(spec.f(i, th), dtype=float)

    def fbar(i):
        return np.array(aux.fbar(i), dtype=float)

    def record(key, value, point):
        value = float(value)
        if value > worst.get(key, -1.0):
            worst[key] = value
            worst_point[key] = point

    def sample(i, th=None, di=None):
        return {"actions": i.tolist(),
                "theta": None if th is None else float(th),
                "increment": None if di is None else di.tolist()}

    for i in points:
        if not spec.in_domain(i):
            raise ValueError(f"identity sample point {i} outside the domain")
        om = spec.omega(i)
        for key, fn, mean in (("fbar_is_mean_f", f, fbar(i)),
                              ("pbar_is_mean_p", aux.p, aux.pbar(i)),
                              ("s_has_zero_mean", aux.s, 0.0)):
            record(key, np.max(np.abs(np.mean([fn(i, t) for t in th_quad], axis=0)
                                      - mean)), sample(i))
        for key, fn in (("v_zero_at_theta0", aux.v), ("w_zero_at_theta0", aux.w)):
            record(key, np.max(np.abs(fn(i, spec.theta0))), sample(i, spec.theta0))
        record("dfbar_is_jacobian",
               np.max(np.abs(np.stack([_d_plain(fbar, i, j) for j in range(d)],
                                       axis=1) - aux.dfbar(i))), sample(i))
        dfb = aux.dfbar(i)
        hess = np.stack([_d_plain(aux.dfbar, i, j) for j in range(d)], axis=2)
        m_def = np.einsum("ikj,k->ij", hess, fbar(i)) - dfb @ dfb
        record("m_script_definition", np.max(np.abs(m_def - aux.m_script(i))),
               sample(i))

        for th in thetas:
            fv = f(i, th)
            gv = spec.g(i, th)
            record("f_g_periodic",
                   max(np.max(np.abs(fv - f(i, th + TWO_PI))),
                       abs(gv - spec.g(i, th + TWO_PI))), sample(i, th))
            record("f_decomposition",
                   np.max(np.abs(fv - fbar(i) - om * _d_theta(aux.s, i, th))),
                   sample(i, th))
            record("s_from_v",
                   np.max(np.abs(aux.s(i, th) - om * _d_theta(aux.v, i, th))),
                   sample(i, th))
            record("p_decomposition",
                   np.max(np.abs(aux.p(i, th) - aux.pbar(i)
                                 - om * _d_theta(aux.w, i, th))), sample(i, th))
            for key, moved, fn in (("p_definition", aux.p, aux.s),
                                   ("q_definition", aux.q, aux.v),
                                   ("u_definition", aux.u, aux.w)):
                record(key,
                       np.max(np.abs(moved(i, th) - (_jac_action(fn, i, th, d) @ fv
                                                     + _d_theta(fn, i, th) * gv))),
                       sample(i, th))

    targets = validation._action_grid(sample_box, 3)
    for i in points[:: max(1, len(points) // 8)]:
        for tgt in targets:
            di = tgt - i
            if np.all(di == 0.0):
                continue
            record("pbar_taylor",
                   np.max(np.abs(aux.pbar(i + di) - aux.pbar(i)
                                 - aux.g_script(i, di) @ di)), sample(i, di=di))
            hterm = 0.5 * np.einsum("ijk,j,k->i", aux.h_script(i, di), di, di)
            record("fbar_taylor",
                   np.max(np.abs(fbar(i + di) - fbar(i)
                                 - aux.dfbar(i) @ di - hterm)), sample(i, di=di))
            hten = aux.h_script(i, di)
            record("h_script_symmetry",
                   np.max(np.abs(hten - hten.transpose(0, 2, 1))), sample(i, di=di))

    key = max(worst, key=worst.get)
    return validation.ValidationReport(
        name="auxiliary-identities",
        samples=len(points) * len(thetas),
        tolerance=validation.IDENTITY_TOL,
        max_residual=max(worst.values()),
        details={"per_identity": worst, "worst_identity": key,
                 "worst_point": worst_point[key]},
    )


def domination_reference(spec, aux, bounds, est):
    """``verify_bound_domination`` as a loop over sample points, as it was
    before the margins were taken on stacked arrays: the reference the
    library's report must equal through ``to_dict()``, with the worst point
    of each majorant row.  It predates the NaN rule, so it is compared only
    on runs without NaN."""
    d = spec.d
    s0 = aux.s(spec.i0, spec.theta0)
    taus = ((np.arange(validation._DOM_TAUS) + 0.5) / validation._DOM_TAUS
            * est.tau_final)
    fracs = ((np.arange(validation._DOM_RADII) + 0.5) / validation._DOM_RADII
             * validation._DOM_MAX_RADIUS_FRAC)
    thetas = np.linspace(0.0, TWO_PI, validation._DOM_THETAS, endpoint=False)
    dirs = validation._directions(d)

    violations = 0
    samples = 0
    worst = {row: {"margin": -np.inf} for row in "abcde"}
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
                if (c_val < prev[0] - 1e-12 or d_val < prev[1] - 1e-12
                        or e_val < prev[2] - 1e-12):
                    monotone_bad += 1
            prev = (c_val, d_val, e_val)

            for direction in dirs:
                dj = r * direction
                i_pt = j + dj
                rows = [("d", frobenius(aux.g_script(j, dj)), d_val, None),
                        ("e", frobenius(aux.h_script(j, dj)), e_val, None)]
                for th in thetas:
                    sv = aux.s(i_pt, th)
                    wv = aux.w(i_pt, th)
                    vv = aux.v(i_pt, th)
                    uv = aux.u(i_pt, th)
                    qv = aux.q(i_pt, th)
                    rows += [("a", frobenius(sv - base), a_val, th),
                             ("b", frobenius(wv - dfb @ vv), b_val, th),
                             ("c", frobenius(uv - dfb @ (wv + qv) - msc @ vv),
                              c_val, th)]
                for name, lhs, bound, th in rows:
                    samples += 1
                    margin = lhs - bound
                    if margin > (validation._DOM_REL_SLACK * max(1.0, bound)
                                 + validation._DOM_ABS_SLACK):
                        violations += 1
                    if margin > worst[name]["margin"]:
                        point = {"margin": margin, "tau": tau, "r": r}
                        if th is not None:
                            point["theta"] = th
                        point["direction"] = direction.tolist()
                        worst[name] = point

    violations += monotone_bad
    return validation.ValidationReport(
        name="bound-domination",
        samples=samples,
        tolerance=0.0,
        violations=violations,
        details={"worst": worst, "monotonicity_failures": monotone_bad},
    )


def integral_identity_reference(spec, aux, est, dtraj, n_quad=2048):
    """``verify_integral_identity`` as a loop over quadrature nodes, as it
    was before the algebra after the auxiliary calls ran on stacked arrays:
    the reference the library's report must equal through ``to_dict()``."""
    eps = spec.epsilon
    d = spec.d
    t_hi = min(dtraj.t[-1], est.tau_final / eps)
    ts = np.linspace(0.0, t_hi, n_quad + 1)

    ell = np.empty((ts.size, d))
    integrand = np.empty((ts.size, d))
    local = np.empty((ts.size, d))

    s0 = aux.s(spec.i0, spec.theta0)
    samples_fast = dtraj.traj.sample_many(ts)
    samples_slow = est.traj.sample_many(eps * ts)
    rmats = unpack_state(samples_slow, d)[1]
    for idx, packed in enumerate(samples_slow):
        j, rmat, kvec, _, _ = unpack_state(packed, d)
        lvec = samples_fast[idx, :d]
        theta = samples_fast[idx, d]
        actions = j + eps * lvec
        ell[idx] = lvec
        rinv = np.linalg.inv(rmat)
        gsc = aux.g_script(j, eps * lvec)
        hsc = aux.h_script(j, eps * lvec)
        dfb = aux.dfbar(j)
        wv = aux.w(actions, theta)
        vv = aux.v(actions, theta)
        term = (aux.u(actions, theta)
                - dfb @ (wv + aux.q(actions, theta))
                - aux.m_script(j) @ vv
                - gsc @ lvec
                + 0.5 * np.einsum("ijk,j,k->i", hsc, lvec, lvec))
        integrand[idx] = rinv @ term
        local[idx] = aux.s(actions, theta) - rmat @ s0 - kvec - eps * (wv - dfb @ vv)

    dt = np.diff(ts)
    cumulative = np.zeros((ts.size, d))
    cumulative[1:] = np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * dt[:, None], axis=0)
    memory = np.array([rmat @ c for rmat, c in zip(rmats, cumulative)])
    resid = np.max(np.abs(ell - (local + eps ** 2 * memory)), axis=1)

    worst_idx = int(np.argmax(resid))
    return validation.ValidationReport(
        name="integral-identity",
        samples=ts.size,
        tolerance=validation._INTEGRAL_TOL,
        max_residual=float(resid[worst_idx]),
        details={"worst_t": float(ts[worst_idx]), "n_quad": n_quad,
                 "residual_at_t0": float(resid[0])},
    )


def frobenius_reference(x):
    """``model.frobenius`` as it was, on ``np.sum`` and ``np.sqrt``."""
    arr = np.asarray(x, dtype=float)
    return float(np.sqrt(np.sum(arr * arr)))


def invert_reference(rmat):
    """R^-1 with |R| and |R^-1| on ndarrays and numpy scalars, as the slow
    right-hand side took them before ``estimator._inverse_norms``."""
    d = rmat.shape[0]
    if d == 1:
        val = rmat[0, 0]
        if val == 0.0:
            raise estimator.SingularMatrixError("fundamental matrix is zero")
        inv = np.array([[1.0 / val]])
    elif d == 2:
        det = rmat[0, 0] * rmat[1, 1] - rmat[0, 1] * rmat[1, 0]
        if det == 0.0:
            raise estimator.SingularMatrixError("fundamental matrix is singular")
        inv = np.array([[rmat[1, 1], -rmat[0, 1]],
                        [-rmat[1, 0], rmat[0, 0]]]) / det
    else:
        try:
            inv = np.linalg.solve(rmat, np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise estimator.SingularMatrixError(str(exc)) from exc
    norm_r, norm_inv = frobenius_reference(rmat), frobenius_reference(inv)
    if norm_r * norm_inv > estimator._COND_LIMIT:
        raise estimator.SingularMatrixError("condition estimate of R exceeds 1e12")
    return inv, norm_r, norm_inv


def _alpha_tau_reference(bounds, j, rmat, k, r, eps, dj, drmat, dk):
    """The finite-difference branch of ``_alpha_tau_derivative`` indexing
    ndarrays, as it was."""
    fd = estimator._FD_STEP
    total = 0.0
    d = j.shape[0]
    for i in range(d):
        if dj[i] == 0.0:
            continue
        h = fd * max(1.0, abs(j[i]))
        jp = j.copy(); jp[i] += h
        jm = j.copy(); jm[i] -= h
        total += dj[i] * (offset_value(bounds, jp, rmat, k, r, eps)
                          - offset_value(bounds, jm, rmat, k, r, eps)) / (2 * h)
    for a in range(d):
        for b in range(d):
            if drmat[a, b] == 0.0:
                continue
            h = fd * max(1.0, abs(rmat[a, b]))
            rp = rmat.copy(); rp[a, b] += h
            rm = rmat.copy(); rm[a, b] -= h
            total += drmat[a, b] * (bounds.a_hat(j, rp, k, r)
                                    - bounds.a_hat(j, rm, k, r)) / (2 * h)
    for i in range(d):
        if dk[i] == 0.0:
            continue
        h = fd * max(1.0, abs(k[i]))
        kp = k.copy(); kp[i] += h
        km = k.copy(); km[i] -= h
        total += dk[i] * (bounds.a_hat(j, rmat, kp, r)
                          - bounds.a_hat(j, rmat, km, r)) / (2 * h)
    return float(total)


def analytic_partials_reference(bounds, j, rmat, k, r, eps, dj, drmat, dk):
    """The analytic branches of ``_dalpha_dr`` and ``_alpha_tau_derivative``
    as they were: (d(offset)/dr, d(offset)/dtau) by ``np.sum``, each
    calling ``a_grad`` and ``b_grad`` itself."""
    dal_dr = float(bounds.a_grad(j, rmat, k, r)[3] + eps * bounds.b_grad(j, r)[1])
    ga_j, ga_r, ga_k, _ = bounds.a_grad(j, rmat, k, r)
    total = (np.sum(ga_j * dj) + np.sum(ga_r * drmat) + np.sum(ga_k * dk))
    return dal_dr, float(total + eps * np.sum(bounds.b_grad(j, r)[0] * dj))


def without_gradients(bounds):
    """``bounds`` without ``a_grad`` and ``b_grad``: the estimator takes
    central differences."""
    return dataclasses.replace(bounds, a_grad=None, b_grad=None)


def slow_rhs_reference(spec, aux, bounds):
    """``estimator.assemble_slow_rhs`` as it was before it read n, the
    entries of R and the finite-difference weights as Python floats, and
    before it took both offset partials from one ``a_grad`` and one
    ``b_grad`` call: every number a numpy scalar, the inverse an ndarray,
    the contractions by ``np.sum`` and the state packed by
    ``np.concatenate``.  It is the reference the slow right-hand side must
    match bit for bit, with and without analytic gradients."""
    eps = spec.epsilon
    d = spec.d

    def rhs(tau, y):
        j, rmat, k, m, n = unpack_state(y, d)
        amat = aux.dfbar(j)
        dj = np.array(aux.fbar(j), dtype=float)
        drmat = amat @ rmat
        dk = amat @ k + aux.pbar(j)

        _, norm_r, norm_rinv = invert_reference(rmat)
        radius = eps * n
        gam = growth_value(bounds, j, radius, n)
        dm = norm_rinv * gam

        if bounds.a_grad is None:
            dal_dr = estimator._dalpha_dr(bounds, j, rmat, k, radius, eps)
            dal_dtau = _alpha_tau_reference(bounds, j, rmat, k, radius, eps,
                                            dj, drmat, dk)
        else:
            dal_dr, dal_dtau = analytic_partials_reference(
                bounds, j, rmat, k, radius, eps, dj, drmat, dk)
        denom = 1.0 - eps * dal_dr
        dn = (dal_dtau + eps * norm_r * norm_rinv * gam
              + eps * float(np.sum(rmat * drmat)) / norm_r * m) / denom
        return np.concatenate([np.ravel(dj), np.ravel(drmat), np.ravel(dk),
                               [dm, dn]])

    return rhs
