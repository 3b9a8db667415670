"""Shared fixtures: example definitions and cached short runs."""
import dataclasses
import math
import time
from array import array

import numpy as np
import pytest

import averbound as ab
from averbound import direct, estimator, ode, validation
from averbound.estimator import unpack_state
from averbound.model import TWO_PI, frobenius, growth_value, offset_value
from averbound.ode import _E, _STAGES


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
    samp = ode.CubicSampler(traj)
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


def _nonzero(row):
    return [(j, a) for j, a in enumerate(row) if a]


# The tableau of ``ode`` as (stage index, weight) pairs, zero weights dropped.
_REF_STAGES = [(c, _nonzero(row)) for c, row in _STAGES]
_REF_E = _nonzero(_E)


def float_kernel_reference(rhs, size, rtol, atol):
    """``ode._float_kernel`` as loops over the weights, as it was before the
    step was generated as straight-line code: the reference that step must
    match bit for bit, with its count of ``rhs`` calls.  It reads the one
    tableau ``ode._STAGES``/``ode._E`` and drops the zero weights itself."""
    calls = 0

    def step(t, y, f, h):
        nonlocal calls
        ks = [f]
        for c, weights in _REF_STAGES:
            terms = [(a * h, ks[j]) for j, a in weights]
            ys = []
            i = 0
            for b in y:
                acc = 0.0
                for w, k in terms:
                    acc += w * k[i]
                ys.append(b + acc)
                i += 1
            calls += 1
            ks.append(rhs(t + c * h, ys))
        terms = [(a * h, ks[j]) for j, a in _REF_E]
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
    return step, lambda: calls


def one_step_run(run, t, y, f, h, stop=None):
    """One step attempt of a generated ``run`` (``ode._run_source``) from
    (t, y) with slope f and step size h: an endless span and a cap of one
    attempt.  Returns the run's result and its node buffers ``(times,
    states, derivs)``, which hold the new node when the step is accepted."""
    buffers = array("d", (t,)), array("d", y), array("d", f)
    return run(t, list(y), list(f), h, math.inf, 0.0, 1, *buffers,
               stop), buffers


def integrate_reference(problem, rtol=ode.DEFAULT_RTOL, atol=ode.DEFAULT_ATOL,
                        stop=None, first_step=None, kernel=None):
    """``ode._integrate`` as it was before the adaptive run was generated:
    a Python loop over a step ``kernel``, ``(step, stage_calls)`` as
    ``float_kernel_reference`` returns them (by default on ``problem.rhs``),
    with the builtins ``min`` and ``max`` in the controller.  The generated
    run must match it bit for bit: nodes, states, slopes, status, stop and
    every ``StepStats`` field.  It reads ``ode._MAX_STEPS`` when it is
    called, so a patched cap holds for both."""
    rhs = problem.rhs
    t_end = problem.t_end
    t = problem.t0
    y = problem.y0.tolist()
    f_raw = rhs(t, y)
    rhs_evals, stop_calls = 1, 0

    def counted_stop(t, y):
        nonlocal stop_calls
        stop_calls += 1
        return stop(t, y)

    f0 = np.asarray(f_raw, dtype=float)
    if f0.shape != problem.y0.shape:
        raise ValueError(
            f"rhs must return shape {problem.y0.shape}, got {f0.shape}")
    if stop is not None:
        stop_calls += 1
        if stop(t, y):
            raise ValueError("stop predicate already true at the initial state")

    span = t_end - problem.t0
    h_min = ode._HMIN_REL * span
    if first_step is not None and first_step > 0.0:
        h, rhs_error = min(first_step, span), None
    else:
        rhs_evals += 1
        h, rhs_error = ode._initial_step(rhs, t, problem.y0, f0, t_end,
                                         rtol, atol)

    size = len(y)
    if kernel is None:
        step_rhs = rhs if isinstance(f_raw, list) else (
            lambda t, y: np.asarray(rhs(t, y), dtype=float).tolist())
        kernel = float_kernel_reference(step_rhs, size, rtol, atol)
    step, stage_calls = kernel
    stage_calls_before = stage_calls()
    f = f0.tolist()
    times, states, derivs = [t], [y], [f]
    fac_old = 1e-4
    just_rejected = False
    steps = nan_retries = 0
    h_lo = h_hi = None
    status = ode.Status.COMPLETED
    stop_time = stop_reason = None

    while t < t_end:
        if steps >= ode._MAX_STEPS or not h >= h_min:
            status = ode.Status.STEP_FAILURE
            break
        h = min(h, t_end - t)
        steps += 1

        try:
            err, y_new, f_new = step(t, y, f, h)
        except ode._RHS_ERRORS as exc:
            err = math.nan
            rhs_error = f"{type(exc).__name__}: {exc}"

        if not err <= 1.0:
            if math.isnan(err):
                h *= 0.5
                nan_retries += 1
            else:
                h = h / min(1 / ode._FAC_MIN, (err ** ode._EXPO) / ode._SAFETY)
            just_rejected = True
            continue

        t_new = t + h
        times.append(t_new)
        states.append(y_new)
        derivs.append(f_new)
        if h_lo is None or h < h_lo:
            h_lo = h
        if h_hi is None or h > h_hi:
            h_hi = h

        if stop is not None:
            stop_calls += 1
            if reason := stop(t_new, y_new):
                stop_time, y_stop, f_stop, stop_reason = ode._localize_stop(
                    counted_stop, reason, t, t_new,
                    *map(np.asarray, (y, y_new, f, f_new)))
                times[-1] = stop_time
                states[-1] = np.asarray(y_stop).tolist()
                derivs[-1] = np.asarray(f_stop).tolist()
                status = ode.Status.STOPPED
                break

        fac = ((err ** ode._EXPO) / (fac_old ** ode._BETA) if err > 0.0
               else 1 / ode._FAC_MAX)
        fac = max(1 / ode._FAC_MAX, min(1 / ode._FAC_MIN, fac / ode._SAFETY))
        if just_rejected:
            fac = max(fac, 1.0)
        h = h / fac
        fac_old = max(err, 1e-4)
        just_rejected = False
        t = t_new
        y = y_new
        f = f_new

    if any(len(row) != size for row in derivs):
        raise ValueError(f"rhs must return {size} values at every call")
    accepted = len(times) - 1
    rhs_evals += stage_calls() - stage_calls_before
    return ode.Trajectory(
        times=np.array(times),
        states=np.array(states, dtype=float).reshape(-1, size),
        derivs=np.array(derivs, dtype=float).reshape(-1, size),
        status=status,
        stop_time=stop_time,
        stop_reason=stop_reason,
        stats=ode.StepStats(accepted=accepted, rejected=steps - accepted,
                            nan_retries=nan_retries, rhs_evals=rhs_evals,
                            stop_calls=stop_calls, h_min=h_lo, h_max=h_hi,
                            rhs_error=rhs_error),
    )


def _concat_reference(pieces, status):
    """The pieces of a chunked run as one trajectory: each later piece
    without its first node, the end of its predecessor, and the stats
    summed."""
    times = [pieces[0].times]
    states = [pieces[0].states]
    derivs = [pieces[0].derivs]
    stats = pieces[0].stats
    for piece in pieces[1:]:
        times.append(piece.times[1:])
        states.append(piece.states[1:])
        derivs.append(piece.derivs[1:])
        stats += piece.stats
    return ode.Trajectory(
        times=np.concatenate(times),
        states=np.vstack(states),
        derivs=np.vstack(derivs),
        status=status,
        stop_time=pieces[-1].stop_time,
        stop_reason=pieces[-1].stop_reason,
        stats=stats,
    )


def chunks_reference(integrate_chunk, problem, first_step, chunks,
                     out_of_time=None):
    """The chunk loop of ``direct.run_direct`` as it was before
    ``ode._integrate`` ran the chunks, and its ``_concat``: ``problem`` in
    ``chunks`` chunks, each a problem of its own integrated by
    ``integrate_chunk(chunk_problem, first_step)``, the later ones from the
    largest of the last steps of their predecessor, merged into one
    trajectory.  ``out_of_time()``, when given, is asked after every
    completed chunk.  Returns the trajectory and whether ``out_of_time``
    ended it."""
    t_end = problem.t_end
    chunk = (t_end - problem.t0) / chunks
    y = problem.y0
    t = problem.t0
    h_warm = first_step
    pieces = []
    budget_hit = False
    status = ode.Status.COMPLETED
    while t < t_end:
        t_next = min(t + chunk, t_end)
        if t_end - t_next < 0.5 * chunk:
            t_next = t_end
        piece = integrate_chunk(
            ode.IvpProblem(rhs=problem.rhs, t0=t, y0=y, t_end=t_next), h_warm)
        pieces.append(piece)
        status = piece.status
        if piece.status is not ode.Status.COMPLETED:
            break
        t = piece.t_final
        y = piece.states[-1]
        # last step is clipped to the chunk end; take the recent maximum
        h_warm = float(np.max(np.diff(piece.times[-6:])))
        if out_of_time is not None and out_of_time():
            budget_hit = True
            status = ode.Status.STEP_FAILURE
            break
    return _concat_reference(pieces, status), budget_hit


def run_direct_reference(spec, aux, avg_traj, u, rtol=ode.DEFAULT_RTOL,
                         atol=ode.DEFAULT_ATOL,
                         time_budget=direct.DEFAULT_BUDGET_S):
    """``direct.run_direct`` as it was before ``ode._integrate`` ran its
    chunks: one ``ode._integrate`` call per chunk, each building its own
    trajectory, merged by ``chunks_reference``.  The run must match it bit
    for bit: nodes, states, slopes, status, stop, every ``StepStats`` field
    and ``budget_exceeded``.  It asks ``time.perf_counter`` as often as the
    run does: at the start, after every completed chunk and at the end."""
    eps, d = spec.epsilon, spec.d
    start = time.perf_counter()
    rhs, stop, kernel = direct._direct_functions(spec, aux, avg_traj, rtol,
                                                 atol)
    problem = ode.IvpProblem(rhs=rhs, t0=0.0, t_end=u / eps,
                             y0=np.concatenate([np.zeros(d), [spec.theta0]]))
    traj, budget_hit = chunks_reference(
        lambda chunk, h_warm: ode._integrate(chunk, rtol, atol, stop, h_warm,
                                             kernel),
        problem, None, direct._BUDGET_CHUNKS,
        lambda: time.perf_counter() - start > time_budget)
    return direct.DirectTrajectory(
        d=d, eps=eps, traj=traj, budget_exceeded=budget_hit,
        wall_time_s=time.perf_counter() - start)


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
    sample = ode.CubicSampler(avg_traj)
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


def envelope_reference(dtraj, window):
    """``direct.envelope`` as it was before it took one slice per window: a
    mask over the whole grid per distinct window index."""
    taus = dtraj.eps * dtraj.t
    mags = dtraj.abs_l
    idx = np.floor(taus / window).astype(int)
    span = float(taus[-1])
    last_full = max(int(np.ceil(span / window - 1e-12)) - 1, 0)
    np.minimum(idx, last_full, out=idx)
    out = []
    ranked = np.where(np.isnan(mags), -np.inf, mags)
    for w in np.unique(idx):
        mask = idx == w
        local = np.argmax(ranked[mask])
        out.append((float(taus[mask][local]), float(mags[mask][local])))
    return out


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


def dalpha_dr_reference(bounds, j, rmat, k, r, eps) -> float:
    """d(offset)/dr as the estimator took it in Python before the window
    and the stop predicate used the generated slope: by the gradients'
    r-parts when the bundle has them, else by the central difference of
    ``offset_value`` with step ``_FD_STEP * max(1, |r|)``."""
    if bounds.a_grad is not None:
        return float(bounds.a_grad(j, rmat, k, r)[3] + eps * bounds.b_grad(j, r)[1])
    h = estimator._FD_STEP * max(1.0, abs(r))
    return (offset_value(bounds, j, rmat, k, r + h, eps)
            - offset_value(bounds, j, rmat, k, r - h, eps)) / (2 * h)


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
    """The analytic branches of ``dalpha_dr_reference`` and
    ``_alpha_tau_derivative`` as they were: (d(offset)/dr, d(offset)/dtau)
    by ``np.sum``, each calling ``a_grad`` and ``b_grad`` itself."""
    dal_dr = float(bounds.a_grad(j, rmat, k, r)[3] + eps * bounds.b_grad(j, r)[1])
    ga_j, ga_r, ga_k, _ = bounds.a_grad(j, rmat, k, r)
    total = (np.sum(ga_j * dj) + np.sum(ga_r * drmat) + np.sum(ga_k * dk))
    return dal_dr, float(total + eps * np.sum(bounds.b_grad(j, r)[0] * dj))


def alpha_tau_derivative_reference(bounds, j, rows, k, r, eps, dj, drows, dk):
    """``estimator._alpha_tau_derivative`` as it was before the slow
    right-hand side wrote its central differences out: d(offset)/dtau by
    central differences on lists of floats (R and dR/dtau as rows), the
    perturbed points list copies, zero slow-flow entries skipped."""
    fd = estimator._FD_STEP
    total = 0.0
    for i, step in enumerate(dj):
        if step == 0.0:
            continue
        h = fd * max(1.0, abs(j[i]))
        jp = list(j); jp[i] += h
        jm = list(j); jm[i] -= h
        total += step * (offset_value(bounds, jp, rows, k, r, eps)
                         - offset_value(bounds, jm, rows, k, r, eps)) / (2 * h)
    for a, drow in enumerate(drows):
        for b, step in enumerate(drow):
            if step == 0.0:
                continue
            h = fd * max(1.0, abs(rows[a][b]))
            rp = [list(row) for row in rows]; rp[a][b] += h
            rm = [list(row) for row in rows]; rm[a][b] -= h
            total += step * (bounds.a_hat(j, rp, k, r)
                             - bounds.a_hat(j, rm, k, r)) / (2 * h)
    for i, step in enumerate(dk):
        if step == 0.0:
            continue
        h = fd * max(1.0, abs(k[i]))
        kp = list(k); kp[i] += h
        km = list(k); km[i] -= h
        total += step * (bounds.a_hat(j, rows, kp, r)
                         - bounds.a_hat(j, rows, km, r)) / (2 * h)
    return float(total)


def difference_partials_reference(bounds, j, rows, k, r, eps, dj, drows, dk):
    """``estimator._difference_partials`` as it was: (d(offset)/dr,
    d(offset)/dtau) by central differences, d(offset)/dr first."""
    return (dalpha_dr_reference(bounds, j, rows, k, r, eps),
            alpha_tau_derivative_reference(bounds, j, rows, k, r, eps, dj,
                                           drows, dk))


def analytic_partials_loop_reference(bounds, j, rows, k, r, eps, dj, drows, dk):
    """``estimator._analytic_partials`` as it was before the slow
    right-hand side wrote its sums out: one ``a_grad`` and one ``b_grad``
    call, each sum on Python floats from 0.0, left to right, R in row
    order.  It contracted dR with ``zip``, so it cut a short row of dA/dR
    to fit without an error."""
    ga_j, ga_r, ga_k, ga_rad = bounds.a_grad(j, rows, k, r)
    gb_j, gb_rad = bounds.b_grad(j, r)
    dal_dr = float(ga_rad + eps * gb_rad)
    sum_j = sum_r = sum_k = sum_b = 0.0
    for a, step in enumerate(dj):
        sum_j += ga_j[a] * step
        sum_k += ga_k[a] * dk[a]
        sum_b += gb_j[a] * step
        for g, x in zip(ga_r[a], drows[a]):
            sum_r += g * x
    return dal_dr, float(sum_j + sum_r + sum_k + eps * sum_b)


def without_gradients(bounds):
    """``bounds`` without ``a_grad`` and ``b_grad``: the estimator takes
    central differences."""
    return dataclasses.replace(bounds, a_grad=None, b_grad=None)


def slow_products_reference(amat, pb, rows, k):
    """dfbar R, dfbar K + pbar and R . dR as the slow right-hand side
    formed them in loops before it wrote them out per d: (rows of dR, dK,
    R . dR), each entry summed on floats from 0.0, left to right, R taken
    row by row, pbar added after the sum.  ``amat`` is dfbar as rows of
    floats."""
    d = len(rows)
    drows = []
    dk = []
    for arow, p in zip(amat, pb, strict=True):
        drow = []
        for b in range(d):
            acc = 0.0
            for a_c, row in zip(arow, rows, strict=True):
                acc += a_c * row[b]
            drow.append(acc)
        drows.append(drow)
        acc = 0.0
        for a_c, k_c in zip(arow, k):
            acc += a_c * k_c
        dk.append(acc + p)
    r_dot_dr = 0.0
    for row, drow in zip(rows, drows):
        for r_c, dr_c in zip(row, drow):
            r_dot_dr += r_c * dr_c
    return drows, dk, r_dot_dr


def slow_rhs_reference(spec, aux, bounds):
    """The slow right-hand side of ``estimator._slow_functions`` as it was
    before it read n, the entries of R and the finite-difference weights as
    Python floats, and before it took both offset partials from one
    ``a_grad`` and one ``b_grad`` call: every number a numpy scalar, the inverse an ndarray,
    the contractions by ``np.sum`` and the state packed by
    ``np.concatenate``.  It takes and returns ndarrays; the tests adapt it
    at its edge to the list states of the slow solve.  It is the reference
    the slow right-hand side must match bit for bit, with and without
    analytic gradients, wherever each entry of its products has at most
    one nonzero term."""
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
            dal_dr = dalpha_dr_reference(bounds, j, rmat, k, radius, eps)
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
