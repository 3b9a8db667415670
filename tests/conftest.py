"""Shared fixtures: example definitions and cached short runs."""
import numpy as np
import pytest

import averbound as ab
from averbound.ode import _hermite


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


def hermite_reference(traj, t):
    """Dense output at one time by the per-point loop that
    ``Trajectory.sample_many`` replaced: the reference it must match bit for
    bit."""
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


def toy_linear_decay(eps=1e-2, i0=2.0, d=1):
    """System with f independent of the angle: the scaled error vanishes.

    f = fbar = -I on d actions, each starting at i0, omega = 1, g = 0; all
    conjugation functions are zero and constant bounds keep the estimator
    well-posed.
    """
    aux = ab.AuxiliaryBundle(
        fbar=lambda i: -i,
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
        f=lambda i, th: -i,
        g=lambda i, th: 0.0,
        in_domain=lambda i: bool(np.all(i > 0.0)),
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
        out[:d] = spec.f(actions, theta) - aux.fbar(jbuf)
        out[d] = spec.omega(actions) + eps * spec.g(actions, theta)
        return out

    def stop(t, y):
        tau = eps * t
        sample.into(tau if tau < tau_max else tau_max, jbuf, d)
        return not spec.in_domain(jbuf + eps * y[:d])

    return rhs, stop
