"""Fast-time comparison run: exactness, envelope, domain exit, budget."""
import dataclasses
import math

import numpy as np
import pytest

import averbound as ab
from averbound import direct, ode
from averbound.direct import DirectTrajectory, envelope

from conftest import direct_reference, toy_linear_decay


@pytest.mark.parametrize("d", [1, 2, 4])
def test_angle_free_perturbation_keeps_error_zero(d):
    # At d = 4 the direct state has five components, past the float kernel.
    spec, aux, bounds = toy_linear_decay(d=d)
    avg = ab.run_averaged(spec, aux, 5.0)
    dtraj = ab.run_direct(spec, aux, avg, 5.0)
    assert dtraj.status is ode.Status.COMPLETED
    assert dtraj.traj.states.shape[1] == d + 1
    assert dtraj.abs_l.max() < 1e-10
    assert np.all(dtraj.l[0] == 0.0)
    assert dtraj.theta[0] == spec.theta0


@pytest.mark.parametrize("d", [1, 2])
def test_array_only_system_matches_the_numpy_reference(monkeypatch, d):
    # A registered system without float forms, written with array
    # arithmetic that a list would break (2.0 * i, i @ i), runs through the
    # one list rhs with its callables handed ndarrays, and steps to the
    # same bits as the numpy right-hand side of conftest.
    _, aux, bounds = toy_linear_decay(d=d)      # fbar = -I

    def factory(params):
        return ab.ExampleDefinition(
            id="array-only", d=d, params={},
            omega=lambda i: 1.0 + i @ i,
            f=lambda i, th: 2.0 * i * math.cos(th) - i,
            g=lambda i, th: (i @ i) * math.sin(th),
            in_domain=lambda i: bool(np.all(i > 0.0)),
            aux=aux, bounds=bounds,
            sample_box=(np.full(d, 0.5), np.full(d, 2.0)))
    ab.register_system("array-only", factory)
    example = ab.make_example("array-only")
    assert example.floats is None
    u = 2.0
    spec = example.make_system(np.linspace(1.0, 2.0, d), 1e-2, theta0=0.3)
    avg = ab.run_averaged(spec, example.aux, u)
    dtraj = ab.run_direct(spec, example.aux, avg, u)
    assert dtraj.status is ode.Status.COMPLETED

    integrate = ode.integrate
    rhs, stop = direct_reference(spec, example.aux, avg)

    def on_numpy(problem, **kwargs):
        assert problem.lists
        kwargs["stop"] = stop
        return integrate(dataclasses.replace(problem, rhs=rhs, lists=False),
                         **kwargs)
    monkeypatch.setattr(ode, "integrate", on_numpy)
    ref = ab.run_direct(spec, example.aux, avg, u)
    assert np.array_equal(dtraj.t, ref.t)
    assert np.array_equal(dtraj.l, ref.l)
    assert np.array_equal(dtraj.traj.states, ref.traj.states)
    assert np.array_equal(dtraj.traj.derivs, ref.traj.derivs)
    assert dtraj.abs_l.max() > 0.01


def test_stats_sum_over_the_chunks():
    spec, aux, _ = toy_linear_decay()
    avg = ab.run_averaged(spec, aux, 5.0)
    calls = []

    def f(i, th):      # the direct rhs calls f once per evaluation
        calls.append(th)
        return -i
    dtraj = ab.run_direct(dataclasses.replace(spec, f=f), aux, avg, 5.0)
    assert dtraj.status is ode.Status.COMPLETED
    stats = dtraj.traj.stats
    assert stats.accepted == len(dtraj.t) - 1
    assert stats.rhs_evals == len(calls)
    # No rhs call raised: six per attempt, two to start the first chunk
    # and one, its slope, to start each later one.
    attempts = stats.accepted + stats.rejected
    assert stats.rhs_evals == 6 * attempts + direct._BUDGET_CHUNKS + 1
    assert stats.nan_retries == 0
    steps = np.diff(dtraj.t)
    assert stats.h_min == pytest.approx(steps.min(), rel=1e-9)
    assert stats.h_max == pytest.approx(steps.max(), rel=1e-9)


def test_initial_angle_rate_is_unperturbed_frequency(resonant_run):
    spec, _, _, dtraj = resonant_run
    # omega(I0) = 2 for the resonant system started at I0 = 2
    t1 = dtraj.t[1]
    assert dtraj.theta[1] / t1 == pytest.approx(2.0, rel=1e-3)


def test_angle_kept_unreduced(resonant_run):
    _, _, _, dtraj = resonant_run
    assert dtraj.theta.max() > 2 * math.pi


def test_error_starts_at_zero_and_stays_bounded(resonant_run):
    _, est, _, dtraj = resonant_run
    assert dtraj.abs_l[0] == 0.0
    assert dtraj.abs_l.max() < est.n.max() + 1.0
    # |L| has no grid-to-grid jumps (continuity at the sampling scale)
    jumps = np.abs(np.diff(dtraj.abs_l))
    assert jumps.max() < 0.2


def test_consistency_with_unscaled_system(resonant):
    # Independent oracle: integrate the perturbed system itself and form
    # (I(t) - J(eps t))/eps.  Tolerances are amplified by 1/eps when the
    # action error is rescaled, hence the comparison threshold.
    eps, u, rtol, atol = 1e-2, 1.0, 1e-9, 1e-12
    spec = resonant.make_system([2.0], eps)
    avg = ab.run_averaged(spec, resonant.aux, u, rtol=rtol / 10, atol=atol / 10)
    dtraj = ab.run_direct(spec, resonant.aux, avg, u, rtol=rtol, atol=atol)

    def pert_rhs(t, y):
        i, th = y[:1], y[1]
        out = np.empty(2)
        out[0] = eps * spec.f(i, th)[0]
        out[1] = spec.omega(i) + eps * spec.g(i, th)
        return out

    problem = ode.IvpProblem(pert_rhs, 0.0, np.array([2.0, 0.0]), u / eps)
    raw = ode.integrate(problem, rtol=rtol, atol=atol)
    ts = raw.times[::7]
    l_oracle = (raw.states[::7, 0] - avg.sample_many(eps * ts)[:, 0]) / eps
    l_num = dtraj.traj.sample_many(ts)[:, :dtraj.d]
    worst = np.max(np.abs(l_num[:, 0] - l_oracle))
    i_max = float(np.max(np.abs(raw.states[:, 0])))
    assert worst < 10.0 * (rtol * i_max + atol) / eps


def test_requires_spanning_average_trajectory(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    avg = ab.run_averaged(spec, resonant.aux, 0.5)
    with pytest.raises(ValueError):
        ab.run_direct(spec, resonant.aux, avg, 1.0)


def test_domain_exit_stops_run():
    # Large-amplitude oscillation in the actions pushes I = J + eps*L out of
    # the domain while J itself stays inside.
    aux = ab.AuxiliaryBundle(
        fbar=lambda i: np.zeros(1),
        dfbar=lambda i: np.zeros((1, 1)),
        s=lambda i, th: np.array([100.0 * math.sin(th)]),
        v=lambda i, th: np.zeros(1),
        p=lambda i, th: np.zeros(1),
        pbar=lambda i: np.zeros(1),
        q=lambda i, th: np.zeros(1),
        w=lambda i, th: np.zeros(1),
        u=lambda i, th: np.zeros(1),
        m_script=lambda i: np.zeros((1, 1)),
        g_script=lambda i, di: np.zeros((1, 1)),
        h_script=lambda i, di: np.zeros((1, 1, 1)),
    )
    spec = ab.SystemSpec(
        d=1, epsilon=1e-2,
        omega=lambda i: 1.0,
        f=lambda i, th: np.array([100.0 * math.cos(th)]),
        g=lambda i, th: 0.0,
        in_domain=lambda i: bool(i[0] > 0.0),
        i0=np.array([0.5]),
    )
    avg = ab.run_averaged(spec, aux, 1.0)
    dtraj = ab.run_direct(spec, aux, avg, 1.0)
    assert dtraj.status is ode.Status.STOPPED
    assert not dtraj.budget_exceeded
    # the run ends where the actions reach the boundary
    t_stop = dtraj.t[-1]
    i_stop = avg.sample(1e-2 * t_stop)[0] + 1e-2 * dtraj.l[-1, 0]
    assert abs(i_stop) < 1e-6


def test_budget_abort_keeps_partial_run(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    avg = ab.run_averaged(spec, resonant.aux, 10.0)
    dtraj = ab.run_direct(spec, resonant.aux, avg, 10.0, time_budget=1e-9)
    assert dtraj.budget_exceeded
    assert dtraj.status is ode.Status.STEP_FAILURE
    assert 0 < dtraj.t[-1] < 10.0 / 1e-2
    assert dtraj.wall_time_s > 0.0


def _synthetic_direct(ts, l_vals):
    states = np.column_stack([l_vals, np.zeros_like(ts)])
    derivs = np.zeros_like(states)
    traj = ode.Trajectory(times=ts, states=states, derivs=derivs,
                          status=ode.Status.COMPLETED)
    return DirectTrajectory(d=1, eps=1e-2, traj=traj, budget_exceeded=False,
                            wall_time_s=0.0)


def test_envelope_of_constant_magnitude():
    ts = np.linspace(0.0, 1000.0, 2001)
    dtraj = _synthetic_direct(ts, np.full_like(ts, 0.7))
    peaks = envelope(dtraj, window=1.0)
    assert all(peak == pytest.approx(0.7) for _, peak in peaks)


def test_envelope_of_sine_with_wide_window():
    ts = np.linspace(0.0, 5000.0, 50001)
    dtraj = _synthetic_direct(ts, np.sin(ts))
    peaks = envelope(dtraj, window=10.0)     # covers many 2*pi periods
    assert all(peak == pytest.approx(1.0, abs=1e-3) for _, peak in peaks)


def test_envelope_rejects_bad_window(resonant_run):
    _, _, _, dtraj = resonant_run
    with pytest.raises(ValueError):
        envelope(dtraj, 0.0)
