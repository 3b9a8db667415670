"""Integrator unit tests: accuracy, dense output, stop handling, determinism."""
import math

import numpy as np
import pytest

from averbound import ode
from conftest import hermite_reference


def problem(rhs, y0, t_end, t0=0.0):
    return ode.IvpProblem(rhs=rhs, t0=t0, y0=y0, t_end=t_end)


def test_constant_rhs_completes():
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [1.0], 1.0))
    assert traj.status is ode.Status.COMPLETED
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(traj.states == 1.0)


def test_exponential_endpoint_error():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0), rtol=1e-9)
    assert traj.status is ode.Status.COMPLETED
    assert abs(traj.states[-1, 0] - math.e) < 1e-7


# State sizes that select each step kernel: the float one and the array one.
KERNEL_SIZES = [2, ode._FLOAT_KERNEL_MAX_DIM + 1]


def test_kernel_sizes_select_both_kernels():
    assert KERNEL_SIZES[0] <= ode._FLOAT_KERNEL_MAX_DIM < KERNEL_SIZES[1]


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_one_step_is_the_dormand_prince_stability_polynomial(size):
    # On y' = y one step multiplies y by R(h), the method's stability
    # polynomial; every tableau row enters its coefficients.  At h = 0.05,
    # R(h) differs from exp(h) by 4e-12 relative, so this tells them apart.
    traj = ode.integrate(problem(lambda t, y: y, np.ones(size), 1.0),
                         first_step=0.05)
    h = traj.times[1] - traj.times[0]
    want = sum(h ** k / math.factorial(k) for k in range(6)) + h ** 6 / 600
    assert traj.states[1] == pytest.approx(np.full(size, want), rel=1e-14, abs=0.0)
    assert abs(want / math.exp(h) - 1.0) > 1e-12


def test_stop_reason_is_the_predicate_value():
    rising = problem(lambda t, y: np.ones(1), [0.0], 2.0)
    traj = ode.integrate(rising, stop=lambda t, y: "crossed" if y[0] >= 0.5 else "")
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_reason == "crossed"

    def raises_once_crossed(t, y):
        if y[0] >= 0.5:
            raise ValueError("past the domain")
        return False

    traj = ode.integrate(rising, stop=raises_once_crossed)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_reason is True
    assert traj.stop_time == pytest.approx(0.5, abs=1e-9)

    traj = ode.integrate(rising, stop=lambda t, y: y[0] >= 5.0)
    assert traj.status is ode.Status.COMPLETED
    assert traj.stop_reason is None


def test_linear_crossing_stop_time():
    traj = ode.integrate(problem(lambda t, y: np.ones(1), [0.0], 2.0),
                         stop=lambda t, y: y[0] >= 0.5)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_time == pytest.approx(0.5, abs=1e-9)
    assert traj.times[-1] == traj.stop_time


def test_sample_at_grid_time_is_exact():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0))
    idx = len(traj.times) // 2
    assert np.array_equal(traj.sample(traj.times[idx]), traj.states[idx])


def test_sample_constant_everywhere():
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [3.5], 1.0))
    for t in (0.0, 0.1, 0.33, 0.999, 1.0):
        assert traj.sample(t)[0] == 3.5


def test_sample_exponential_midpoint():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0), rtol=1e-9)
    assert traj.sample(0.5)[0] == pytest.approx(math.exp(0.5), abs=1e-6)


def test_sample_outside_span_raises():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0))
    with pytest.raises(ValueError):
        traj.sample(-0.1)
    with pytest.raises(ValueError):
        traj.sample(1.1)


def test_convergence_with_tolerance():
    # Under error-per-step control an order >= 4 pair tracks the tolerance
    # nearly proportionally; a low-order method would flatten out.  Demand a
    # near-linear slope across six decades of tolerance.
    errs = []
    for rtol in (1e-5, 1e-7, 1e-9, 1e-11):
        traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0),
                             rtol=rtol, atol=rtol * 1e-3)
        errs.append(abs(traj.states[-1, 0] - math.e))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # overall slope >= 0.7 in log-log against the tolerance
    assert errs[0] / errs[-1] > 10.0 ** (6 * 0.7)


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_determinism_bitwise(size):
    def rhs(t, y):
        return np.array([math.sin(t) * y[0], -y[1] + y[0] ** 2]
                        + [-0.5 * v for v in y[2:]])
    y0 = [1.0, 0.5] + [0.25] * (size - 2)
    a = ode.integrate(problem(rhs, y0, 3.0))
    b = ode.integrate(problem(rhs, y0, 3.0))
    assert a.states.shape[1] == size
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)
    assert a.stats == b.stats


def test_max_steps_exhaustion():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 10.0), max_steps=3)
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.times[-1] < 10.0


def test_blowup_gives_step_failure():
    # y' = y^2 blows up at t=1; the step size underflows before that.
    traj = ode.integrate(problem(lambda t, y: y * y, [1.0], 2.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.times[-1] < 1.0 + 1e-6


def test_nan_rhs_fails_at_once():
    # A NaN slope makes the first step size NaN; the step guard must read
    # that as a failure instead of spending every attempt of max_steps.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full(1, np.nan)
    traj = ode.integrate(problem(rhs, [1.0], 1.0), max_steps=1000)
    assert traj.status is ode.Status.STEP_FAILURE
    assert len(calls) < 10


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_nan_in_one_component_halves_the_step(size):
    # Past t_nan the second component of the FSAL stage (the last of each
    # attempt, at t + h) is NaN.  That stage enters the error estimate but
    # not y_new, so only the NaN error of that one component can reject the
    # step; a max over the components that drops it would accept the step.
    t_nan = 0.5
    calls = []

    def rhs(t, y):
        calls.append(t)
        out = -y
        if t > t_nan and (len(calls) - 2) % 6 == 0:
            out[1] = math.nan
        return out
    traj = ode.integrate(problem(rhs, np.ones(size), 1.0), max_steps=2000)
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.t_final <= t_nan
    assert np.all(np.isfinite(traj.derivs))
    stats = traj.stats
    assert stats.nan_retries > 0
    # No rhs call raised: two initial calls, then six per attempt.
    attempts = stats.accepted + stats.rejected
    assert stats.rhs_evals == len(calls) == 2 + 6 * attempts
    # The first attempt that ends past t_nan is retried at half its size.
    ends = calls[7::6]
    first = next(i for i, t in enumerate(ends) if t > t_nan)
    h = (ends[first] - calls[2 + 6 * first]) / (1 - 1 / 5)
    h_next = (ends[first + 1] - calls[2 + 6 * (first + 1)]) / (1 - 1 / 5)
    assert h_next == pytest.approx(h / 2, rel=1e-6)
    assert ends[first + 1] - h_next == pytest.approx(ends[first] - h, abs=1e-12)


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_overflowing_state_halves_the_step(size):
    # y' = 1e308 in the second component overflows the state near t = 1.8,
    # while the error estimate stays finite (0 over an infinite scale), so
    # only the check on y_new can reject the step.  The first step is given:
    # the initial-step heuristic fails at once on this slope.
    def rhs(t, y):
        out = np.zeros(size)
        out[1] = 1e308
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        traj = ode.integrate(problem(rhs, np.zeros(size), 10.0), first_step=0.1)
    assert traj.status is ode.Status.STEP_FAILURE
    assert np.all(np.isfinite(traj.states))
    assert traj.stats.nan_retries > 0


def test_problem_validation():
    with pytest.raises(ValueError):
        ode.IvpProblem(lambda t, y: y, 0.0, np.zeros(1), -1.0)
    with pytest.raises(ValueError):
        ode.IvpProblem(lambda t, y: y, 0.0, np.zeros((2, 2)), 1.0)


def test_stop_true_at_start_rejected():
    with pytest.raises(ValueError, match="already true at the initial state"):
        ode.integrate(problem(lambda t, y: y, [1.0], 1.0),
                      stop=lambda t, y: True)


def test_stop_raising_at_start_keeps_its_message():
    def undefined(t, y):
        raise ValueError("bound undefined here")

    with pytest.raises(ValueError, match="bound undefined here"):
        ode.integrate(problem(lambda t, y: y, [1.0], 1.0), stop=undefined)


def test_rhs_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ode.integrate(problem(lambda t, y: np.zeros(3), [1.0], 1.0))


def test_first_step_is_honoured():
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [1.0], 1.0),
                         first_step=0.25)
    assert traj.times[1] == pytest.approx(0.25)


def test_public_integrate_hands_arrays_to_a_one_component_rhs():
    # The caller who does not declare lists keeps the ndarray contract on
    # the float kernel too, at every stage and in the stop localisation.
    seen = []

    def rhs(t, y):
        seen.append(type(y))
        return 2 * y         # a list would be repeated, not doubled

    def stop(t, y):
        seen.append(type(y))
        return y[0] >= 2.0
    traj = ode.integrate(problem(rhs, [1.0], 1.0), stop=stop)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_time == pytest.approx(math.log(2.0) / 2, rel=1e-6)
    assert set(seen) == {np.ndarray}


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_list_problem_matches_the_array_problem(size):
    # A problem that declares lists gets lists on either kernel, and steps
    # to the same bits as its ndarray twin.
    seen = set()

    def rhs_list(t, y):
        seen.add(type(y))
        return [math.sin(t) * y[0], -y[1] + y[0] ** 2] + [-0.5 * v for v in y[2:]]

    def rhs_array(t, y):
        return np.array(rhs_list(t, y.tolist()))

    def stop(t, y):
        seen.add(type(y))
        return y[1] > 5.0
    y0 = [1.0, 0.5] + [0.25] * (size - 2)
    a = ode.integrate(ode.IvpProblem(rhs_list, 0.0, y0, 3.0, lists=True), stop=stop)
    assert seen == {list}
    b = ode.integrate(problem(rhs_array, y0, 3.0),
                      stop=lambda t, y: stop(t, y.tolist()))
    assert a.status is ode.Status.STOPPED
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)
    assert a.stats == b.stats


def test_stop_calls_count_the_localisation():
    calls = []

    def stop(t, y):
        calls.append(t)
        return y[0] >= 0.5
    traj = ode.integrate(problem(lambda t, y: np.ones(1), [0.0], 2.0), stop=stop)
    assert traj.status is ode.Status.STOPPED
    stats = traj.stats
    assert stats.stop_calls == len(calls)
    # the start, each accepted step, then the bisections of the last one
    assert stats.stop_calls > stats.accepted + 1


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_absorbed_rhs_error_is_recorded(size):
    # Call 19 is a stage of the third attempt that enters its y_new.  There
    # numpy divides by zero to inf and Python floats raise; either way the
    # attempt is retried at half size, and only the exception is recorded.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return y / 0 if len(calls) == 19 else -y
    with np.errstate(divide="ignore", invalid="ignore"):
        traj = ode.integrate(problem(rhs, np.ones(size), 1.0))
    assert traj.status is ode.Status.COMPLETED
    assert traj.stats.nan_retries == 1
    assert traj.stats.rhs_error is None

    calls.clear()

    def rhs_list(t, y):
        calls.append(t)
        return [v / 0.0 if len(calls) == 19 else -v for v in y]
    traj = ode.integrate(ode.IvpProblem(rhs_list, 0.0, np.ones(size), 1.0,
                                        lists=True))
    assert traj.status is ode.Status.COMPLETED
    assert traj.stats.nan_retries == 1
    assert traj.stats.rhs_error == "ZeroDivisionError: float division by zero"


def test_step_stats_sum_keeps_the_later_rhs_error():
    first = ode.StepStats(accepted=1, stop_calls=2, rhs_error="ValueError: a")
    later = ode.StepStats(accepted=3, stop_calls=4, rhs_error="OverflowError: b")
    clean = ode.StepStats(accepted=5)
    assert (first + later).rhs_error == "OverflowError: b"
    assert (first + clean).rhs_error == "ValueError: a"
    assert (clean + clean).rhs_error is None
    assert (first + later + clean).stop_calls == 6


def test_cursor_sampler_matches_sample():
    def rhs(t, y):
        return np.array([math.cos(3 * t), -y[1]])
    traj = ode.integrate(problem(rhs, [0.0, 1.0], 5.0))
    samp = traj.sampler()
    rng = np.random.default_rng(42)
    ts = np.sort(rng.uniform(0.0, 5.0, 200))
    for t in ts:
        assert np.allclose(samp(t), traj.sample(t), atol=1e-12)
    # backwards queries move the cursor the other way
    for t in ts[::-1][:50]:
        assert np.allclose(samp(t), traj.sample(t), atol=1e-12)
    assert samp.value1(2.0) == pytest.approx(traj.sample(2.0)[0], abs=1e-12)
    out = np.empty(2)
    samp.into(2.0, out, 2)
    assert np.allclose(out, traj.sample(2.0), atol=1e-12)


def test_module_level_sample_alias():
    # the module-level ode.sample alias is gone; Trajectory.sample is the
    # one-point entry point and must still interpolate between nodes.
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [2.0], 1.0))
    assert not hasattr(ode, "sample")
    assert traj.sample(0.5)[0] == 2.0


def _assert_matches_reference(traj, ts):
    want = np.array([hermite_reference(traj, t) for t in ts])
    assert np.array_equal(traj.sample_many(ts), want)


def test_sample_many_matches_pointwise_loop():
    def rhs(t, y):
        return np.array([math.cos(3 * t) * y[1], -y[1]])
    traj = ode.integrate(problem(rhs, [0.0, 1.0], 5.0))
    slack = 1e-12 * 5.0
    rng = np.random.default_rng(7)
    inner = rng.uniform(0.0, 5.0, 3 * ode._SAMPLE_BLOCK)
    ts = np.concatenate([traj.times, [-0.5 * slack, 5.0 + 0.5 * slack], inner])
    rng.shuffle(ts)
    assert ts.size > ode._SAMPLE_BLOCK
    _assert_matches_reference(traj, ts)
    # every node and both ends give the stored state; the slack clamps onto it
    assert np.array_equal(traj.sample_many(traj.times), traj.states)
    clamped = traj.sample_many([-0.5 * slack, 5.0 + 0.5 * slack])
    assert np.array_equal(clamped, traj.states[[0, -1]])
    assert traj.sample_many([]).shape == (0, 2)
    for outside in ([1.0, -0.1], [5.1], [5.0 + 2 * slack]):
        with pytest.raises(ValueError):
            traj.sample_many(outside)


def test_sample_many_on_stopped_trajectory():
    traj = ode.integrate(problem(lambda t, y: np.array([math.cos(t), y[0]]),
                                 [0.0, 0.0], 3.0),
                         stop=lambda t, y: y[0] >= 0.9)
    assert traj.status is ode.Status.STOPPED
    rng = np.random.default_rng(3)
    ts = np.concatenate([traj.times, rng.uniform(0.0, traj.stop_time, 100)])
    _assert_matches_reference(traj, ts)
    assert np.array_equal(traj.sample(traj.stop_time), traj.states[-1])


def test_nonfinite_rhs_region_triggers_failure_not_crash():
    # sqrt goes complex for y > 2; the integrator should shrink and fail
    # cleanly rather than raise.
    def rhs(t, y):
        return np.array([math.sqrt(2.0 - y[0]) + 1.0])
    traj = ode.integrate(problem(rhs, [0.0], 10.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert np.all(np.isfinite(traj.states))
