"""Integrator unit tests: accuracy, dense output, stop handling, determinism."""
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from averbound import ode
from conftest import (cursor_reference, float_kernel_reference,
                      hermite_reference, integrate_reference, one_step_run)


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


# State sizes, each with its own generated float run, the one kernel of
# integrate: one to six components, five being the slow state at one
# action, then ten and seventeen, the slow states at two and three actions.
SIZES = [1, 2, 3, 4, 5, 6, 10, 17]


def _on_array_kernel(prob, stop=None, first_step=None):
    """``ode.integrate`` stepped by ``ode._array_kernel``, which the slow
    solve builds for itself from two actions on."""
    rtol, atol = ode.DEFAULT_RTOL, ode.DEFAULT_ATOL
    kernel = ode._array_kernel(prob.rhs, prob.y0.size, rtol, atol)
    return ode._integrate(prob, rtol, atol, stop, first_step, kernel)


@pytest.mark.parametrize("size", [6, 10, 17])
def test_integrate_never_builds_the_array_kernel(monkeypatch, size):
    # Every state size steps on the float run, above five components too.
    built = []

    def spy(name):
        make = getattr(ode, name)

        def wrapper(rhs, size, rtol, atol):
            built.append((name, size))
            return make(rhs, size, rtol, atol)
        return wrapper
    for name in ("_float_kernel", "_array_kernel"):
        monkeypatch.setattr(ode, name, spy(name))
    for rhs in (lambda t, y: [-v for v in y], lambda t, y: -np.array(y)):
        traj = ode.integrate(problem(rhs, np.ones(size), 1.0))
        assert traj.status is ode.Status.COMPLETED
    assert built == [("_float_kernel", size)] * 2


@pytest.mark.parametrize("size", SIZES)
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

    # An exception is not a stop reason: it leaves integrate as itself.
    with pytest.raises(ValueError, match="past the domain"):
        ode.integrate(rising, stop=raises_once_crossed)

    traj = ode.integrate(rising, stop=lambda t, y: y[0] >= 5.0)
    assert traj.status is ode.Status.COMPLETED
    assert traj.stop_reason is None


@pytest.mark.parametrize("size", [1, 5])
def test_stop_predicate_raising_in_the_localisation_propagates(size):
    # The predicate turns true at an accepted node, then raises at the first
    # bisection point: that exception, too, ends the run as itself.
    crossed = []

    def stop(t, y):
        if crossed:
            raise ZeroDivisionError("inside the final step")
        if y[0] >= 0.5:
            crossed.append(t)
            return True
        return False

    with pytest.raises(ZeroDivisionError, match="inside the final step"):
        ode.integrate(problem(lambda t, y: np.ones(size), np.zeros(size), 2.0),
                      stop=stop)
    assert len(crossed) == 1


def test_linear_crossing_stop_time():
    traj = ode.integrate(problem(lambda t, y: np.ones(1), [0.0], 2.0),
                         stop=lambda t, y: y[0] >= 0.5)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_time == pytest.approx(0.5, abs=1e-9)
    assert traj.times[-1] == traj.stop_time


def test_stop_localisation_keeps_the_cubic_slope():
    # y' = 3t^2 from y(0) = 0 is y = t^3, which the cubic interpolant of the
    # final step holds exactly: the state and slope stored at the stop are
    # those of the cubic at the stop time.
    traj = ode.integrate(problem(lambda t, y: np.array([3 * t * t]), [0.0], 2.0),
                         stop=lambda t, y: y[0] >= 0.125)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_time == pytest.approx(0.5, abs=1e-9)
    assert traj.states[-1, 0] == pytest.approx(0.125, abs=1e-9)
    assert traj.derivs[-1, 0] == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("size", SIZES)
def test_stop_row_replaces_the_last_accepted_row(monkeypatch, size):
    # The accepted nodes are kept in flat buffers; at a stop the last row of
    # each is overwritten, in place, with what the localisation returned.
    localize = ode._localize_stop
    found = []

    def spy(*args):
        found.append(localize(*args))
        return found[-1]

    monkeypatch.setattr(ode, "_localize_stop", spy)
    traj = ode.integrate(problem(lambda t, y: [3 * t * t] * size,
                                 np.zeros(size), 2.0),
                         stop=lambda t, y: y[-1] >= 0.125)
    (t_stop, y_stop, f_stop, _), = found
    rows = traj.stats.accepted + 1
    assert traj.times.shape == (rows,) and traj.states.shape == (rows, size)
    assert traj.derivs.shape == (rows, size)
    assert traj.times[-1] == t_stop and traj.times[-2] < t_stop
    assert traj.states[-1].tobytes() == np.asarray(y_stop, dtype=float).tobytes()
    assert traj.derivs[-1].tobytes() == np.asarray(f_stop, dtype=float).tobytes()
    assert np.all(traj.states[:-1] < 0.125)


def test_a_later_slope_longer_than_the_state_is_refused():
    # Only the first slope's length is checked as it arrives; a later one
    # with an extra entry is refused when the run ends, not stored.
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return [-y[0], -y[1]] + ([0.0] if calls[0] > 5 else [])

    with pytest.raises(ValueError, match="rhs must return 2 values"):
        ode.integrate(problem(rhs, [1.0, 1.0], 1.0))


def test_sample_at_grid_time_is_exact():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0))
    idx = len(traj.times) // 2
    assert np.array_equal(traj.sample_many([traj.times[idx]])[0],
                          traj.states[idx])


def test_sample_constant_everywhere():
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [3.5], 1.0))
    assert np.all(traj.sample_many([0.0, 0.1, 0.33, 0.999, 1.0]) == 3.5)


def test_sample_exponential_midpoint():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0), rtol=1e-9)
    assert traj.sample_many([0.5])[0, 0] == pytest.approx(math.exp(0.5),
                                                          abs=1e-6)


def test_sample_outside_span_raises():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0))
    with pytest.raises(ValueError):
        traj.sample_many([-0.1])
    with pytest.raises(ValueError):
        traj.sample_many([1.1])


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


@pytest.mark.parametrize("size", SIZES)
def test_determinism_bitwise(size):
    def rhs(t, y):
        out = [math.sin(t) * y[0]]
        if size > 1:
            out.append(-y[1] + y[0] ** 2)
        return np.array(out + [-0.5 * v for v in y[2:]])
    y0 = [1.0, 0.5][:size] + [0.25] * (size - 2)
    a = ode.integrate(problem(rhs, y0, 3.0))
    b = ode.integrate(problem(rhs, y0, 3.0))
    assert a.states.shape[1] == size
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)
    assert a.stats == b.stats


def test_max_steps_exhaustion(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_STEPS", 3)
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 10.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.times[-1] < 10.0


def _node_bytes(traj):
    return traj.times.nbytes + traj.states.nbytes + traj.derivs.nbytes


def test_node_buffers_stop_at_their_cap(monkeypatch):
    # Room for 100 nodes of a two-component state: the run, which needs
    # far more, ends in step_failure with its buffers within the cap, says
    # why, and took the steps of the run without a cap until then.
    rhs = lambda t, y: [y[1], -y[0]]
    full = ode.integrate(problem(rhs, [1.0, 0.0], 200.0))
    assert full.status is ode.Status.COMPLETED and full.times.size > 1000
    monkeypatch.setattr(ode, "_NODE_BYTES_MAX", 100 * 8 * 5)
    traj = ode.integrate(problem(rhs, [1.0, 0.0], 200.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert _node_bytes(traj) <= 100 * 8 * 5
    stats = traj.stats
    # the first node was in the buffers before the run: room for 99
    assert stats.accepted + stats.rejected == 99
    assert stats.rhs_error == ("step attempts reached the node budget of "
                               "ode._NODE_BYTES_MAX = 4000 bytes")
    n = traj.times.size
    assert traj.times.tobytes() == full.times[:n].tobytes()
    assert traj.states.tobytes() == full.states[:n].tobytes()


def test_a_run_within_the_node_cap_does_not_name_it(monkeypatch):
    # The cap leaves a run that fits alone, and the step cap's failure is
    # not reported as the buffers'.
    monkeypatch.setattr(ode, "_NODE_BYTES_MAX", 100 * 8 * 3)
    traj = ode.integrate(problem(lambda t, y: [-y[0]], [1.0], 1.0))
    assert traj.status is ode.Status.COMPLETED
    assert traj.stats.rhs_error is None
    monkeypatch.setattr(ode, "_MAX_STEPS", 3)
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 10.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.stats.rhs_error is None


def test_blowup_gives_step_failure():
    # y' = y^2 blows up at t=1; the step size underflows before that.
    traj = ode.integrate(problem(lambda t, y: [v * v for v in y], [1.0], 2.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert traj.times[-1] < 1.0 + 1e-6


def test_nan_rhs_fails_at_once(monkeypatch):
    # A NaN slope makes the first step size NaN; the step guard must read
    # that as a failure instead of spending every attempt of the step cap.
    monkeypatch.setattr(ode, "_MAX_STEPS", 1000)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full(1, np.nan)
    traj = ode.integrate(problem(rhs, [1.0], 1.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert len(calls) < 10


@pytest.mark.parametrize("size", SIZES[1:])
def test_nan_in_one_component_halves_the_step(monkeypatch, size):
    _nan_in_one_component_halves_the_step(monkeypatch, size, ode.integrate)


@pytest.mark.parametrize("size", [6, 10])
def test_array_kernel_halves_the_step_on_a_nan_in_one_component(monkeypatch,
                                                                size):
    _nan_in_one_component_halves_the_step(monkeypatch, size, _on_array_kernel)


def _nan_in_one_component_halves_the_step(monkeypatch, size, run):
    # Past t_nan the second component of the FSAL stage (the last of each
    # attempt, at t + h) is NaN.  That stage enters the error estimate but
    # not y_new, so only the NaN error of that one component can reject the
    # step; a max over the components that drops it would accept the step.
    t_nan = 0.5
    calls = []

    def rhs(t, y):
        calls.append(t)
        out = [-v for v in y]
        if t > t_nan and (len(calls) - 2) % 6 == 0:
            out[1] = math.nan
        return out
    monkeypatch.setattr(ode, "_MAX_STEPS", 2000)
    traj = run(problem(rhs, np.ones(size), 1.0))
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


@pytest.mark.parametrize("size", SIZES[1:])
def test_overflowing_state_halves_the_step(size):
    _overflowing_state_halves_the_step(size, ode.integrate)


@pytest.mark.parametrize("size", [6, 10])
def test_array_kernel_halves_the_step_on_an_overflowing_state(size):
    _overflowing_state_halves_the_step(size, _on_array_kernel)


def _overflowing_state_halves_the_step(size, run):
    # y' = 1e308 in the second component overflows the state near t = 1.8,
    # while the error estimate stays finite (0 over an infinite scale), so
    # only the check on y_new can reject the step.  The first step is given:
    # the initial-step heuristic fails at once on this slope.
    def rhs(t, y):
        out = np.zeros(size)
        out[1] = 1e308
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(problem(rhs, np.zeros(size), 10.0), first_step=0.1)
    assert traj.status is ode.Status.STEP_FAILURE
    assert np.all(np.isfinite(traj.states))
    assert traj.stats.nan_retries > 0


@pytest.mark.parametrize("size", SIZES[1:])
@pytest.mark.parametrize("returns", [list, np.array])
def test_overflow_on_the_float_step_is_a_step_failure(size, returns):
    # The overflow of the test above, with warnings as errors: an rhs that
    # returns an ndarray is stepped on Python floats, as a list rhs is, so
    # the overflow halves the step instead of raising a RuntimeWarning.
    def rhs(t, y):
        out = [0.0] * size
        out[1] = 1e308
        return returns(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = ode.integrate(problem(rhs, np.zeros(size), 10.0), first_step=0.1)
    assert traj.status is ode.Status.STEP_FAILURE
    assert np.all(np.isfinite(traj.states))
    assert traj.stats.nan_retries > 0


def test_problem_validation():
    with pytest.raises(ValueError):
        ode.IvpProblem(lambda t, y: y, 0.0, np.zeros(1), -1.0)
    with pytest.raises(ValueError):
        ode.IvpProblem(lambda t, y: y, 0.0, np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("first_step", [None, 0.1])
def test_empty_state_rejected(first_step):
    with pytest.raises(ValueError, match="at least one component"):
        ode.integrate(ode.IvpProblem(lambda t, y: y, 0.0, [], 1.0),
                      first_step=first_step)


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


@pytest.mark.parametrize("size", SIZES)
def test_rhs_and_stop_get_lists_on_both_kernels(size):
    # Every stage, the initial-step probe and the stop localisation hand
    # over the state as a list of Python floats, at every size.
    seen = []

    def rhs(t, y):
        seen.append(type(y))
        return [2.0 * v for v in y]

    def stop(t, y):
        seen.append(type(y))
        return y[0] >= 2.0
    traj = ode.integrate(problem(rhs, np.ones(size), 1.0), stop=stop)
    assert traj.status is ode.Status.STOPPED
    assert traj.stop_time == pytest.approx(math.log(2.0) / 2, rel=1e-6)
    stats = traj.stats
    assert stats.stop_calls > stats.accepted + 1     # the localisation ran
    assert len(seen) == stats.rhs_evals + stats.stop_calls
    assert set(seen) == {list}


@pytest.mark.parametrize("size", SIZES)
def test_stop_gets_the_list_the_rhs_got_at_each_node(size):
    _stop_gets_the_list_the_rhs_got_at_each_node(size, ode.integrate)


@pytest.mark.parametrize("size", [6, 10])
def test_array_kernel_hands_stop_the_list_the_rhs_got(size):
    _stop_gets_the_list_the_rhs_got_at_each_node(size, _on_array_kernel)


def _stop_gets_the_list_the_rhs_got_at_each_node(size, run):
    # One list per state: at t0 and at every accepted node the stop
    # predicate is handed the very list the right-hand side was last
    # handed, by the initial call and then by each step's last (FSAL)
    # stage, rejected steps in between.  The estimator's stop predicate
    # reuses d(offset)/dr on this identity.
    handed = [None]
    seen = []

    def rhs(t, y):
        handed[0] = y
        return [math.sin(t + i) - v for i, v in enumerate(y)]

    def stop(t, y):
        seen.append((t, y, y is handed[0]))
        return False
    traj = run(problem(rhs, np.linspace(0.2, 0.8, size), 5.0), stop=stop,
               first_step=2.0)
    assert traj.status is ode.Status.COMPLETED
    assert traj.stats.rejected > 0
    assert len(seen) == traj.stats.accepted + 1
    assert all(same for _, _, same in seen)
    assert [t for t, _, _ in seen] == traj.times.tolist()
    assert np.array_equal(np.array([y for _, y, _ in seen]), traj.states)


@pytest.mark.parametrize("size", [1, 5])
def test_array_arithmetic_on_the_list_state_is_refused(size):
    # 2 * y repeats a list instead of doubling it; the first call's result
    # has the wrong length and integrate refuses it.
    with pytest.raises(ValueError, match=re.escape(
            f"rhs must return shape ({size},), got ({2 * size},)")):
        ode.integrate(problem(lambda t, y: 2 * y, np.ones(size), 1.0))


@pytest.mark.parametrize("size", SIZES[1:])
def test_list_problem_matches_the_array_problem(size):
    # A right-hand side that returns a list steps to the same bits as its
    # twin that returns the same floats as a 1-D array.
    seen = set()

    def rhs_list(t, y):
        seen.add(type(y))
        return [math.sin(t) * y[0], -y[1] + y[0] ** 2] + [-0.5 * v for v in y[2:]]

    def rhs_array(t, y):
        return np.array(rhs_list(t, y))

    def stop(t, y):
        seen.add(type(y))
        return y[1] > 5.0
    y0 = [1.0, 0.5] + [0.25] * (size - 2)
    a = ode.integrate(problem(rhs_list, y0, 3.0), stop=stop)
    b = ode.integrate(problem(rhs_array, y0, 3.0), stop=stop)
    assert seen == {list}
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


@pytest.mark.parametrize("size", SIZES)
def test_absorbed_rhs_error_is_recorded(size):
    # Call 19 is a stage of the third attempt that enters its y_new.  There
    # numpy divides by zero to inf and Python floats raise; either way the
    # attempt is retried at half size, and only the exception is recorded.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array(y) / 0 if len(calls) == 19 else [-v for v in y]
    with np.errstate(divide="ignore", invalid="ignore"):
        traj = ode.integrate(problem(rhs, np.ones(size), 1.0))
    assert traj.status is ode.Status.COMPLETED
    assert traj.stats.nan_retries == 1
    assert traj.stats.rhs_error is None

    calls.clear()

    def rhs_list(t, y):
        calls.append(t)
        return [v / 0.0 if len(calls) == 19 else -v for v in y]
    traj = ode.integrate(problem(rhs_list, np.ones(size), 1.0))
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
    samp = ode.CubicSampler(traj)
    rng = np.random.default_rng(42)
    ts = np.sort(rng.uniform(0.0, 5.0, 200))
    out = np.empty(2)
    for t, want in zip(ts, traj.sample_many(ts)):
        samp.into(t, out, 2)
        assert np.array_equal(out, want)
    # backwards queries move the cursor the other way
    back = ts[::-1][:50]
    for t, want in zip(back, traj.sample_many(back)):
        samp.into(t, out, 2)
        assert np.array_equal(out, want)
    # a count below the size writes only the first components, as floats
    first = [0.0]
    samp.into(2.0, first, 1)
    assert type(first[0]) is float
    assert first[0] == traj.sample_many([2.0])[0, 0]
    samp.into(2.0, out, 2)
    assert np.array_equal(out, traj.sample_many([2.0])[0])


# Pins Trajectory.sampler while perfbench/tracer.py patches it (ROADMAP
# item 3); every other caller builds ode.CubicSampler itself.
def test_trajectory_sampler_is_a_cursor_sampler():
    traj = ode.integrate(problem(lambda t, y: y, [1.0], 1.0))
    samp = traj.sampler()
    assert type(samp) is ode.CubicSampler
    out, ref = [0.0], [0.0]
    samp.into(0.5, out, 1)
    ode.CubicSampler(traj).into(0.5, ref, 1)
    assert out == ref


# Pins Trajectory.sample while perfbench/tracer.py patches it (ROADMAP item
# 3); every other caller reads through sample_many.
def test_module_level_sample_alias():
    # the module-level ode.sample alias is gone; Trajectory.sample is the
    # one-point entry point and must still interpolate between nodes.
    traj = ode.integrate(problem(lambda t, y: np.zeros(1), [2.0], 1.0))
    assert not hasattr(ode, "sample")
    assert traj.sample(0.5)[0] == 2.0


def _assert_matches_reference(traj, ts):
    got = traj.sample_many(ts)
    assert np.array_equal(got, cursor_reference(traj, ts))
    # The Hermite-basis form it replaced rounds differently, by at most two
    # ulp of a component's largest stored value on these runs.
    old = np.array([hermite_reference(traj, t) for t in ts])
    ulp = np.spacing(np.abs(traj.states).max(axis=0))
    assert np.all(np.abs(got - old) <= 4 * ulp)


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
    assert np.array_equal(traj.sample_many([traj.stop_time])[0],
                          traj.states[-1])


def test_nonfinite_rhs_region_triggers_failure_not_crash():
    # sqrt goes complex for y > 2; the integrator should shrink and fail
    # cleanly rather than raise.
    def rhs(t, y):
        return np.array([math.sqrt(2.0 - y[0]) + 1.0])
    traj = ode.integrate(problem(rhs, [0.0], 10.0))
    assert traj.status is ode.Status.STEP_FAILURE
    assert np.all(np.isfinite(traj.states))


# The generated float run against the loop kernel it replaced
# (conftest.float_kernel_reference), bit for bit, one step attempt at a
# time.

def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _next_step_reference(err, h):
    """The step size after a first attempt of size h with the error norm
    err, by the controller of conftest.integrate_reference: the builtins
    min and max."""
    if not err <= 1.0:
        if math.isnan(err):
            return h * 0.5
        return h / min(1 / ode._FAC_MIN, (err ** ode._EXPO) / ode._SAFETY)
    fac = ((err ** ode._EXPO) / (1e-4 ** ode._BETA) if err > 0.0
           else 1 / ode._FAC_MAX)
    return h / max(1 / ode._FAC_MAX, min(1 / ode._FAC_MIN, fac / ode._SAFETY))


def _steps_agree(make_rhs, size, t, y, f, h):
    """One step attempt of the generated run (a one-step run) and one step
    of the loop kernel, each on a fresh rhs from ``make_rhs``.  Assert that
    every stage's time, state and slope have equal bits, the last stage's
    being the kernel's new state and its slope; that the run's error norm
    has the bits of the kernel's; that the run accepts the step exactly
    when that norm is at most 1, and retries it at half size exactly when
    it is NaN; that an accepted node is the new state and slope; and that
    the next step size is the one the loop's controller takes from the
    norm.  Return the run's norm and the stage inputs."""
    calls_by = []
    for kernel in (ode._float_kernel, float_kernel_reference):
        rhs = make_rhs()
        seen, slopes = [], []

        def recording(t, y):
            seen.append(_bits([t, *y]))
            out = rhs(t, y)
            slopes.append(_bits(out))
            return out
        fn, stage_calls = kernel(recording, size, ode.DEFAULT_RTOL,
                                 ode.DEFAULT_ATOL)
        if kernel is float_kernel_reference:
            err_reference, y_new, f_new = fn(t, list(y), list(f), h)
            assert type(y_new) is list and len(y_new) == size
            assert seen[-1][1:] == _bits(y_new)
            assert slopes[-1] == _bits(f_new)
        else:
            result, (times, states, derivs) = one_step_run(fn, t, y, f, h)
        assert stage_calls() == len(seen)
        calls_by.append((seen, slopes))
    assert calls_by[0] == calls_by[1]
    status, steps, nan_retries, _, _, _, rhs_error, _, h_next, err = result
    assert _bits([err]) == _bits([err_reference])
    assert status is ode.Status.STEP_FAILURE and steps == 1
    assert rhs_error is None
    accepted = err <= 1.0
    assert len(times) == 1 + accepted
    assert nan_retries == math.isnan(err)
    if accepted:
        assert _bits(states[size:]) == _bits(y_new)
        assert _bits(derivs[size:]) == _bits(f_new)
    assert _bits([h_next]) == _bits([_next_step_reference(err, h)])
    return err, calls_by[0][0]


def _smooth(t, y):
    # Products, not powers: a float ** 2 raises OverflowError, * gives inf.
    n = len(y)
    return [math.cos(t + i) * y[i] - y[(i + 1) % n] * y[(i + 1) % n] + 0.5
            for i in range(n)]


def _at_call(call, value):
    """A maker of fresh smooth right-hand sides whose call number ``call``
    (the stage, counted from 1) returns ``value`` in its first component."""
    def make():
        calls = []

        def rhs(t, y):
            calls.append(t)
            out = _smooth(t, y)
            if len(calls) == call:
                out[0] = value
            return out
        return rhs
    return make


@pytest.mark.parametrize("size", SIZES)
def test_float_step_matches_the_loop_kernel(size):
    rng = np.random.default_rng(size)
    for h in (1e-6, 0.01, 0.3, 2.0):
        y = rng.uniform(-2.0, 2.0, size).tolist()
        t = float(rng.uniform(0.0, 10.0))
        err, seen = _steps_agree(lambda: _smooth, size, t, y, _smooth(t, y), h)
        assert math.isfinite(err) and len(seen) == 6


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("stage", range(1, 7))
@pytest.mark.parametrize("value, h", [(math.nan, 0.1), (1e308, 10.0)])
def test_float_step_matches_on_a_bad_stage(size, stage, value, h):
    # A NaN slope at one stage, or one of 1e308 at h = 10, which takes the
    # stages after it to inf and then to inf - inf = NaN.  A bad FSAL stage
    # (stage 6) reaches only the error norm.
    y = [0.5] * size
    err, _ = _steps_agree(_at_call(stage, value), size, 1.0, y,
                          _smooth(1.0, y), h)
    assert not err <= 1.0


@pytest.mark.parametrize("size", SIZES)
def test_float_step_keeps_the_sign_of_zero(size):
    # The first stage is -0.0 + (0.0 + w * -0.0), which is +0.0; a sum
    # without the leading 0.0 would hand the rhs -0.0.
    y = [-0.0] * size
    err, seen = _steps_agree(lambda: lambda t, y: [-0.0] * len(y), size,
                             0.0, y, y, 0.1)
    assert err == 0.0
    assert seen[0][1:] == _bits([0.0] * size)


@pytest.mark.parametrize("size", [2, 5])
def test_float_step_rejects_a_nan_error_in_the_last_component(size):
    # A NaN slope in the last component at the FSAL stage reaches only that
    # component's error: the state stays finite and every earlier
    # component's error is a number, so the norm must not pass it over.
    def make():
        calls = []

        def rhs(t, y):
            calls.append(t)
            out = _smooth(t, y)
            if len(calls) == 6:
                out[-1] = math.nan
            return out
        return rhs
    y = [0.5] * size
    err, _ = _steps_agree(make, size, 1.0, y, _smooth(1.0, y), 0.1)
    assert math.isnan(err)


@pytest.mark.parametrize("size", [2, 5])
def test_float_step_rejects_an_infinite_state_with_a_finite_error(size):
    # A constant slope of 1e307 over h = 1 takes the last component from
    # 1.7e308 past the largest float; the error weights sum to zero, so its
    # error is a finite sum over an infinite scale, 0.  Only the state
    # itself shows the overflow.
    def rhs(t, y):
        return [-v for v in y[:-1]] + [1e307]
    y = [0.5] * (size - 1) + [1.7e308]
    err, seen = _steps_agree(lambda: rhs, size, 0.0, y, rhs(0.0, y), 1.0)
    assert math.isnan(err)
    assert struct.unpack("<d", seen[-1][-1])[0] == math.inf


def _run_both(problem_for, **kwargs):
    """``ode.integrate`` on the generated run and conftest's
    ``integrate_reference`` on the loop kernel, each on a fresh problem
    from ``problem_for``."""
    return (ode.integrate(problem_for(), **kwargs),
            integrate_reference(problem_for(), **kwargs))


def _assert_same_run(a, b):
    assert a.status is b.status
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)
    assert a.stats == b.stats


@pytest.mark.parametrize("size", SIZES)
def test_integrate_on_the_float_step_matches_the_loop_kernel(size):
    def problem_for():
        return ode.IvpProblem(_smooth, 0.0, np.linspace(0.2, 0.8, size), 5.0)
    new, ref = _run_both(problem_for,
                         stop=lambda t, y: y[0] > 50.0)
    _assert_same_run(new, ref)
    assert new.stats.accepted > 20


@pytest.mark.parametrize("size", SIZES)
def test_float_step_absorbs_the_same_rhs_errors(size):
    # Call 19 divides by zero and call 40 returns NaN: each attempt is
    # retried at half size, with the same counts on either kernel.
    def problem_for():
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == 19:
                return [v / 0.0 for v in y]
            out = _smooth(t, y)
            if len(calls) == 40:
                out[-1] = math.nan
            return out
        return ode.IvpProblem(rhs, 0.0, np.full(size, 0.5), 2.0)
    new, ref = _run_both(problem_for)
    _assert_same_run(new, ref)
    assert new.stats.nan_retries == 2
    assert new.stats.rhs_error == "ZeroDivisionError: float division by zero"


@pytest.mark.parametrize("kernel, size", [
    *((kernel, size) for kernel in (ode._float_kernel, float_kernel_reference)
      for size in SIZES),
    (ode._array_kernel, 6), (ode._array_kernel, 10)])
def test_short_rhs_list_raises_index_error(monkeypatch, size, kernel):
    # A right-hand side that drops a component is a bug in the caller, not
    # a step to retry: the IndexError leaves integrate, on _array_kernel
    # too, where numpy's broadcast into the stage row would raise a
    # ValueError that integrate retries.
    calls = []

    def rhs(t, y):
        calls.append(t)
        out = _smooth(t, y)
        return out[:-1] if len(calls) > 4 else out
    problem = ode.IvpProblem(rhs, 0.0, np.full(size, 0.5), 2.0)
    with pytest.raises(IndexError):
        if kernel is float_kernel_reference:
            integrate_reference(problem)
        else:
            monkeypatch.setattr(ode, "_float_kernel", kernel)
            ode.integrate(problem)


# The generated run against conftest.integrate_reference, the Python loop
# it replaced, on the float step and on _array_kernel: the same nodes,
# states, slopes, status, stop and StepStats, bit for bit.

def _on_kernel(kernel, problem, rtol=ode.DEFAULT_RTOL, atol=ode.DEFAULT_ATOL,
               stop=None, first_step=None):
    """The generated run and the reference loop, each on a fresh problem
    from ``problem``: on the float step, or on _array_kernel, whose numpy
    step the reference loop takes as its step."""
    runs = []
    for side in ("run", "reference"):
        prob = problem()
        size = prob.y0.size
        if kernel == "float":
            pair = None
        elif side == "run":
            pair = ode._array_kernel(prob.rhs, size, rtol, atol)
        else:
            pair = ode._array_step(prob.rhs, size, rtol, atol)
        integrate = ode._integrate if side == "run" else integrate_reference
        # numpy's sums warn where Python floats raise or give inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            runs.append(integrate(prob, rtol, atol, stop, first_step, pair))
    return runs


def _counted(rhs):
    """A maker of fresh problems on ``rhs(calls, t, y)``, which is handed
    the list of the times of its calls so far."""
    def make(y0, t_end):
        def problem():
            calls = []

            def counted(t, y):
                calls.append(t)
                return rhs(calls, t, y)
            return ode.IvpProblem(counted, 0.0, y0, t_end)
        return problem
    return make


def _nan_late(calls, t, y):
    # A NaN slope in the last component at calls 30, 61 and 95: at the
    # last stage of an attempt, the first and the fourth.
    out = _smooth(t, y)
    if len(calls) in (30, 61, 95):
        out[-1] = math.nan
    return out


def _raising(calls, t, y):
    # Call 19 divides by zero, call 40 raises ValueError.
    if len(calls) == 19:
        return [v / 0.0 for v in y]
    if len(calls) == 40:
        raise ValueError("refused")
    return _smooth(t, y)


def _nan_before_a_zero_scale(calls, t, y):
    # From y = (1, 0, ...) with atol = 0, every component but the first
    # stays 0 with a zero error scale, where the error divides by zero; the
    # first component's error is NaN at every attempt's last stage, so the
    # norm stops there and the division is never reached.
    out = [-y[0]] + [0.0] * (len(y) - 1)
    if (len(calls) - 1) % 6 == 0 and len(calls) > 1:
        out[0] = math.nan
    return out


def _rounding_stop(t, y):
    # Rounds the first component of the list it is handed to 12 decimals
    # and never stops the run: the node records the rounded state and the
    # next step goes on from it.
    y[0] = round(y[0], 12)


_CASES = {
    "crossing": lambda size: (
        _counted(lambda calls, t, y: _smooth(t, y))(
            np.linspace(0.2, 0.8, size), 5.0),
        {"stop": lambda t, y: "far" if y[0] * y[0] + t > 2.0 else None}),
    "changing_stop": lambda size: (
        _counted(lambda calls, t, y: _smooth(t, y))(
            np.linspace(0.2, 0.8, size), 1.0),
        {"stop": _rounding_stop}),
    "nan": lambda size: (
        _counted(_nan_late)(np.linspace(0.2, 0.8, size), 1.5), {}),
    "raising": lambda size: (
        _counted(_raising)(np.full(size, 0.5), 2.0), {}),
    "underflow": lambda size: (
        _counted(lambda calls, t, y: [v * v for v in y])(np.ones(size), 2.0),
        {}),
    "max_steps": lambda size: (
        _counted(lambda calls, t, y: _smooth(t, y))(np.full(size, 0.5), 5.0),
        {}),
    "zero_scale": lambda size: (
        _counted(_nan_before_a_zero_scale)(
            np.array([1.0] + [0.0] * (size - 1)), 1.0),
        {"atol": 0.0, "first_step": 0.1}),
}


@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel", ["float", "array"])
def test_generated_run_matches_the_reference_loop(monkeypatch, kernel, size,
                                                  case):
    if case == "max_steps":
        monkeypatch.setattr(ode, "_MAX_STEPS", 7)
    problem, kwargs = _CASES[case](size)
    new, ref = _on_kernel(kernel, problem, **kwargs)
    assert new.status is ref.status
    assert new.times.tobytes() == ref.times.tobytes()
    assert new.states.tobytes() == ref.states.tobytes()
    assert new.derivs.tobytes() == ref.derivs.tobytes()
    assert new.stats == ref.stats
    assert (new.stop_time, new.stop_reason) == (ref.stop_time, ref.stop_reason)
    stats = new.stats
    want = {"crossing": ode.Status.STOPPED, "nan": ode.Status.COMPLETED,
            "raising": ode.Status.COMPLETED,
            "changing_stop": ode.Status.COMPLETED}.get(
                case, ode.Status.STEP_FAILURE)
    assert new.status is want
    if case == "crossing":
        assert new.stop_reason == "far" and stats.stop_calls > stats.accepted + 1
    if case == "changing_stop":
        assert stats.stop_calls == stats.accepted + 1 > 5
    if case == "nan":
        assert stats.nan_retries > 0 and stats.rhs_error is None
    if case == "raising":
        assert stats.nan_retries == 2
        assert stats.rhs_error == "ValueError: refused"
    if case == "max_steps":
        assert stats.accepted + stats.rejected == 7
    if case == "zero_scale":
        assert stats.accepted == 0 and stats.nan_retries > 0
        assert stats.rhs_error is None


@pytest.mark.parametrize("kernel", ["float", "array"])
def test_a_slope_longer_than_the_state_is_refused_on_both_kernels(kernel):
    # y' = -y at 6 components, with 7 values from the fifth call on, the
    # third stage of the first attempt: the run checks the length of the
    # slope it stores once per step, outside the retry handler, and refuses
    # the first attempt's last slope.
    calls = []

    def rhs(t, y):
        calls.append(t)
        out = [-v for v in y]
        return out + [0.0] if len(calls) >= 5 else out
    problem = ode.IvpProblem(rhs, 0.0, np.ones(6), 1.0)
    pair = (ode._array_kernel(rhs, 6, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)
            if kernel == "array" else None)
    with pytest.raises(ValueError, match=re.escape(
            "rhs must return 6 values at every call")):
        ode._integrate(problem, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL, None, None,
                       pair)
    assert len(calls) == 8


# The one tableau, and the laziness of the code generated from it.

def test_the_tableau_is_scipys_rk45():
    # scipy's RK45 is the same Dormand-Prince pair.  Each stage after the
    # first is its node and its row of A; the last, the FSAL stage at
    # t + h, has the propagating weights B.
    from scipy.integrate._ivp.rk import RK45
    stages = ode._STAGES
    assert len(stages) == RK45.n_stages
    for s, (c, row) in enumerate(stages[:-1], start=1):
        assert _bits([c, *row]) == _bits([RK45.C[s], *RK45.A[s, :s]])
        assert not RK45.A[s, s:].any()
    assert _bits([*stages[-1][1]]) == _bits(RK45.B)
    assert stages[-1][0] == RK45.C[-1] == 1.0
    # scipy's E is the embedded minus the propagating weights: each value
    # is that of ode._E negated, its zero weight equal whatever the sign.
    assert list(ode._E) == (-RK45.E).tolist()
    assert _bits([a for a in ode._E if a]) == _bits([-a for a in RK45.E if a])


def test_import_compiles_no_generated_kernel():
    code = ("import averbound\n"
            "from averbound import direct, estimator, ode\n"
            "print(*(f.cache_info().currsize for f in (\n"
            "    ode._compile_float_run, ode._compile_array_run,\n"
            "    estimator._compile_slow_rhs, direct._compile_direct_rhs)))\n")
    src = str(Path(ode.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["0", "0", "0", "0"]


def test_two_runs_at_one_size_compile_one_step(monkeypatch):
    compiled = []
    factory = ode._compile_factory

    def counted(source, label, **names):
        compiled.append(label)
        return factory(source, label, **names)
    monkeypatch.setattr(ode, "_compile_factory", counted)
    ode._compile_float_run.cache_clear()
    for _ in range(2):
        traj = ode.integrate(problem(lambda t, y: [-y[0], -y[1], -y[2]],
                                     np.ones(3), 1.0))
        assert traj.status is ode.Status.COMPLETED
    info = ode._compile_float_run.cache_info()
    assert compiled == ["<ode float run, size 3>"]
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


# The probe of the first step size.

def test_a_raising_probe_is_absorbed():
    # y' = 1/(1e-3 - y) from 0 reaches its pole at t = 5e-7.  The probe, an
    # Euler step of 1e-6, lands on it exactly; the run then ends as the one
    # given that first step does, in step underflow before the pole.
    def rhs(t, y):
        return [1.0 / (1e-3 - y[0])]
    probed = ode.integrate(problem(rhs, [0.0], 1.0))
    given = ode.integrate(problem(rhs, [0.0], 1.0), first_step=1e-6)
    for traj in (probed, given):
        assert traj.status is ode.Status.STEP_FAILURE
        assert traj.stats.accepted > 0 and np.all(traj.states < 1e-3)
    assert probed.stats.rhs_error == "ZeroDivisionError: float division by zero"
    assert given.stats.rhs_error is None


def test_a_raising_or_nan_probe_leaves_the_first_derivative_estimate():
    y0, f0 = np.array([0.5, 2.0]), np.array([3.0, -1.0])
    args = (0.0, y0, f0, 1.0, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)

    def raising(t, y):
        raise ZeroDivisionError("float division by zero")
    h_raise, error = ode._initial_step(raising, *args)
    h_nan, no_error = ode._initial_step(lambda t, y: [math.nan, 0.0], *args)
    scale = ode.DEFAULT_ATOL + ode.DEFAULT_RTOL * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    want = min(100 * (0.01 * d0 / d1), (0.01 / d1) ** 0.2, 1.0)
    assert h_raise == h_nan == want
    assert error == "ZeroDivisionError: float division by zero"
    assert no_error is None
    # A finite probe with a larger estimate takes that one.
    h_probe, _ = ode._initial_step(lambda t, y: [1e3, 0.0], *args)
    assert h_probe < want
