"""Fixed point of the level map: oracles, windows, convergence control."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import averbound as ab
from averbound.estimator import (ContractionError, ContractionWindow,
                                 NoConvergenceError, WindowError, verify_window)
from conftest import without_gradients


def test_resonant_fixed_point_matches_scalar_iteration(resonant):
    # Independent oracle: iterate l -> 1/(2 - eps*l) + 2*eps/(2 - eps*l)^3
    # to machine precision.
    eps = 1e-2
    l = 0.5
    for _ in range(200):
        l = 1.0 / (2.0 - eps * l) + 2.0 * eps / (2.0 - eps * l) ** 3
    spec = resonant.make_system([2.0], eps)
    window = ContractionWindow(ell_star=0.5, sigma=0.4, slope_bound=0.26)
    ell0 = ab.find_fixed_point(spec, resonant.bounds, window, tol=1e-10)
    assert abs(ell0 - l) < 1e-9


def test_constant_level_map_converges_immediately():
    spec, aux, bounds = _synthetic(slope=0.0, offset=0.7)
    window = ContractionWindow(ell_star=0.5, sigma=0.45, slope_bound=0.01)
    ell0 = ab.find_fixed_point(spec, bounds, window, tol=1e-12)
    assert ell0 == pytest.approx(0.7)


def test_vdp_fixed_point_against_root_bracketing(vdp):
    eps = 1e-2
    spec = vdp.make_system([4.0], eps)

    def gap(ell):
        return ab.offset_value(vdp.bounds, spec.i0, np.eye(1), np.zeros(1),
                               eps * ell, eps) - ell

    oracle = brentq(gap, 0.0, 10.0, xtol=1e-13)
    window = ab.auto_window(spec, vdp.bounds)
    ell0 = ab.find_fixed_point(spec, vdp.bounds, window, tol=1e-12)
    assert abs(ell0 - oracle) < 1e-9


def test_fixed_point_residual_invariant(resonant):
    eps = 1e-2
    spec = resonant.make_system([2.0], eps)
    window = ab.auto_window(spec, resonant.bounds)
    tol = 1e-12
    ell0 = ab.find_fixed_point(spec, resonant.bounds, window, tol=tol)
    alpha0 = ab.offset_value(resonant.bounds, spec.i0, np.eye(1), np.zeros(1),
                             eps * ell0, eps)
    assert abs(alpha0 - ell0) <= tol


def test_window_slope_underestimate_rejected(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    window = ContractionWindow(ell_star=0.5, sigma=0.4, slope_bound=0.01)
    with pytest.raises(ContractionError):
        ab.find_fixed_point(spec, resonant.bounds, window)


def test_window_outside_tube_rejected(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    # rho(0)/eps = 200, so a window reaching 250 is invalid
    window = ContractionWindow(ell_star=200.0, sigma=50.0, slope_bound=0.9)
    with pytest.raises(ContractionError):
        verify_window(spec, resonant.bounds, window)


def test_slow_contraction_hits_iteration_cap():
    spec, aux, bounds = _synthetic(slope=0.9, offset=0.6, eps=1.0)
    window = ContractionWindow(ell_star=5.5, sigma=1.0, slope_bound=0.905)
    with pytest.raises(NoConvergenceError, match="within 200 iterations"):
        ab.find_fixed_point(spec, bounds, window, tol=1e-12)


def test_auto_window_is_valid_and_flagged(vdp):
    spec = vdp.make_system([4.0], 1e-2)
    window = ab.auto_window(spec, vdp.bounds)
    verify_window(spec, vdp.bounds, window)
    est = ab.run_estimator(spec, vdp.aux, vdp.bounds, 0.5)
    assert est.window_mode == "auto"
    est2 = ab.run_estimator(spec, vdp.aux, vdp.bounds, 0.5, window=window)
    assert est2.window_mode == "explicit"


def test_analytic_gradients_take_precedence():
    # A bundle lying about its radius derivative: the sampled-slope check
    # must consult the analytic gradient, not finite differences.
    spec, aux, bounds = _synthetic(slope=0.5, offset=0.7)
    lying = ab.BoundBundle(
        rho_hat=bounds.rho_hat, a_hat=bounds.a_hat, b_hat=bounds.b_hat,
        c_hat=bounds.c_hat, d_hat=bounds.d_hat, e_hat=bounds.e_hat,
        a_grad=lambda j, rmat, k, r: (np.zeros(1), np.zeros((1, 1)),
                                      np.zeros(1), 0.0),
        b_grad=lambda j, r: (np.zeros(1), 0.0),
    )
    tight = ContractionWindow(ell_star=0.7, sigma=0.5, slope_bound=1e-6)
    verify_window(spec, lying, tight)          # passes only via a_grad
    with pytest.raises(ContractionError):
        verify_window(spec, bounds, tight)     # finite differences see 0.5


@pytest.mark.parametrize("from_level", [0.0, 0.9])
def test_a_nan_slope_certifies_no_window(resonant, from_level):
    # The radius slope of a_grad is NaN at every sampled level, or from 0.9
    # of the way up the window on, after finite samples.  A NaN is no slope
    # bound: the window check fails and no window is built.
    spec = resonant.make_system([2.0], 1e-2)
    window = ab.auto_window(spec, resonant.bounds)
    lo, hi = window.interval()
    grad = resonant.bounds.a_grad

    def a_grad(j, rmat, k, r):
        dj, drmat, dk, dr = grad(j, rmat, k, r)
        if r >= spec.epsilon * (lo + from_level * (hi - lo)):
            dr = math.nan
        return dj, drmat, dk, dr
    nan_slope = dataclasses.replace(resonant.bounds, a_grad=a_grad)
    with pytest.raises(ContractionError, match="sampled level-map slope nan"):
        verify_window(spec, nan_slope, window)
    with pytest.raises(WindowError):
        ab.auto_window(spec, nan_slope)


@pytest.mark.parametrize("given", ["a_grad", "b_grad"])
def test_bundle_rejects_a_single_gradient(vdp, given):
    grads = {"a_grad": lambda j, rmat, k, r: (np.zeros(1), np.zeros((1, 1)),
                                              np.zeros(1), 0.0),
             "b_grad": lambda j, r: (np.zeros(1), 0.0)}
    with pytest.raises(ValueError, match="together"):
        dataclasses.replace(without_gradients(vdp.bounds),
                            **{given: grads[given]})
    with pytest.raises(ValueError, match="together"):
        dataclasses.replace(vdp.bounds, **{given: None})


def test_auto_window_samples_the_slope_once(vdp):
    # One 101-point sample of |d(offset)/dr| (two a_hat calls per point by
    # central differences), ell* and the self-map check.  vdp's gradients
    # are stripped: with them the slope sample calls a_grad, not a_hat.
    calls = []
    bounds = without_gradients(vdp.bounds)

    def a_hat(*args):
        calls.append(args)
        return bounds.a_hat(*args)

    counting = dataclasses.replace(bounds, a_hat=a_hat)
    window = ab.auto_window(vdp.make_system([4.0], 1e-2), counting)
    assert window == ab.auto_window(vdp.make_system([4.0], 1e-2), bounds)
    assert len(calls) <= 2 * 101 + 2


def test_auto_window_reads_the_exact_slope(vdp):
    # With vdp's gradients the slope sample makes one a_grad call per
    # level and no a_hat call beyond ell* and the self-map check; the
    # sampled slope agrees with the difference quotient to its truncation
    # error.
    calls = {"a_hat": 0, "a_grad": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    counting = dataclasses.replace(
        vdp.bounds, a_hat=counted("a_hat", vdp.bounds.a_hat),
        a_grad=counted("a_grad", vdp.bounds.a_grad))
    spec = vdp.make_system([4.0], 1e-2)
    window = ab.auto_window(spec, counting)
    assert calls == {"a_hat": 2, "a_grad": 101}
    by_differences = ab.auto_window(spec, without_gradients(vdp.bounds))
    assert window.ell_star == by_differences.ell_star
    assert window.slope_bound == pytest.approx(by_differences.slope_bound,
                                               rel=1e-9)


def _synthetic(slope, offset, eps=1e-2):
    """d=1 system with an affine level map offset + slope*r."""
    spec = ab.SystemSpec(
        d=1, epsilon=eps,
        omega=lambda i: 1.0,
        f=lambda i, th: np.zeros(1),
        g=lambda i, th: 0.0,
        in_domain=lambda i: True,
        i0=np.array([1.0]),
    )
    bounds = ab.BoundBundle(
        rho_hat=lambda j: float("inf"),
        a_hat=lambda j, rmat, k, r: offset + slope * r,
        b_hat=lambda j, r: 0.0,
        c_hat=lambda j, r: 0.0,
        d_hat=lambda j, r: 0.0,
        e_hat=lambda j, r: 0.0,
    )
    return spec, None, bounds
