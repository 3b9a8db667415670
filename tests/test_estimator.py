"""Slow-system assembly and estimator-run tests."""
import dataclasses
import functools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import averbound as ab
from averbound import cli, estimator, ode
from averbound import inline as inliner
from averbound.examples import vdp
from averbound.estimator import (EstimatorStatus, SingularMatrixError,
                                 ViolationKind, pack_state, report_columns,
                                 unpack_state)
from conftest import (analytic_partials_loop_reference,
                      analytic_partials_reference, cursor_reference,
                      dalpha_dr_reference, difference_partials_reference,
                      float_kernel_reference, hermite_reference,
                      integrate_reference, invert_reference, one_step_run,
                      slow_products_reference, slow_rhs_reference,
                      toy_linear_decay, without_gradients)


def _slow_rhs(spec, aux, bounds):
    """The slow right-hand side of ``estimator._slow_functions`` at the
    default tolerances."""
    return estimator._slow_functions(spec, aux, bounds, ode.DEFAULT_RTOL,
                                     ode.DEFAULT_ATOL)[0]


def test_pack_unpack_roundtrip():
    j = np.array([1.0, 2.0])
    r = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = np.array([5.0, 6.0])
    y = pack_state(j, r, k, 0.5, 0.25)
    jj, rr, kk, m, n = unpack_state(y, 2)
    assert np.array_equal(jj, j) and np.array_equal(rr, r)
    assert np.array_equal(kk, k) and (m, n) == (0.5, 0.25)
    assert np.ndim(m) == 0 and type(m) is type(n) is np.float64
    grid = np.stack([y, 2 * y])
    gj, gr, gk, gm, gn = unpack_state(grid, 2)
    assert np.array_equal(gr[1], 2 * r) and np.array_equal(gn, [0.25, 0.5])
    assert all(np.shares_memory(part, grid) for part in (gj, gr, gk, gm, gn))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_report_columns_name_the_packed_state(d):
    # Each column's name is the part unpack_state reads there, after tau.
    names = np.array(report_columns(d)[1:], dtype=object)
    j, rmat, k, m, n = unpack_state(names, d)
    assert report_columns(d)[0] == "tau" and len(names) == d * d + 2 * d + 2
    assert j.tolist() == [f"J_{a}" for a in range(1, d + 1)]
    assert rmat[d - 1, 0] == f"R_{d}1" and rmat[0, d - 1] == f"R_1{d}"
    assert k.tolist() == [f"K_{a}" for a in range(1, d + 1)]
    assert (m, n) == ("m", "n")


def test_report_columns_of_two_actions():
    assert report_columns(2) == ["tau", "J_1", "J_2", "R_11", "R_12", "R_21",
                                 "R_22", "K_1", "K_2", "m", "n"]


def test_slow_rhs_vdp_initial_drift(vdp):
    spec = vdp.make_system([4.0], 1e-2)
    rhs = _slow_rhs(spec, vdp.aux, vdp.bounds)
    y0 = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 1.0)
    out = rhs(0.0, y0.tolist())
    assert out[0] == pytest.approx(-4.0)      # fbar(4) = 4*(1 - 2)


def test_slow_rhs_resonant_keeps_r_and_k_frozen(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    rhs = _slow_rhs(spec, resonant.aux, resonant.bounds)
    y0 = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.5)
    out = rhs(0.3, y0.tolist())
    j, r, k, m, n = unpack_state(np.array(out), 1)
    assert r[0, 0] == 0.0 and k[0] == 0.0
    assert j[0] == pytest.approx(1.0)


def test_slow_rhs_scalar_norm_identities(resonant):
    # For d=1 and R=2: |R||R^-1| = 1 and the m-equation uses |R^-1| = 1/2.
    spec = resonant.make_system([2.0], 1e-2)
    rhs = _slow_rhs(spec, resonant.aux, resonant.bounds)
    n_val = 0.5
    y = pack_state(spec.i0, 2.0 * np.eye(1), np.zeros(1), 0.0, n_val)
    out = rhs(0.0, y.tolist())
    gam = ab.growth_value(resonant.bounds, spec.i0, 1e-2 * n_val, n_val)
    assert out[-2] == pytest.approx(0.5 * gam)


def test_singular_fundamental_matrix_raises(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    rhs = _slow_rhs(spec, resonant.aux, resonant.bounds)
    y = pack_state(spec.i0, np.zeros((1, 1)), np.zeros(1), 0.0, 0.5)
    with pytest.raises(SingularMatrixError):
        rhs(0.0, y.tolist())


def test_run_estimator_invariants_vdp(vdp):
    spec = vdp.make_system([0.5], 1e-2)
    est = ab.run_estimator(spec, vdp.aux, vdp.bounds, 10.0)
    assert est.status is EstimatorStatus.COMPLETED
    assert est.tau[0] == 0.0 and est.tau[-1] == 10.0
    assert np.all(est.n > 0.0)
    assert np.all(np.diff(est.m) >= -1e-12)           # monotone growth term
    assert est.m[0] == 0.0 and est.n[0] == est.ell0
    assert np.array_equal(est.r[0], np.eye(1))
    assert np.array_equal(est.k[0], np.zeros(1))
    for name in ("tau", "j", "r", "k", "m", "n"):
        view = getattr(est, name)
        assert not view.flags.writeable
        assert np.shares_memory(view, est.traj.times if name == "tau"
                                else est.traj.states)
    dets = [np.linalg.det(r) for r in est.r]
    assert all(abs(d) > 0 for d in dets)
    # validity conditions hold on the grid
    eps = spec.epsilon
    for idx in range(0, len(est.tau), max(1, len(est.tau) // 16)):
        rho = vdp.bounds.rho_hat(est.j[idx])
        assert 0.0 < est.n[idx] < rho / eps


def test_scalar_fundamental_matrix_is_exponential(vdp):
    # For d=1 the fundamental matrix stays positive and equals
    # exp(integral of the averaged-flow derivative along J).
    spec = vdp.make_system([4.0], 1e-2)
    est = ab.run_estimator(spec, vdp.aux, vdp.bounds, 10.0)
    assert np.all(est.r[:, 0, 0] > 0.0)
    taus = np.linspace(0.0, 10.0, 4001)
    js = unpack_state(est.traj.sample_many(taus), 1)[0]
    vals = np.array([vdp.aux.dfbar(j)[0, 0] for j in js])
    checks = (2.5, 10.0)
    r_chk = unpack_state(est.traj.sample_many(checks), 1)[1]
    for tau_chk, r_num in zip(checks, r_chk[:, 0, 0]):
        mask = taus <= tau_chk + 1e-12
        integral = simpson(vals[mask], x=taus[mask])
        assert abs(r_num - math.exp(integral)) / abs(r_num) < 1e-6


def test_wronskian_identity_euler(euler):
    spec = euler.make_system([4.0, 4.0], 1e-2)
    est = ab.run_estimator(spec, euler.aux, euler.bounds, 1.0)
    taus = np.linspace(0.0, 1.0, 2001)
    js, rs = unpack_state(est.traj.sample_many(taus), 2)[:2]
    trace = np.array([np.trace(euler.aux.dfbar(j)) for j in js])
    det_num = np.linalg.det(rs[-1])
    det_ref = math.exp(simpson(trace, x=taus))
    assert abs(det_num - det_ref) / abs(det_ref) < 1e-6


def test_inhomogeneous_term_matches_quadrature(af_plus):
    # K(tau) = R(tau) * integral of R^-1 pbar(J) along the run.
    spec = af_plus.make_system([1.0], 1e-2)
    est = ab.run_estimator(spec, af_plus.aux, af_plus.bounds, 0.8)
    taus = np.linspace(0.0, 0.8, 4001)
    js, rs, ks = unpack_state(est.traj.sample_many(taus), 1)[:3]
    vals = np.array([(np.linalg.inv(r) @ af_plus.aux.pbar(j))[0]
                     for j, r in zip(js, rs)])
    k_ref = rs[-1, 0, 0] * simpson(vals, x=taus)
    k_num = ks[-1, 0]
    assert abs(k_num - k_ref) / abs(k_ref) < 1e-6


def test_blowup_terminates_with_domain_violation(af_plus):
    spec = af_plus.make_system([1.0], 1e-2)
    est = ab.run_estimator(spec, af_plus.aux, af_plus.bounds, 1.0)
    assert est.status is not EstimatorStatus.COMPLETED
    assert est.tau_final < 1.0
    if est.status is EstimatorStatus.DOMAIN_VIOLATION:
        assert est.violation_kind is ViolationKind.N_EXCEEDS_RHO_OVER_EPS


def test_raising_bound_propagates_from_the_estimator():
    # J decays from 2 as 2*exp(-tau); rho_hat raises once J drops below 1.5.
    # The stop predicate's exception ends the run as itself, not as a domain
    # violation without a condition.
    spec, aux, bounds = toy_linear_decay()

    def rho_hat(j):
        if j[0] < 1.5:
            raise ValueError("rho_hat undefined below J = 1.5")
        return float(j[0])

    bounds = dataclasses.replace(bounds, rho_hat=rho_hat)
    with pytest.raises(ValueError, match="undefined below J = 1.5"):
        ab.run_estimator(spec, aux, bounds, 1.0)


def test_nan_tube_radius_is_a_tube_violation():
    # A NaN radius below J = 1.5 fails n < rho/eps: the run stops there with
    # the tube condition, as it would at radius zero.
    spec, aux, bounds = toy_linear_decay()
    bounds = dataclasses.replace(
        bounds, rho_hat=lambda j: math.nan if j[0] < 1.5 else float(j[0]))
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    assert est.status is EstimatorStatus.DOMAIN_VIOLATION
    assert est.violation_kind is ViolationKind.N_EXCEEDS_RHO_OVER_EPS
    assert est.tau_final == pytest.approx(math.log(2.0 / 1.5), abs=1e-6)


def _shrinking_tube(j):
    return float(min(j[0], j[1])) - 1.5


@pytest.mark.parametrize("rho_hat", [
    _shrinking_tube, lambda j: float(min(j[0], j[1])) - 1.5],
    ids=["def", "lambda"])
def test_two_action_run_stops_where_the_tube_closes(rho_hat):
    # A tube radius that shrinks as both actions decay from 2 to 1.5
    # stops the d = 2 slow solve, on ode._array_kernel, by the tube
    # condition: the stop predicate is called at each accepted node and at
    # the bisection points of the stop localisation, with rho_hat written
    # in (a plain def) or called (a lambda).  The stop time and the step
    # counts are those the Python predicate gave before the predicate was
    # generated code.
    spec, aux, bounds = toy_linear_decay(d=2)
    bounds = dataclasses.replace(bounds, rho_hat=rho_hat)
    keys, _ = inliner.members(inliner.SLOW,
                              estimator._evaluated(aux, bounds), 2)
    key = dict(zip((slot.name for slot in inliner.SLOW), keys))["rho_hat"]
    assert (key is None) is (rho_hat is not _shrinking_tube)
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    assert est.status is EstimatorStatus.DOMAIN_VIOLATION
    assert est.violation_kind is ViolationKind.N_EXCEEDS_RHO_OVER_EPS
    assert est.tau_final == 0.287614405054952
    assert est.traj.stats.to_dict() == {
        "accepted": 12, "rejected": 0, "nan_retries": 0, "rhs_evals": 74,
        "stop_calls": 42, "h_min": 0.0037139460514049793,
        "h_max": 0.034760574867772, "rhs_error": None}


_BUILTINS = [("vdp", {}), ("action-freq", {"kappa": 1}),
             ("action-freq", {"kappa": -1}), ("resonant", {}),
             ("euler-top", {"mu": 1, "lambda1": 2, "lambda2": -1})]


@pytest.mark.parametrize("name,params", _BUILTINS,
                         ids=[f"{n}{p.get('kappa', '')}" for n, p in _BUILTINS])
def test_estimator_refuses_an_uncertified_theta0(name, params):
    # The built-in v and w vanish at theta0 = 0 for every action, and at pi
    # except resonant's; elsewhere the bound does not hold, so no run starts.
    example = ab.make_example(name, params)
    i0 = 0.5 * (example.sample_box[0] + example.sample_box[1])
    refused = [1.0] + ([math.pi] if name == "resonant" else [])
    for theta0 in refused:
        spec = example.make_system(i0, 1e-2, theta0=theta0)
        with pytest.raises(ValueError, match=r"theta0 = .* the identity "
                                             r"v\(I0, theta0\) = 0 fails"):
            ab.run_estimator(spec, example.aux, example.bounds, 0.1)
    for theta0 in [0.0] + ([] if name == "resonant" else [math.pi]):
        spec = example.make_system(i0, 1e-2, theta0=theta0)
        est = ab.run_estimator(spec, example.aux, example.bounds, 0.1)
        assert est.status is EstimatorStatus.COMPLETED


def test_theta0_refusal_names_w_when_only_w_fails():
    spec, aux, bounds = toy_linear_decay()
    aux = dataclasses.replace(aux, w=lambda i, th: np.full(1, 2e-8))
    with pytest.raises(ValueError, match=r"w\(I0, theta0\) = 0 fails with "
                                         r"\|w\| = 2e-08 > 1e-08"):
        ab.run_estimator(spec, aux, bounds, 1.0)
    aux = dataclasses.replace(aux, w=lambda i, th: np.full(1, 1e-8))
    assert ab.run_estimator(spec, aux, bounds, 1.0).status is \
        EstimatorStatus.COMPLETED


@pytest.mark.parametrize("fig", ["1a", "2a", "4a"])
def test_bound_equation_conserves_self_consistency(fig):
    # The bound ODE is constructed so that n - offset(tau, eps*n) - eps|R|m
    # stays exactly zero along the flow; drift would expose an assembly bug
    # in the chain rule or the finite-difference partials.
    from averbound.model import frobenius
    example, preset = ab.figure_preset(fig)
    spec = example.make_system(preset.i0, preset.eps)
    est = ab.run_estimator(spec, example.aux, example.bounds, preset.u)
    eps = preset.eps
    scale = float(np.max(est.n))
    for idx in range(0, len(est.tau), max(1, len(est.tau) // 64)):
        j, rm, kv = est.j[idx], est.r[idx], est.k[idx]
        r_arg = eps * est.n[idx]
        alpha = (example.bounds.a_hat(j, rm, kv, r_arg)
                 + eps * example.bounds.b_hat(j, r_arg))
        resid = est.n[idx] - alpha - eps * frobenius(rm) * est.m[idx]
        assert abs(resid) < 1e-8 * max(1.0, scale)


def test_report_grid_shape(resonant_run):
    _, est, _, _ = resonant_run
    rows = est.report_grid()
    assert rows.shape == (2048, 6)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(est.tau_final)
    assert np.all(np.diff(rows[:, 0]) > 0)
    taus = np.linspace(est.tau[0], est.tau[-1], 2048)
    assert np.array_equal(rows[:, 0], taus)
    assert np.array_equal(rows[:, 1:], cursor_reference(est.traj, taus))
    # The Hermite-basis form it replaced rounds differently, by a few ulp.
    old = np.array([hermite_reference(est.traj, t) for t in taus])
    ulp = np.spacing(np.abs(est.traj.states).max(axis=0))
    assert np.all(np.abs(rows[:, 1:] - old) <= 4 * ulp)


def test_dense_accessors_match_grid(resonant_run):
    _, est, _, _ = resonant_run
    idx = len(est.tau) // 2
    j, r, k, _, n = unpack_state(est.traj.sample_many([est.tau[idx]]), est.d)
    assert np.allclose(j[0], est.j[idx], atol=1e-14)
    assert np.allclose(r[0], est.r[idx], atol=1e-14)
    assert np.allclose(k[0], est.k[idx], atol=1e-14)
    assert n[0] == pytest.approx(est.n[idx], abs=1e-14)


def test_crosscheck_requires_closed_forms(resonant, resonant_run):
    _, est, _, _ = resonant_run
    res = ab.analytic_crosscheck(resonant, est)
    assert res.max_residual < 1e-8
    assert res.name == "analytic-crosscheck"
    assert set(res.details) == {"max_j", "max_r", "max_k"}
    stripped = dataclasses.replace(resonant, closed_flow=None)
    with pytest.raises(ValueError):
        ab.analytic_crosscheck(stripped, est)


def test_crosscheck_fails_on_a_nan_deviation(resonant, resonant_run):
    # A closed form whose R is all NaN: the R deviation is NaN at every
    # node and the report fails, where a fold by Python's max from 0.0
    # would drop it and pass.
    _, est, _, _ = resonant_run

    def nan_r(i0, tau):
        j, r, k = resonant.closed_flow(i0, tau)
        return j, np.full_like(r, math.nan), k
    res = ab.analytic_crosscheck(
        dataclasses.replace(resonant, closed_flow=nan_r), est)
    assert math.isnan(res.details["max_r"])
    assert math.isnan(res.max_residual)
    assert not res.passed


def test_run_estimator_rejects_nonpositive_horizon(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    with pytest.raises(ValueError):
        ab.run_estimator(spec, resonant.aux, resonant.bounds, 0.0)


_ET_A = {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0}
_ET_D = {"mu": 1.0, "lambda1": 1.1, "lambda2": -1.0}


def _numpy_scalar_system(params):
    """action-freq with kappa = -1 and majorants written on numpy scalars:
    ``j[0]`` and ``k[0]`` are never made floats, so each majorant returns a
    numpy scalar on ndarrays (the window), and ``b_hat``, ``c_hat`` and
    ``e_hat`` return one on the lists of the slow solve too."""
    example = ab.make_action_freq(-1)
    bounds = ab.BoundBundle(
        rho_hat=lambda j: j[0],
        a_hat=lambda j, rmat, k, r: 0.5 * (j[0] + r) * rmat[0][0] ** 2 - k[0],
        b_hat=lambda j, r: np.sqrt(j[0] ** 3 + r) / 8,
        c_hat=lambda j, r: np.sqrt(4608 * j[0] ** 8 + 36864 * r) / 16,
        d_hat=lambda j, r: 0.5 * (3 * j[0] * j[0] + 3 * j[0] * r + r * r),
        e_hat=lambda j, r: np.float64(2.0))
    return dataclasses.replace(example, id="af-numpy", bounds=bounds)


def _linear_decay_3(params):
    """The diagonal linear decay of ``toy_linear_decay`` with three
    actions and constant majorants."""
    spec, aux, bounds = toy_linear_decay(d=3)
    return ab.ExampleDefinition(
        id="linear-decay-3", d=3, params={}, omega=spec.omega, f=spec.f,
        g=spec.g, in_domain=spec.in_domain, aux=aux, bounds=bounds,
        sample_box=(np.full(3, 0.5), np.full(3, 2.0)))


def _make(name, params):
    """``make_example`` with the two systems above registered."""
    ab.register_system("af-numpy", _numpy_scalar_system)
    ab.register_system("linear-decay-3", _linear_decay_3)
    return ab.make_example(name, params)


# (system, params, i0, eps, U, expected status)
_SLOW_CASES = {
    "vdp": ("vdp", {}, [0.5], 1e-2, 10.0, "completed"),
    "vdp-1b": ("vdp", {}, [4.0], 1e-2, 10.0, "completed"),
    "af-plus": ("action-freq", {"kappa": 1}, [1.0], 1e-2, 0.9, "completed"),
    "af-plus-blowup": ("action-freq", {"kappa": 1}, [1.0], 1e-2, 1.0,
                       "domain_violation"),
    "af-minus": ("action-freq", {"kappa": -1}, [1.0], 1e-2, 200.0, "completed"),
    "resonant": ("resonant", {}, [2.0], 1e-2, 10.0, "completed"),
    "euler-top-a": ("euler-top", _ET_A, [4.0, 1.0], 1e-2, 1.0, "completed"),
    "euler-top-d": ("euler-top", _ET_D, [4.0, 4.0], 1e-3, 3.0, "completed"),
    # eps * d(offset)/dr reaches 1 before U: the step size underflows.
    "euler-top-step-failure": ("euler-top", _ET_A, [4.0, 1.0], 1e-2, 10.0,
                               "step_failure"),
    "af-numpy": ("af-numpy", {}, [1.0], 1e-2, 5.0, "completed"),
    "linear-decay-3": ("linear-decay-3", {}, [2.0, 2.0, 2.0], 1e-2, 5.0,
                       "completed"),
}


def _difference_gradients(bounds, h=1e-6):
    """``bounds`` with ``a_grad`` and ``b_grad`` taken by central
    differences of its own ``a_hat`` and ``b_hat`` in J and r, returned as
    ndarrays: a gradient bundle for a system whose example has none."""
    def d_dj(fn, j):
        out = []
        for i in range(len(j)):
            jp, jm = list(j), list(j)
            jp[i] += h
            jm[i] -= h
            out.append((fn(jp) - fn(jm)) / (2 * h))
        return np.array(out)

    def a_grad(j, rmat, k, r):
        d = len(j)
        return (d_dj(lambda jj: bounds.a_hat(jj, rmat, k, r), j),
                np.zeros((d, d)), np.zeros(d),
                (bounds.a_hat(j, rmat, k, r + h)
                 - bounds.a_hat(j, rmat, k, r - h)) / (2 * h))

    def b_grad(j, r):
        return (d_dj(lambda jj: bounds.b_hat(jj, r), j),
                (bounds.b_hat(j, r + h) - bounds.b_hat(j, r - h)) / (2 * h))

    return dataclasses.replace(bounds, a_grad=a_grad, b_grad=b_grad)


def _on_lists(make_rhs):
    """A stand-in for ``estimator._slow_functions`` from a slow
    right-hand-side factory on ndarrays, such as ``slow_rhs_reference``:
    its right-hand side adapted at its edge to the list states of the slow
    solve; no fused kernel at d = 1, so that ``ode`` steps that right-hand
    side on its float step, and ``ode._array_kernel`` from d = 2 on, as the
    slow solve takes there; and the slow solve's own stop predicate, whose
    right-hand side is never called, so that it holds no record of an
    evaluation and evaluates d(offset)/dr itself."""
    slow_functions = estimator._slow_functions

    def functions(spec, aux, bounds, rtol, atol):
        ref = make_rhs(spec, aux, bounds)
        rhs = lambda tau, y: ref(tau, np.array(y)).tolist()
        d = spec.d
        kernel = (None if d == 1 else
                  ode._array_kernel(rhs, d * d + 2 * d + 2, rtol, atol))
        return rhs, kernel, slow_functions(spec, aux, bounds, rtol, atol)[2]
    return functions


def _assert_same_run(new, ref, status):
    assert new.status.value == ref.status.value == status
    assert new.violation_kind == ref.violation_kind
    assert new.ell0 == ref.ell0
    for part in ("times", "states", "derivs"):
        assert (getattr(new.traj, part).tobytes()
                == getattr(ref.traj, part).tobytes()), part
    assert new.traj.stats.to_dict() == ref.traj.stats.to_dict()
    assert new.traj.stats.accepted > 10


@pytest.mark.parametrize("case", list(_SLOW_CASES))
def test_slow_rhs_matches_the_numpy_scalar_reference(monkeypatch, case):
    # The slow right-hand side runs on lists of Python floats but keeps
    # every floating-point operation: the run it drives is bit for bit the
    # run of the numpy-scalar reference in conftest, the stop state, the
    # step counts and a step failure included.  The built-in gradients are
    # stripped, so this pins the finite-difference branch.
    name, params, i0, eps, u, status = _SLOW_CASES[case]
    example = _make(name, params)
    spec = example.make_system(i0, eps)
    bounds = without_gradients(example.bounds)
    new = ab.run_estimator(spec, example.aux, bounds, u)
    monkeypatch.setattr(estimator, "_slow_functions",
                        _on_lists(slow_rhs_reference))
    ref = ab.run_estimator(spec, example.aux, bounds, u)
    _assert_same_run(new, ref, status)


# The cases whose example has gradients (d = 1), and euler-top with
# difference gradients (d = 2).
_GRADIENT_CASES = ["vdp", "vdp-1b", "af-plus", "af-plus-blowup", "af-minus",
                   "resonant", "euler-top-a", "euler-top-d"]


@pytest.mark.parametrize("case", _GRADIENT_CASES)
def test_slow_rhs_analytic_branch_matches_the_np_sum_reference(monkeypatch, case):
    # With gradients, the right-hand side takes both offset partials from
    # one a_grad and one b_grad call and contracts them on Python floats:
    # the run equals, bit for bit, the run of the reference that calls the
    # gradients once per partial and contracts by np.sum.
    name, params, i0, eps, u, status = _SLOW_CASES[case]
    example = _make(name, params)
    spec = example.make_system(i0, eps)
    bounds = example.bounds
    if bounds.a_grad is None:
        bounds = _difference_gradients(bounds)
    new = ab.run_estimator(spec, example.aux, bounds, u)
    monkeypatch.setattr(estimator, "_slow_functions",
                        _on_lists(slow_rhs_reference))
    ref = ab.run_estimator(spec, example.aux, bounds, u)
    _assert_same_run(new, ref, status)


@pytest.mark.parametrize("d, kernel", [(1, "_float_kernel"),
                                       (2, "_array_kernel"),
                                       (3, "_array_kernel")])
def test_slow_state_size_selects_the_step_kernel(monkeypatch, d, kernel):
    # The slow state [J, R, K, m, n] has d^2 + 2d + 2 components.  At one
    # action the slow solve steps on the generated float run with the
    # right-hand side written into its stages, which ode builds no kernel
    # for; from two actions on _slow_functions builds ode._array_kernel
    # itself, once, at the slow state size.
    used = []

    def spy(name):
        make = getattr(ode, name)

        def wrapper(rhs, size, rtol, atol):
            used.append((name, size))
            return make(rhs, size, rtol, atol)
        return wrapper
    for name in ("_float_kernel", "_array_kernel"):
        monkeypatch.setattr(ode, name, spy(name))
    integrate = ode._integrate
    steps = []

    def spied_integrate(problem, rtol, atol, stop, first_step, kernel,
                        chunks=1, out_of_time=None):
        steps.append(kernel[0])
        return integrate(problem, rtol, atol, stop, first_step, kernel,
                         chunks, out_of_time)
    monkeypatch.setattr(ode, "_integrate", spied_integrate)
    spec, aux, bounds = toy_linear_decay(d=d)
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    slow = d * d + 2 * d + 2
    assert est.status is EstimatorStatus.COMPLETED
    assert est.traj.states.shape[1] == slow
    (step,) = steps
    if kernel == "_float_kernel":
        assert used == []
        assert step.__code__.co_filename.startswith(f"<slow rhs, d = {d},")
    else:
        assert used == [(kernel, slow)]


@pytest.mark.parametrize("fig", ["1a", "3e"])
def test_one_action_run_on_the_float_step_matches_the_loop_kernel(monkeypatch,
                                                                  fig):
    # A whole d = 1 estimator run, slow solve and stop predicate included,
    # is bit for bit the run of conftest's loop, integrate_reference, with
    # the loop kernel the float step was generated from, stepping the plain
    # right-hand side.
    example, preset = ab.figure_preset(fig)
    spec = example.make_system(preset.i0, preset.eps)
    new = ab.run_estimator(spec, example.aux, example.bounds, preset.u)

    def on_loop_kernel(problem, rtol, atol, stop, first_step, fused,
                       chunks=1, out_of_time=None):
        # the slow solve is one chunk, with no clock
        assert fused is not None and chunks == 1 and out_of_time is None
        return integrate_reference(
            problem, rtol, atol, stop, first_step,
            float_kernel_reference(problem.rhs, 5, rtol, atol))
    monkeypatch.setattr(ode, "_integrate", on_loop_kernel)
    ref = ab.run_estimator(spec, example.aux, example.bounds, preset.u)
    _assert_same_run(new, ref, "completed")


def _generated_partials(d, analytic):
    """The generated offset partials of the slow right-hand side for d
    actions, by gradients or by central differences, as ``block(y, dj,
    drows, dk, radius, eps, bounds) -> (dal_dr, dal_dtau)``, with y the
    state as a list and dj, drows (rows) and dk the slow flow.  Every
    member is called, except the pair the form does not take, whose key is
    ``ABSENT``: the keys give the form."""
    ix = range(d)
    djs = [f"dj{a}" for a in ix]
    drs = [f"d{a}_{b}" for a in ix for b in ix]
    dks = [f"dk{a}" for a in ix]
    absent = ("a_hat", "b_hat") if analytic else ("a_grad", "b_grad")
    called = inliner.Calls(inliner.SLOW, tuple(
        inliner.ABSENT if slot.name in absent else None
        for slot in inliner.SLOW), d)
    lines = estimator._split_lines(d, None, estimator._LISTS) + [
        f"[{', '.join(djs)}] = dj",
        f"[{', '.join(drs)}] = [x for row in drows for x in row]",
        f"[{', '.join(dks)}] = dk",
        "a_hat, b_hat = bounds.a_hat, bounds.b_hat",
        "a_grad, b_grad = bounds.a_grad, bounds.b_grad",
    ] + estimator._partials_lines(d, estimator._state_names(d), djs, drs,
                                  dks, called) + [
        "return dal_dr, dal_dtau"]
    namespace = {}
    exec("def block(y, dj, drows, dk, radius, eps, bounds):\n"
         + "\n".join("    " + line for line in lines), namespace)
    return namespace["block"]


@pytest.mark.parametrize("d", [1, 2])
def test_analytic_partials_equal_the_np_sum_reference(d):
    # Random gradients and slow-flow derivatives of every scale, with the
    # gradient parts as ndarrays or as (nested) tuples of floats.  The
    # estimator's generated block and the loop it replaced get lists, the
    # reference ndarrays.
    rng = np.random.default_rng(20 + d)
    block = _generated_partials(d, analytic=True)
    j, k = np.full(d, 2.0), np.zeros(d)
    rmat = np.eye(d)
    base = toy_linear_decay(d=d)[2]
    draw = lambda *shape: (rng.standard_normal(shape)
                           * 10.0 ** rng.uniform(-6.0, 6.0, shape))
    for trial in range(2000):
        ga_j, ga_r, ga_k, gb_j = draw(d), draw(d, d), draw(d), draw(d)
        ga_rad, gb_rad = draw(2).tolist()
        if trial % 2:
            ga_j, ga_k, gb_j = (tuple(g.tolist()) for g in (ga_j, ga_k, gb_j))
            ga_r = tuple(tuple(row) for row in ga_r.tolist())
        bounds = dataclasses.replace(
            base, a_grad=lambda *args: (ga_j, ga_r, ga_k, ga_rad),
            b_grad=lambda *args: (gb_j, gb_rad))
        dj, drmat, dk = draw(d), draw(d, d), draw(d)
        y = pack_state(j, rmat, k, 0.0, 10.0).tolist()
        got = block(y, dj.tolist(), drmat.tolist(), dk.tolist(), 0.1, 1e-2,
                    bounds)
        loop = analytic_partials_loop_reference(
            bounds, j.tolist(), rmat.tolist(), k.tolist(), 0.1, 1e-2,
            dj.tolist(), drmat.tolist(), dk.tolist())
        want = analytic_partials_reference(bounds, j, rmat, k, 0.1, 1e-2,
                                           dj, drmat, dk)
        assert all(type(x) is float for x in got)
        assert got == want
        assert loop == want


@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant"])
def test_slow_rhs_calls_each_gradient_once(request, name):
    # One a_grad and one b_grad call per evaluation, and with c_hat, d_hat
    # and e_hat for the growth kernel that makes five majorant calls: no
    # a_hat, b_hat or rho_hat.  The same holds for each stage of a step
    # attempt of the run with the right-hand side written into its stages;
    # the stop test the run writes into the accepted node adds one rho_hat
    # call and takes d(offset)/dr from the last stage.
    example = request.getfixturevalue(name)
    calls = {}

    def counting(field, fn):
        def wrapper(*args):
            calls[field] = calls.get(field, 0) + 1
            return fn(*args)
        return wrapper

    bounds = dataclasses.replace(example.bounds, **{
        f.name: counting(f.name, getattr(example.bounds, f.name))
        for f in dataclasses.fields(example.bounds)})
    spec = example.make_system([0.9], 1e-2)
    rhs, (run, stage_calls), _ = estimator._slow_functions(
        spec, example.aux, bounds, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)
    for n_val in (0.1, 0.5, 1.0):
        y = pack_state(spec.i0, 1.3 * np.eye(1), np.full(1, 0.2), 0.1, n_val)
        rhs(0.0, y.tolist())
    assert calls == {"a_grad": 3, "b_grad": 3, "c_hat": 3, "d_hat": 3,
                     "e_hat": 3}
    y = y.tolist()
    f = rhs(0.0, y)
    calls.clear()
    (_, steps, *_), _ = one_step_run(run, 0.0, y, f, 1e-3)
    assert steps == 1
    assert stage_calls() == 6
    assert calls == {"a_grad": 6, "b_grad": 6, "c_hat": 6, "d_hat": 6,
                     "e_hat": 6, "rho_hat": 1}


def test_slow_rhs_is_infinite_where_the_bound_equation_is_singular():
    # With eps = 1/2 and a_hat = 2r the central difference of the offset is
    # exactly 1/eps, so 1 - eps * d(offset)/dr is 0.0.  dn is inf, as the
    # reference's numpy division gives, with no ZeroDivisionError and no
    # numpy warning (warnings are errors in CI): the step that meets it is
    # retried as a non-finite one, not as a raising one.
    spec, aux, bounds = toy_linear_decay(eps=0.5)
    bounds = dataclasses.replace(bounds, a_hat=lambda j, rmat, k, r: 2.0 * r,
                                 b_hat=lambda j, r: 0.0)
    y = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.0)
    out = _slow_rhs(spec, aux, bounds)(0.0, y.tolist())
    with np.errstate(divide="ignore"):
        ref = slow_rhs_reference(spec, aux, bounds)(0.0, y)
    assert np.array(out).tobytes() == ref.tobytes()
    assert out[-1] == math.inf


def test_slow_rhs_rejects_a_short_fbar():
    # fbar of length 1 on a two-action system with analytic gradients (the
    # finite differences would index past its end): the packed derivative
    # is one component short, and the first right-hand-side call says so.
    spec, aux, bounds = toy_linear_decay(d=2)
    bounds = dataclasses.replace(
        bounds, a_grad=lambda j, rmat, k, r: (np.zeros(2), np.zeros((2, 2)),
                                              np.zeros(2), 0.0),
        b_grad=lambda j, r: (np.zeros(2), 0.0))
    aux = dataclasses.replace(aux, fbar=lambda j: [-j[0]])
    with pytest.raises(ValueError, match="rhs must return shape"):
        ab.run_estimator(spec, aux, bounds, 1.0)


@pytest.mark.parametrize("member,shape", [("dfbar", (2, 3)), ("dfbar", (3, 2)),
                                          ("pbar", (1,)), ("pbar", (3,))])
def test_slow_rhs_rejects_a_dfbar_or_pbar_of_the_wrong_shape(member, shape):
    # The products are written out on floats, but a member of the wrong
    # shape on two actions still fails the first right-hand-side call with
    # a ValueError, rather than being cut to fit (or, for a pbar of one
    # entry, broadcast as numpy's + did).
    spec, aux, bounds = toy_linear_decay(d=2)
    aux = dataclasses.replace(aux, **{member: lambda j: np.ones(shape)})
    with pytest.raises(ValueError):
        ab.run_estimator(spec, aux, bounds, 1.0)


def _float_list(x):
    return type(x) is list and all(type(v) is float for v in x)


def _rows(x):
    return type(x) is list and all(_float_list(row) for row in x)


# What each spied callable must receive: a checker per leading argument.
_SPIED_ARGS = {
    "fbar": (_float_list,), "dfbar": (_float_list,), "pbar": (_float_list,),
    "rho_hat": (_float_list,),
    "a_hat": (_float_list, _rows, _float_list),
    "a_grad": (_float_list, _rows, _float_list),
    "b_hat": (_float_list,), "b_grad": (_float_list,), "c_hat": (_float_list,),
    "d_hat": (_float_list,), "e_hat": (_float_list,),
}


@pytest.mark.parametrize("name,i0,u,gradients,status", [
    ("vdp", [0.5], 2.0, True, "completed"),
    ("vdp", [0.5], 2.0, False, "completed"),
    ("af_plus", [1.0], 1.0, True, "domain_violation"),
    ("euler", [4.0, 1.0], 0.5, True, "completed"),
    ("euler", [4.0, 1.0], 0.5, False, "completed"),
])
def test_slow_solve_hands_the_bundles_lists(monkeypatch, request, name, i0, u,
                                            gradients, status):
    # Inside the slow solve, its stop localisation included, every majorant
    # and fbar, dfbar and pbar get the actions, K and the rows of R as lists
    # of Python floats, never ndarrays: array round trips were most of the
    # right-hand side's own time.  (The window and the fixed point, outside
    # the solve, still hand them ndarrays.)
    example = request.getfixturevalue(name)
    bounds = example.bounds
    if not gradients:
        bounds = without_gradients(bounds)
    elif bounds.a_grad is None:
        bounds = _difference_gradients(bounds)
    in_solve = [False]
    seen = {}

    def spy(field, fn):
        def wrapper(*args):
            if in_solve[0]:
                seen[field] = seen.get(field, 0) + 1
                for check, arg in zip(_SPIED_ARGS[field], args):
                    assert check(arg), (field, arg)
            return fn(*args)
        return wrapper

    bounds = dataclasses.replace(bounds, **{
        f.name: spy(f.name, getattr(bounds, f.name))
        for f in dataclasses.fields(bounds) if getattr(bounds, f.name) is not None})
    aux = dataclasses.replace(example.aux, **{
        field: spy(field, getattr(example.aux, field))
        for field in ("fbar", "dfbar", "pbar")})
    integrate = ode._integrate

    def solve(*args, **kwargs):
        in_solve[0] = True
        try:
            return integrate(*args, **kwargs)
        finally:
            in_solve[0] = False

    monkeypatch.setattr(ode, "_integrate", solve)
    spec = example.make_system(i0, 1e-2)
    est = ab.run_estimator(spec, aux, bounds, u)
    assert est.status.value == status
    expected = {"fbar", "dfbar", "pbar", "rho_hat", "c_hat", "d_hat", "e_hat"}
    expected |= {"a_grad", "b_grad"} if gradients else {"a_hat", "b_hat"}
    assert expected <= set(seen)


def test_slow_rhs_products_match_numpy_to_one_ulp_for_a_full_dfbar():
    # dfbar R and dfbar K + pbar are summed on floats from 0.0, left to
    # right.  numpy's @ on 2x2 arrays may go through BLAS, whose fused
    # multiply-add rounds a two-term sum once where the written-out sum
    # rounds twice: with positive entries, so that nothing cancels, an entry
    # of dR differs by at most one ulp.  dK adds pbar to such a sum, and one
    # more rounding can split a one-ulp gap into two at a tie (the two sums
    # land on either side of an even neighbour).  With a diagonal dfbar
    # every sum has one nonzero term, and they agree bit for bit, whatever
    # the signs.
    rng = np.random.default_rng(2205)
    spec, aux, bounds = toy_linear_decay(d=2)
    products = slice(2, 8)          # dR (4) and dK (2) in the packed state
    ulps = np.array([1, 1, 1, 1, 2, 2])
    for trial in range(1000):
        full = trial % 2 == 0
        if full:
            amat, rmat = rng.uniform(0.1, 10.0, (2, 2)), rng.uniform(0.1, 10.0, (2, 2))
            k, pb = rng.uniform(0.1, 10.0, 2), rng.uniform(0.1, 10.0, 2)
        else:
            amat = np.diag(rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3, 2))
            rmat, k, pb = (rng.standard_normal(shape) for shape in ((2, 2), 2, 2))
        trial_aux = dataclasses.replace(aux, dfbar=lambda i: amat,
                                        pbar=lambda i: pb)
        y = pack_state(spec.i0, rmat, k, 0.0, 0.5)
        got = np.array(_slow_rhs(spec, trial_aux, bounds)(0.0, y.tolist()))
        want = slow_rhs_reference(spec, trial_aux, bounds)(0.0, y)
        if full:
            assert np.all(np.abs(got[products] - want[products])
                          <= ulps * np.spacing(np.abs(want[products]))), trial
        else:
            assert got[products].tobytes() == want[products].tobytes(), trial


def _generated_products(d):
    """The generated split and product blocks of the slow right-hand side
    for d actions, as ``block(y, amat, pb) -> (drows, dk, r_dot_dr)``, with
    dfbar(J) and pbar(J) unpacked from the lists ``amat`` and ``pb``."""
    amat = [[f"a{a}_{b}" for b in range(d)] for a in range(d)]
    pb = [f"p{a}" for a in range(d)]
    products, entries = estimator._slow_rhs_lines(
        d, estimator._state_names(d), amat, pb)
    drs, dks = entries[:d * d], entries[d * d:]
    drows = [f"[{', '.join(drs[a * d:(a + 1) * d])}]" for a in range(d)]
    lines = estimator._split_lines(d, None, estimator._LISTS) + [
        f"{estimator._rows_of(amat)} = amat",
        f"{estimator._seq(pb)} = pb"] + products + [
        f"return [{', '.join(drows)}], [{', '.join(dks)}], r_dot_dr"]
    namespace = {}
    exec("def block(y, amat, pb):\n" + "\n".join("    " + line for line in lines),
         namespace)
    return namespace["block"]


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   2.5e-310, -1.1e-308]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generated_products_equal_the_loop_reference(d):
    # The written-out products are the loops they replaced, bit for bit:
    # every sign of zero, every infinity and every NaN, on random entries
    # mixed with signed zeros, infinities, NaN and subnormals.
    rng = np.random.default_rng(2500 + d)
    block = _generated_products(d)

    def draw(count):
        out = []
        for _ in range(count):
            if rng.random() < 0.3:
                out.append(_SPECIAL_FLOATS[rng.integers(len(_SPECIAL_FLOATS))])
            else:
                out.append(float(rng.standard_normal() * 10.0 ** rng.uniform(-8, 8)))
        return out

    specials = 0
    for trial in range(2000):
        y = draw(d * d + 2 * d + 2)
        amat = [draw(d) for _ in range(d)]
        pb = draw(d)
        rows = [y[d + a * d:d + (a + 1) * d] for a in range(d)]
        k = y[d + d * d:2 * d + d * d]
        drows, dk, r_dot_dr = block(y, amat, pb)
        ref_rows, ref_dk, ref_dot = slow_products_reference(amat, pb, rows, k)
        got = [x for row in drows for x in row] + dk + [r_dot_dr]
        want = [x for row in ref_rows for x in row] + ref_dk + [ref_dot]
        assert all(type(x) is float for x in got), trial
        assert all(map(_same_float, got, want)), (trial, got, want)
        specials += any(math.isnan(x) or math.isinf(x) or x == 0.0 for x in got)
    assert specials > 100


def _dalpha_majorants(bounds):
    return ("a_grad", "b_grad") if bounds.a_grad is not None else ("a_hat", "b_hat")


@pytest.mark.parametrize("name,i0,u,gradients,status,stats", [
    ("vdp", [0.5], 10.0, True, "completed",
     {"accepted": 202, "rejected": 1, "rhs_evals": 1220, "stop_calls": 203}),
    ("euler", [4.0, 1.0], 1.0, False, "completed",
     {"accepted": 73, "rejected": 0, "rhs_evals": 440, "stop_calls": 74}),
    ("af_plus", [0.8], 2.0, True, "domain_violation",
     {"accepted": 168, "rejected": 0, "rhs_evals": 1010, "stop_calls": 191}),
])
def test_stop_predicate_reuses_the_fsal_dalpha_dr(monkeypatch, request, name,
                                                  i0, u, gradients, status,
                                                  stats):
    # At the initial state and at every accepted state the right-hand side
    # has just been evaluated there (the initial call, then each step's FSAL
    # stage), and the stop test takes its d(offset)/dr: the stop calls the
    # dalpha/dr majorants only at the stop localisation's bisection points.
    # From d = 2 on the run calls the stop predicate at each accepted node;
    # at d = 1 it tests each node inside its loop, on the last stage's
    # d(offset)/dr, and the predicate is called only at the initial state
    # and the bisection points.  There, with gradients, the slow solve
    # calls each dalpha/dr majorant outside the localisation once per
    # evaluation of the right-hand side, and so never at a node.  The step
    # counts are those of the run that evaluated d(offset)/dr in the
    # predicate at every state.
    example = request.getfixturevalue(name)
    bounds = example.bounds if gradients else without_gradients(example.bounds)
    counted = _dalpha_majorants(bounds)
    state = {"in_stop": False, "localizing": False, "calls": 0}
    predicate_calls = []           # (localizing, majorant calls)
    solve_calls = dict.fromkeys(counted, 0)   # outside the localisation

    def count(field, fn):
        def wrapper(*args):
            state["calls"] += state["in_stop"]
            solve_calls[field] += not state["localizing"]
            return fn(*args)
        return wrapper

    bounds = dataclasses.replace(bounds, **{f: count(f, getattr(bounds, f))
                                            for f in counted})
    functions = estimator._slow_functions

    def spied_functions(*args):
        rhs, kernel, predicate = functions(*args)
        solve_calls.update(dict.fromkeys(counted, 0))   # not the window's

        def spy(tau, y):
            state["in_stop"], state["calls"] = True, 0
            try:
                return predicate(tau, y)
            finally:
                state["in_stop"] = False
                predicate_calls.append((state["localizing"], state["calls"]))
        return rhs, kernel, spy

    localize = ode._localize_stop

    def spied_localize(*args):
        state["localizing"] = True
        try:
            return localize(*args)
        finally:
            state["localizing"] = False

    monkeypatch.setattr(estimator, "_slow_functions", spied_functions)
    monkeypatch.setattr(ode, "_localize_stop", spied_localize)
    spec = example.make_system(i0, 1e-2)
    est = ab.run_estimator(spec, example.aux, bounds, u)
    assert est.status.value == status
    got = est.traj.stats.to_dict()
    assert {key: got[key] for key in stats} == stats
    on_grid = [calls for localizing, calls in predicate_calls if not localizing]
    bisections = [calls for localizing, calls in predicate_calls if localizing]
    assert len(on_grid) == (1 if spec.d == 1 else stats["accepted"] + 1)
    assert not any(on_grid)
    assert len(bisections) == stats["stop_calls"] - stats["accepted"] - 1
    if gradients:
        assert solve_calls == dict.fromkeys(counted, stats["rhs_evals"])
    if status == "domain_violation":
        # the bisection points short of the crossing pass the tube check
        # and evaluate d(offset)/dr there
        assert sum(bisections) > 0


def test_stop_predicate_evaluates_dalpha_dr_without_a_record(vdp, euler):
    # A predicate whose right-hand side has not been called holds no
    # record and hands the list to its right-hand side, with the same
    # verdict as the slow solve's predicate on the record its right-hand
    # side wrote.  vdp (one action) takes d(offset)/dr from a_grad and
    # b_grad, euler-top (two actions) from central differences of a_hat
    # and b_hat.
    for example, i0 in ((vdp, [0.5]), (euler, [4.0, 1.0])):
        spec = example.make_system(i0, 1e-2)
        eps, d = spec.epsilon, spec.d
        slope = [2.0 / eps]
        if example.bounds.a_grad is not None:
            bounds = dataclasses.replace(
                example.bounds, a_grad=lambda j, rmat, k, r: (
                    (0.0,) * d, ((0.0,) * d,) * d, (0.0,) * d, slope[0]),
                b_grad=lambda j, r: ((0.0,) * d, 0.0))
        else:
            bounds = dataclasses.replace(
                example.bounds, a_hat=lambda j, rmat, k, r: slope[0] * r,
                b_hat=lambda j, r: 0.0)
        y = pack_state(spec.i0, np.eye(d), np.zeros(d), 0.0, 0.5).tolist()

        def functions():
            return estimator._slow_functions(spec, example.aux, bounds,
                                             ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)
        rhs, _, recorded = functions()
        rhs(0.0, y)
        _, _, alone = functions()
        assert recorded(0.0, y) is alone(0.0, list(y)) is (
            ViolationKind.DALPHA_DR_EXCEEDS_INV_EPS)
        # only the very list the record holds reuses its d(offset)/dr; an
        # equal copy is evaluated
        slope[0] = 0.0
        rhs(0.0, y)
        slope[0] = 2.0 / eps
        assert recorded(0.0, y) is None
        assert (recorded(0.0, list(y))
                is ViolationKind.DALPHA_DR_EXCEEDS_INV_EPS)


def test_stop_predicate_refuses_a_nonpositive_n(vdp):
    spec = vdp.make_system([0.5], 1e-2)
    stop = estimator._slow_functions(spec, vdp.aux, vdp.bounds,
                                     ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)[2]
    y = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.5).tolist()
    assert stop(0.0, y) is None
    for n in (0.0, -0.0, -1e-300):
        y[-1] = n
        assert stop(0.0, y) is ViolationKind.N_NONPOSITIVE


def _window_bounds(case, gradients, called):
    """The spec and bundle of ``_SLOW_CASES[case]`` with gradients (taken
    by differences where the example has none) or without, and with the
    first member of the slope behind ``functools.wraps`` when ``called``,
    so that the generated code calls it."""
    name, params, i0, eps, _, _ = _SLOW_CASES[case]
    example = _make(name, params)
    bounds = example.bounds
    if not gradients:
        bounds = without_gradients(bounds)
    elif bounds.a_grad is None:
        bounds = _difference_gradients(bounds)
    if called:
        field = "a_grad" if gradients else "a_hat"
        fn = getattr(bounds, field)
        bounds = dataclasses.replace(
            bounds, **{field: functools.wraps(fn)(lambda *args: fn(*args))})
    return example.make_system(i0, eps), bounds


@pytest.mark.parametrize("called", [False, True], ids=["written", "called"])
@pytest.mark.parametrize("gradients", [True, False],
                         ids=["gradients", "differences"])
@pytest.mark.parametrize("case", ["vdp-1b", "af-plus", "resonant",
                                  "euler-top-a"])
def test_window_offset_and_slope_equal_the_references(case, gradients, called):
    # The window and the fixed point take the offset and d(offset)/dr from
    # code written by the slow solve's builders: bit for bit, and of the
    # same type, offset_value and the Python slope they replaced, at the
    # window's ndarray arguments and at lists, for members written in and
    # called.  The radii run from 0 to 0.95 of the tube radius: past 1,
    # where the step of the central difference scales with r, for vdp at
    # I0 = 4 and resonant at I0 = 2.
    spec, bounds = _window_bounds(case, gradients, called)
    keys, arguments = inliner.members(
        inliner.BOUND, estimator._window_members(bounds), spec.d)
    written = {slot.name for slot, key in zip(inliner.BOUND, keys) if key}
    assert "b_hat" in written
    if called:
        assert ("a_grad" if gradients else "a_hat") not in written
    eps, d = spec.epsilon, spec.d
    window = estimator._window_functions(spec, bounds)
    lists = (spec.i0.tolist(), np.eye(d).tolist(), [0.25] * d)
    points = [((spec.i0, np.eye(d), np.zeros(d)), window),
              (lists, estimator._compile_window(d, keys)(
                  eps, *lists, **arguments))]
    ell_star = window[0](0.0)
    radii = [0.0, *(eps * np.linspace(0.5 * ell_star, 1.5 * ell_star, 11)),
             *np.linspace(0.05, 0.95, 7) * bounds.rho_hat(spec.i0)]
    for (j, rmat, k), (offset, slope) in points:
        for r in radii:
            for got, want in ((offset(r),
                               ab.offset_value(bounds, j, rmat, k, r, eps)),
                              (slope(r),
                               dalpha_dr_reference(bounds, j, rmat, k, r,
                                                   eps))):
                assert type(got) is type(want)
                assert _bits_of([got]) == _bits_of([want]), (j, r)


@pytest.mark.parametrize("explicit", [False, True])
def test_run_estimator_samples_the_window_once(monkeypatch, resonant, explicit):
    # The auto window is verified by the sample that sets its slope bound,
    # and is not sampled again before the fixed point; an explicit window
    # is verified by one sample.
    spec = resonant.make_system([2.0], 1e-2)
    window = ab.auto_window(spec, resonant.bounds) if explicit else None
    calls = []
    sampled_slope = estimator._sampled_slope

    def counting(*args):
        calls.append(args)
        return sampled_slope(*args)

    monkeypatch.setattr(estimator, "_sampled_slope", counting)
    est = ab.run_estimator(spec, resonant.aux, resonant.bounds, 1.0,
                           window=window)
    assert len(calls) == 1
    assert est.window_mode == ("explicit" if explicit else "auto")
    assert est.ell0 == ab.find_fixed_point(spec, resonant.bounds, est.window)


def test_three_action_system_runs_to_completion():
    # d = 3 takes the np.linalg.solve branch of the condition check.
    example = _make("linear-decay-3", {})
    spec = example.make_system([2.0, 1.5, 1.0], 1e-2)
    est = ab.run_estimator(spec, example.aux, example.bounds, 2.0)
    assert est.status is EstimatorStatus.COMPLETED and est.tau_final == 2.0
    assert est.traj.states.shape[1] == 3 + 9 + 3 + 2
    # fbar = -J: J = J0 e^-tau and R = e^-tau I
    assert np.allclose(est.j[-1], spec.i0 * math.exp(-2.0), rtol=1e-8)
    assert np.allclose(est.r[-1], math.exp(-2.0) * np.eye(3), rtol=1e-8)
    assert np.all(np.diff(est.n) > 0.0)


def test_three_action_gradients_of_constant_majorants_change_nothing():
    # The majorants are constants, so their differences are exactly zero:
    # zero gradients at d = 3 give the same run, bit for bit.
    example = _make("linear-decay-3", {})
    spec = example.make_system([2.0, 1.5, 1.0], 1e-2)
    bounds = dataclasses.replace(
        example.bounds,
        a_grad=lambda j, rmat, k, r: (np.zeros(3), np.zeros((3, 3)),
                                      np.zeros(3), 0.0),
        b_grad=lambda j, r: (np.zeros(3), 0.0))
    new = ab.run_estimator(spec, example.aux, bounds, 2.0)
    ref = ab.run_estimator(spec, example.aux, example.bounds, 2.0)
    _assert_same_run(new, ref, "completed")


def _generated_norms(d):
    """The generated norms block of the slow right-hand side for d actions
    (written out at d <= 2, a call of ``_inverse_norms`` after), as
    ``norms(rows) -> (|R|, |R^-1|)`` for R as a list of rows."""
    rs = [[f"r{a}_{b}" for b in range(d)] for a in range(d)]
    lines = (estimator._split_lines(d, None, estimator._LISTS) + estimator._norm_lines(rs, set())
             + ["return norm_r, norm_rinv"])
    namespace = {"norms": estimator._inverse_norms, "sqrt": math.sqrt,
                 "SingularMatrixError": SingularMatrixError}
    exec("def block(y):\n" + "\n".join("    " + line for line in lines),
         namespace)
    block = namespace["block"]
    return lambda rows: block([0.0] * d + [x for row in rows for x in row]
                              + [0.0] * (d + 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_inverse_norms_match_the_reference(d):
    rng = np.random.default_rng(100 + d)
    norms = _generated_norms(d)
    for _ in range(3000):
        rmat = (rng.standard_normal((d, d))
                * 10.0 ** rng.uniform(-3.0, 3.0, (d, d)))
        try:
            expected = invert_reference(rmat)[1:]
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=str(exc)):
                norms(rmat.tolist())
            continue
        got = norms(rmat.tolist())
        assert all(type(x) is float for x in got)
        assert got == expected


@pytest.mark.parametrize("rmat, message", [
    (np.zeros((1, 1)), "fundamental matrix is zero"),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), "fundamental matrix is singular"),
    (np.zeros((3, 3)), "Singular matrix"),
    (np.diag([1.0, 1e-13]), "condition estimate"),
    (np.diag([1.0, 1.0, 1e-13]), "condition estimate"),
])
def test_inverse_norms_raise_for_singular_and_ill_conditioned(rmat, message):
    with pytest.raises(SingularMatrixError, match=message):
        invert_reference(rmat)
    with pytest.raises(SingularMatrixError, match=message):
        _generated_norms(len(rmat))(rmat.tolist())


def _logging_bounds(d, log):
    """Smooth majorants of every argument that append each call, its
    arguments written with ``repr`` (so -0.0 shows), to ``log``."""
    def a_hat(j, rows, k, r):
        log.append(("a_hat", repr((j, rows, k, r))))
        return (math.sin(sum(j)) * r + math.cos(sum(x * x for row in rows
                                                     for x in row))
                + math.exp(-sum(k) * r))

    def b_hat(j, r):
        log.append(("b_hat", repr((j, r))))
        return math.cos(j[0] * r) + sum(j) ** 3
    return dataclasses.replace(toy_linear_decay(d=d)[2], a_hat=a_hat,
                               b_hat=b_hat, a_grad=None, b_grad=None)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_difference_block_makes_the_calls_of_the_loops(d):
    # The written-out central differences call a_hat and b_hat with the
    # same arguments, in the same order, as the loops they replaced, and
    # give the same partials bit for bit.  A zero or -0.0 slow-flow entry
    # is skipped; a -0.0 or a NaN in the state is perturbed as it was.
    rng = np.random.default_rng(3100 + d)
    block = _generated_partials(d, analytic=False)
    size = d * d + 2 * d + 2
    skipped = 0
    for trial in range(300):
        y = (rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 2, size)).tolist()
        flow = (rng.standard_normal(size - 2)
                * 10.0 ** rng.uniform(-2, 2, size - 2)).tolist()
        for i in rng.choice(size - 2, 2, replace=False):
            flow[i] = (0.0, -0.0)[trial % 2]
        y[rng.integers(size - 2)] = -0.0
        if trial % 3 == 0:     # max(1.0, |nan|) is 1.0
            y[rng.integers(size - 2)] = math.nan
        dj, flat_dr, dk = flow[:d], flow[d:d + d * d], flow[d + d * d:]
        drows = [flat_dr[a * d:(a + 1) * d] for a in range(d)]
        radius = abs(y[-1]) * 1e-2
        got_log, want_log = [], []
        got = block(y, dj, drows, dk, radius, 1e-2, _logging_bounds(d, got_log))
        j, rmat, k, _, _ = unpack_state(np.array(y), d)
        want = difference_partials_reference(
            _logging_bounds(d, want_log), j.tolist(), rmat.tolist(),
            k.tolist(), radius, 1e-2, dj, drows, dk)
        assert all(type(x) is float for x in got)
        assert _bits_of(got) == _bits_of(want), trial
        assert got_log == want_log, trial
        # two b_hat calls for r and two per nonzero J entry; two a_hat calls
        # for r and two per nonzero entry
        nonzero = sum(x != 0.0 for x in flow)
        assert len(got_log) == 4 + 2 * nonzero + 2 * sum(x != 0.0 for x in dj)
        skipped += nonzero == size - 4
    assert skipped == 300


def _bits_of(values):
    return [struct.pack("<d", x) for x in values]


def _one_action_run(dfbar_fails=(), fused=True, monkeypatch=None):
    """vdp at preset 1a's data to U = 2 on the step with the right-hand
    side written into its stages, or, with ``fused`` False, on ode's float
    step stepping the plain right-hand side.  dfbar returns a (1, 2) array
    at the calls numbered in ``dfbar_fails``, which fails the unpacking of
    a stage with ``ValueError``."""
    example, preset = ab.figure_preset("1a")
    calls = [0]

    def dfbar(j):
        calls[0] += 1
        return np.ones((1, 2)) if calls[0] in dfbar_fails else example.aux.dfbar(j)
    aux = dataclasses.replace(example.aux, dfbar=dfbar)
    spec = example.make_system(preset.i0, preset.eps)
    if not fused:
        functions = estimator._slow_functions

        def plain(*args):
            rhs, _, stop = functions(*args)
            return rhs, None, stop
        monkeypatch.setattr(estimator, "_slow_functions", plain)
    est = ab.run_estimator(spec, aux, example.bounds, 2.0)
    if not fused:
        monkeypatch.undo()
    return est, calls[0]


@pytest.mark.parametrize("dfbar_fails", [(), (40, 203)])
def test_fused_slow_step_matches_the_plain_step(monkeypatch, dfbar_fails):
    # At d = 1 the slow solve steps on the float run with the right-hand
    # side written into its stages: bit for bit the float run calling the
    # plain right-hand side, StepStats included.  dfbar calls 40 and 203
    # fall mid-step (a start takes calls 1 and 2, each step attempt 6):
    # each fails one stage with ValueError, and the step is retried at half
    # size on either step.
    new, new_calls = _one_action_run(dfbar_fails)
    ref, ref_calls = _one_action_run(dfbar_fails, False, monkeypatch)
    _assert_same_run(new, ref, "completed")
    assert new_calls == ref_calls > 203
    assert new.traj.stats.nan_retries == len(dfbar_fails)
    if dfbar_fails:
        assert new.traj.stats.rhs_error.startswith("ValueError: too many values")


def test_fused_slow_step_propagates_a_singular_matrix_error():
    # A stage state whose R is exactly zero raises SingularMatrixError,
    # which is no retry: it leaves the step and the integrator, after the
    # same stage count on the fused step and on the plain one.  Slope -5 in
    # R over h = 1 takes R = 1 to 1 + 0.2 * -5 = 0 at the first stage.
    example, preset = ab.figure_preset("1a")
    spec = example.make_system(preset.i0, preset.eps)
    rhs, fused, _ = estimator._slow_functions(spec, example.aux, example.bounds,
                                           ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)
    y0 = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.5)
    f0 = rhs(0.0, y0.tolist())
    f0[1] = -5.0
    problem = ode.IvpProblem(lambda tau, y: f0 if y[1] == 1.0 else rhs(tau, y),
                             0.0, y0, 2.0)
    plain = ode._float_kernel(rhs, 5, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL)
    for run, stage_calls in (fused, plain):
        with pytest.raises(SingularMatrixError, match="fundamental matrix is zero"):
            ode._integrate(problem, ode.DEFAULT_RTOL, ode.DEFAULT_ATOL, None,
                           1.0, (run, stage_calls))
        assert stage_calls() == 1


@pytest.mark.parametrize("part", ["dJ", "dR"])
def test_short_gradient_part_raises_index_error(part):
    # Every entry of dA/dJ and dA/dR is read by index: a part one entry
    # short per row is a bug in the bundle, which leaves the run as
    # IndexError.  A short dR row was once cut to fit by zip.
    example = ab.make_euler_top(1.0, 2.0, -1.0)
    full = _difference_gradients(example.bounds)

    def a_grad(j, rmat, k, r):
        ga_j, ga_r, ga_k, ga_rad = full.a_grad(j, rmat, k, r)
        if part == "dJ":
            return ga_j[:1], ga_r, ga_k, ga_rad
        return ga_j, ga_r[:, :1], ga_k, ga_rad
    bounds = dataclasses.replace(full, a_grad=a_grad)
    spec = example.make_system([4.0, 1.0], 1e-2)
    with pytest.raises(IndexError):
        ab.run_estimator(spec, example.aux, bounds, 1.0)


def _wrapped(fn):
    """``fn`` behind ``functools.wraps``, which the inliner refuses: the
    slow solve calls it."""
    if fn is None:
        return None

    @functools.wraps(fn)
    def call(*args):
        return fn(*args)
    return call


def _called_bundles(aux, bounds):
    """``aux`` and ``bounds`` with every member behind :func:`_wrapped`."""
    return tuple(dataclasses.replace(bundle, **{
        f.name: _wrapped(getattr(bundle, f.name))
        for f in dataclasses.fields(bundle)}) for bundle in (aux, bounds))


def _written_keys(spec, aux, bounds):
    """The keys of the members the slow solve of ``spec`` writes in, by
    name, None for those it calls, without the pair its partials do not
    call."""
    fns = estimator._evaluated(aux, bounds)
    keys, _ = inliner.members(inliner.SLOW, fns, spec.d)
    return {slot.name: key for slot, fn, key in zip(inliner.SLOW, fns, keys)
            if fn is not None}


def _assert_same_solve(got, want):
    assert got.status is want.status
    assert got.violation_kind == want.violation_kind
    assert got.ell0 == want.ell0
    for part in ("times", "states", "derivs"):
        assert (getattr(got.traj, part).tobytes()
                == getattr(want.traj, part).tobytes()), part
    assert got.traj.stats == want.traj.stats
    assert got.traj.stop_time == want.traj.stop_time
    assert got.traj.stop_reason == want.traj.stop_reason


# (system, params, i0, eps, U, status) of the slow solves whose members
# are written in: the presets' data, two stops, and the 4b data at U = 10.
_WRITTEN_CASES = {
    "vdp-1a": ("vdp", {}, [0.5], 1e-2, 10.0, "completed"),
    "vdp-1c": ("vdp", {}, [4.0], 1e-2, 200.0, "completed"),
    "af-plus-2a": ("action-freq", {"kappa": 1}, [1.0], 1e-2, 0.9,
                   "completed"),
    "af-plus-stop": ("action-freq", {"kappa": 1}, [0.8], 1e-2, 2.0,
                     "domain_violation"),
    "af-minus-2d": ("action-freq", {"kappa": -1}, [1.0], 1e-2, 200.0,
                    "completed"),
    "resonant-3a": ("resonant", {}, [0.5], 1e-2, 10.0, "completed"),
    "resonant-3e": ("resonant", {}, [2.0], 1e-2, 10.0, "completed"),
    "euler-top-4a": ("euler-top", _ET_A, [4.0, 4.0], 1e-2, 1.0, "completed"),
    "euler-top-4d": ("euler-top", _ET_D, [4.0, 4.0], 1e-3, 3.0, "completed"),
    "euler-top-4b-u10": ("euler-top", _ET_A, [4.0, 1.0], 1e-2, 10.0,
                         "step_failure"),
}


@pytest.mark.parametrize("case", list(_WRITTEN_CASES))
def test_written_in_members_equal_their_calls(case):
    # Every member of each built-in that the slow solve evaluates is
    # written into its right-hand side, and at d = 1 into each stage of its
    # run, and a helper a member calls is called from it; the solve is bit
    # for bit the one that calls every member: nodes, slopes, step counts
    # and the stop.
    name, params, i0, eps, u, status = _WRITTEN_CASES[case]
    example = ab.make_example(name, params)
    spec = example.make_system(i0, eps)
    aux, bounds = example.aux, example.bounds
    keys = _written_keys(spec, aux, bounds)
    assert all(key is not None for key in keys.values()), keys
    if name == "vdp":
        assert "_a_radicand" in inliner.inline_form(*keys["a_grad"][:2]).free
        assert "_b_hat" in inliner.inline_form(*keys["b_grad"][:2]).free
    written = ab.run_estimator(spec, aux, bounds, u)
    called_aux, called_bounds = _called_bundles(aux, bounds)
    assert not any(_written_keys(spec, called_aux, called_bounds).values())
    called = ab.run_estimator(spec, called_aux, called_bounds, u)
    assert written.status.value == status
    _assert_same_solve(written, called)
    if case == "af-plus-stop":
        assert abs(written.tau_final - 1.19446) < 1e-5
        assert written.violation_kind is not None
    if case == "euler-top-4b-u10":
        stats = written.traj.stats
        assert (stats.accepted, stats.rejected) == (174, 72)
        assert abs(written.tau_final - 1.383028) < 1e-6


def _decay_a_hat(j, rmat, k, r):
    return 0.01 * (float(j[0]) + r)


def _decay_b_hat(j, r):
    return 0.01 + 0.0 * r


def _decay_c_hat(j, r):
    return 0.01


def _decay_a_grad(j, rmat, k, r):
    return (0.01, 0.0, 0.0), ((0.0, 0.0, 0.0),) * 3, (0.0, 0.0, 0.0), 0.01


def _decay_b_grad(j, r):
    return (0.0, 0.0, 0.0), 0.0


@pytest.mark.parametrize("form", ["differences", "gradients"])
def test_written_in_members_at_d3_leave_the_rows_to_the_norms(form):
    # From d = 3 on the norms of R and R^-1 read the list of R's rows.
    # With bounds written in that never read rmat, the evaluation still
    # forms the list for them; the solve equals the one that calls every
    # member, bit for bit.
    spec, aux, bounds = toy_linear_decay(d=3)
    bounds = dataclasses.replace(
        bounds, a_hat=_decay_a_hat, b_hat=_decay_b_hat, c_hat=_decay_c_hat,
        **({"a_grad": _decay_a_grad, "b_grad": _decay_b_grad}
           if form == "gradients" else {}))
    keys = _written_keys(spec, aux, bounds)
    written_names = {"a_hat", "b_hat"} if form == "differences" else {
        "a_grad", "b_grad"}
    assert all(keys[name] is not None for name in written_names | {"c_hat"})
    written = ab.run_estimator(spec, aux, bounds, 5.0)
    called = ab.run_estimator(spec, *_called_bundles(aux, bounds), 5.0)
    assert written.status is EstimatorStatus.COMPLETED
    _assert_same_solve(written, called)


def _raising_bounds(c):
    """vdp's c_hat and a_grad, raising at the action c: c_hat by dividing
    by zero, and a_grad from ``math.log``, with their values unchanged
    elsewhere.  c_hat calls vdp's own c_hat from its closure."""
    c_hat_of, a_grad_of = vdp._c_hat, vdp._a_grad

    def c_hat(j, r):
        x = float(j[0])
        return c_hat_of(j, r) + 0.0 * (1.0 / (x - c))

    def a_grad(j, rmat, k, r):
        return a_grad_of(j, rmat, k, r) if j[0] != c else math.log(0.0)
    return c_hat, a_grad


def test_written_in_member_raises_at_the_call_that_raises():
    # c is J at c_hat's 40th evaluation, mid-step: there the written-in
    # c_hat raises ZeroDivisionError as its call does, before a_grad, which
    # would raise ValueError, is reached; the step is retried at half size,
    # and the two solves agree bit for bit.
    example = ab.make_vdp()
    spec = example.make_system([0.5], 1e-2)
    seen = []

    def recording(j, r):
        seen.append(j[0])
        return vdp._c_hat(j, r)
    bounds = dataclasses.replace(example.bounds, c_hat=recording)
    ab.run_estimator(spec, example.aux, bounds, 2.0)
    c_hat, a_grad = _raising_bounds(seen[39])
    bounds = dataclasses.replace(example.bounds, c_hat=c_hat, a_grad=a_grad)
    keys = _written_keys(spec, example.aux, bounds)
    assert keys["c_hat"] is not None and keys["a_grad"] is not None
    assert "c_hat_of" in inliner.inline_form(*keys["c_hat"][:2]).free
    written = ab.run_estimator(spec, example.aux, bounds, 2.0)
    called = ab.run_estimator(spec, example.aux, dataclasses.replace(
        bounds, c_hat=_wrapped(c_hat), a_grad=_wrapped(a_grad)), 2.0)
    _assert_same_solve(written, called)
    stats = written.traj.stats
    assert written.status is EstimatorStatus.COMPLETED
    assert stats.rhs_error == "ZeroDivisionError: float division by zero"
    assert stats.nan_retries == 1


def _c_hat_defaulted(j, r, scale=1.0):
    return vdp._c_hat(j, r)


def _c_hat_forwarding(*args):
    return vdp._c_hat(*args)


@pytest.mark.parametrize("shape", ["args", "lambda", "default"])
def test_refused_members_are_called(shape):
    # A *args wrapper (as perfbench's tracer puts around members), a lambda
    # and a default argument are called; the solve equals the one with
    # vdp's c_hat written in, bit for bit.
    c_hat = {"args": _c_hat_forwarding,
             "lambda": lambda j, r: vdp._c_hat(j, r),
             "default": _c_hat_defaulted}[shape]
    example = ab.make_vdp()
    spec = example.make_system([4.0], 1e-2)
    bounds = dataclasses.replace(example.bounds, c_hat=c_hat)
    assert inliner.written_in(c_hat, 2) is None
    assert _written_keys(spec, example.aux, bounds)["c_hat"] is None
    got = ab.run_estimator(spec, example.aux, bounds, 10.0)
    want = ab.run_estimator(spec, example.aux, example.bounds, 10.0)
    _assert_same_solve(got, want)


_SHARED = {
    "kappa+1": ["--example", "action-freq", "--kappa", "1", "--i0", "0.8",
                "--eps", "1e-2", "--u", "0.5"],
    "kappa-1": ["--example", "action-freq", "--kappa", "-1", "--i0", "0.8",
                "--eps", "1e-2", "--u", "0.5"],
    "top-a": ["--example", "euler-top", "--mu", "1", "--l1", "2", "--l2",
              "-1", "--i0", "4,1", "--eps", "1e-2", "--u", "0.5"],
    "top-d": ["--example", "euler-top", "--mu", "1", "--l1", "1.1", "--l2",
              "-1", "--i0", "4,4", "--eps", "1e-2", "--u", "0.5"],
}


def _estimate(tmp_path, name, tag, alone=False):
    """The table and the sidecar, wall time aside, of ``estimate`` on the
    job ``name``: in this process, or ``alone`` in a process of its own."""
    out = tmp_path / f"{name}-{tag}.csv"
    argv = ["estimate", *_SHARED[name], "--out", str(out)]
    if alone:
        src = str(Path(estimator.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, path) if p)}
        subprocess.run([sys.executable, "-c",
                        "import sys; from averbound.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", *argv],
                       env=env, check=True, capture_output=True)
    else:
        assert cli.main(argv) == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    sidecar.pop("wall_time_s")
    return out.read_bytes(), sidecar


def test_shared_compiles_keep_their_parameters(tmp_path):
    # kappa = +1 and -1 share one compile of the slow source, and so do two
    # euler-top parameter sets: each job, run after the other in one
    # process, writes what it writes alone, in a process of its own, so no
    # value a member reads from outside was kept from the first job.
    for first, second in (("kappa+1", "kappa-1"), ("top-a", "top-d")):
        estimator._compile_slow_rhs.cache_clear()
        pair = [_estimate(tmp_path, name, "pair") for name in (first, second)]
        assert estimator._compile_slow_rhs.cache_info().misses == 1
        assert pair[0] != pair[1]
        assert pair == [_estimate(tmp_path, name, "alone", alone=True)
                        for name in (first, second)]
