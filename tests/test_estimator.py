"""Slow-system assembly and estimator-run tests."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

import averbound as ab
from averbound.estimator import (EstimatorStatus, SingularMatrixError,
                                 ViolationKind, assemble_slow_rhs, pack_state,
                                 unpack_state)
from conftest import hermite_reference, toy_linear_decay


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


def test_slow_rhs_vdp_initial_drift(vdp):
    spec = vdp.make_system([4.0], 1e-2)
    rhs = assemble_slow_rhs(spec, vdp.aux, vdp.bounds)
    y0 = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 1.0)
    out = rhs(0.0, y0)
    assert out[0] == pytest.approx(-4.0)      # fbar(4) = 4*(1 - 2)


def test_slow_rhs_resonant_keeps_r_and_k_frozen(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    rhs = assemble_slow_rhs(spec, resonant.aux, resonant.bounds)
    y0 = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.5)
    out = rhs(0.3, y0)
    j, r, k, m, n = unpack_state(out, 1)
    assert r[0, 0] == 0.0 and k[0] == 0.0
    assert j[0] == pytest.approx(1.0)


def test_slow_rhs_scalar_norm_identities(resonant):
    # For d=1 and R=2: |R||R^-1| = 1 and the m-equation uses |R^-1| = 1/2.
    spec = resonant.make_system([2.0], 1e-2)
    rhs = assemble_slow_rhs(spec, resonant.aux, resonant.bounds)
    n_val = 0.5
    y = pack_state(spec.i0, 2.0 * np.eye(1), np.zeros(1), 0.0, n_val)
    out = rhs(0.0, y)
    gam = ab.growth_value(resonant.bounds, spec.i0, 1e-2 * n_val, n_val)
    assert out[-2] == pytest.approx(0.5 * gam)


def test_singular_fundamental_matrix_raises(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    rhs = assemble_slow_rhs(spec, resonant.aux, resonant.bounds)
    y = pack_state(spec.i0, np.zeros((1, 1)), np.zeros(1), 0.0, 0.5)
    with pytest.raises(SingularMatrixError):
        rhs(0.0, y)


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


def test_raising_bound_gives_undetermined_violation():
    # J decays from 2 as 2*exp(-tau); rho_hat raises once J drops below 1.5,
    # so the stop state names no failed condition.
    spec, aux, bounds = toy_linear_decay()

    def rho_hat(j):
        if j[0] < 1.5:
            raise ValueError("rho_hat undefined below J = 1.5")
        return float(j[0])

    bounds = dataclasses.replace(bounds, rho_hat=rho_hat)
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    assert est.status is EstimatorStatus.DOMAIN_VIOLATION
    assert est.violation_kind is ViolationKind.UNDETERMINED
    assert est.tau_final == pytest.approx(math.log(2.0 / 1.5), abs=1e-6)


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
    loop = np.array([[t, *hermite_reference(est.traj, t)] for t in taus])
    assert np.array_equal(rows, loop)


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


def test_run_estimator_rejects_nonpositive_horizon(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    with pytest.raises(ValueError):
        ab.run_estimator(spec, resonant.aux, resonant.bounds, 0.0)
