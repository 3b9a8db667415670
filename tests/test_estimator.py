"""Slow-system assembly and estimator-run tests."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

import averbound as ab
from averbound import estimator
from averbound.estimator import (EstimatorStatus, SingularMatrixError,
                                 ViolationKind, assemble_slow_rhs, pack_state,
                                 unpack_state)
from conftest import (analytic_partials_reference, cursor_reference,
                      hermite_reference, invert_reference, slow_rhs_reference,
                      toy_linear_decay, without_gradients)


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


def test_run_estimator_rejects_nonpositive_horizon(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    with pytest.raises(ValueError):
        ab.run_estimator(spec, resonant.aux, resonant.bounds, 0.0)


_ET_A = {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0}
_ET_D = {"mu": 1.0, "lambda1": 1.1, "lambda2": -1.0}


def _numpy_scalar_system(params):
    """action-freq with kappa = -1 and majorants written on numpy scalars
    (each returns one; ``j[0]`` and ``k[0]`` are never made floats)."""
    example = ab.make_action_freq(-1)
    bounds = ab.BoundBundle(
        rho_hat=lambda j: j[0],
        a_hat=lambda j, rmat, k, r: 0.5 * (j[0] + r) * rmat[0, 0] ** 2 - k[0],
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
        for i in range(j.shape[0]):
            jp, jm = j.copy(), j.copy()
            jp[i] += h
            jm[i] -= h
            out.append((fn(jp) - fn(jm)) / (2 * h))
        return np.array(out)

    def a_grad(j, rmat, k, r):
        d = j.shape[0]
        return (d_dj(lambda jj: bounds.a_hat(jj, rmat, k, r), j),
                np.zeros((d, d)), np.zeros(d),
                (bounds.a_hat(j, rmat, k, r + h)
                 - bounds.a_hat(j, rmat, k, r - h)) / (2 * h))

    def b_grad(j, r):
        return (d_dj(lambda jj: bounds.b_hat(jj, r), j),
                (bounds.b_hat(j, r + h) - bounds.b_hat(j, r - h)) / (2 * h))

    return dataclasses.replace(bounds, a_grad=a_grad, b_grad=b_grad)


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
    # The slow right-hand side reads its bookkeeping as Python floats but
    # keeps every floating-point operation: the run it drives is bit for
    # bit the run of the numpy-scalar reference in conftest, the stop
    # state, the step counts and a step failure included.  The built-in
    # gradients are stripped, so this pins the finite-difference branch.
    name, params, i0, eps, u, status = _SLOW_CASES[case]
    example = _make(name, params)
    spec = example.make_system(i0, eps)
    bounds = without_gradients(example.bounds)
    new = ab.run_estimator(spec, example.aux, bounds, u)
    monkeypatch.setattr(estimator, "assemble_slow_rhs", slow_rhs_reference)
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
    monkeypatch.setattr(estimator, "assemble_slow_rhs", slow_rhs_reference)
    ref = ab.run_estimator(spec, example.aux, bounds, u)
    _assert_same_run(new, ref, status)


@pytest.mark.parametrize("d", [1, 2])
def test_analytic_partials_equal_the_np_sum_reference(d):
    # Random gradients and slow-flow derivatives of every scale, with the
    # gradient parts as ndarrays or as (nested) tuples of floats.
    rng = np.random.default_rng(20 + d)
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
        got = estimator._analytic_partials(bounds, j, rmat, k, 0.1, 1e-2,
                                           dj, drmat, dk)
        want = analytic_partials_reference(bounds, j, rmat, k, 0.1, 1e-2,
                                           dj, drmat, dk)
        assert all(type(x) is float for x in got)
        assert got == want


@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant"])
def test_slow_rhs_calls_each_gradient_once(request, name):
    # One a_grad and one b_grad call per evaluation, and with c_hat, d_hat
    # and e_hat for the growth kernel that makes five majorant calls: no
    # a_hat, b_hat or rho_hat.
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
    rhs = assemble_slow_rhs(spec, example.aux, bounds)
    for n_val in (0.1, 0.5, 1.0):
        y = pack_state(spec.i0, 1.3 * np.eye(1), np.full(1, 0.2), 0.1, n_val)
        rhs(0.0, y)
    assert calls == {"a_grad": 3, "b_grad": 3, "c_hat": 3, "d_hat": 3,
                     "e_hat": 3}


def test_slow_rhs_is_infinite_where_the_bound_equation_is_singular():
    # With eps = 1/2 and a_hat = 2r the central difference of the offset is
    # exactly 1/eps, so 1 - eps * d(offset)/dr is 0.0.  The division stays
    # a numpy one: dn is inf, as in the reference, and the step that meets
    # it is retried as a non-finite one, not as a raising one.
    spec, aux, bounds = toy_linear_decay(eps=0.5)
    bounds = dataclasses.replace(bounds, a_hat=lambda j, rmat, k, r: 2.0 * r,
                                 b_hat=lambda j, r: 0.0)
    y = pack_state(spec.i0, np.eye(1), np.zeros(1), 0.0, 0.0)
    with np.errstate(divide="ignore"):
        out = assemble_slow_rhs(spec, aux, bounds)(0.0, y)
        ref = slow_rhs_reference(spec, aux, bounds)(0.0, y)
    assert out.tobytes() == ref.tobytes()
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_inverse_norms_match_the_reference(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3000):
        rmat = (rng.standard_normal((d, d))
                * 10.0 ** rng.uniform(-3.0, 3.0, (d, d)))
        try:
            expected = invert_reference(rmat)[1:]
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=str(exc)):
                estimator._inverse_norms(rmat)
            continue
        got = estimator._inverse_norms(rmat)
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
        estimator._inverse_norms(rmat)
