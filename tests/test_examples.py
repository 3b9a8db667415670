"""Built-in example definitions: table spot values, presets, physical maps."""
import math

import numpy as np
import pytest

import averbound as ab
from averbound.examples import figure_ids, figure_preset, make_example, register_system


def test_vdp_table_spot_values(vdp):
    i = np.array([1.0])
    assert vdp.aux.s(i, math.pi / 4)[0] == pytest.approx(0.5)
    for x in (0.5, 1.0, 3.0):
        assert vdp.aux.pbar(np.array([x]))[0] == 0.0
        assert np.all(vdp.aux.g_script(np.array([x]), np.array([0.2])) == 0.0)
        assert np.all(vdp.aux.h_script(np.array([x]), np.array([0.2])) == -1.0)
    assert vdp.aux.fbar(np.array([4.0]))[0] == pytest.approx(-4.0)
    assert vdp.omega(i) == -1.0


def test_vdp_closed_forms_at_origin(vdp):
    i0 = np.array([0.5])
    j, r, k = vdp.closed_flow(i0, 0.0)
    assert j[0] == pytest.approx(0.5)
    assert r[0, 0] == pytest.approx(1.0)
    assert np.all(k == 0.0)
    assert vdp.closed_flow(i0, 50.0)[0][0] == pytest.approx(2.0, abs=1e-8)


_ANGLE_MEMBERS = ("s", "v", "p", "q", "w", "u")


def _stacked_equals_per_point(fn, stacks, extra=()):
    """``fn`` on (d, N) stacks equals the N calls on one point each, bit for
    bit; a value of the one-point shape (a member that does not read the
    actions) must equal every per-point value."""
    stacked = np.asarray(fn(*stacks, *extra))
    n = stacks[0].shape[1]
    per_point = [np.asarray(fn(*(a[:, k].copy() for a in stacks),
                               *(e if np.isscalar(e) else float(e[k])
                                 for e in extra)))
                 for k in range(n)]
    if stacked.shape == per_point[0].shape:
        return all(np.array_equal(stacked, value) for value in per_point)
    assert stacked.shape == per_point[0].shape + (n,)
    return np.array_equal(stacked, np.stack(per_point, axis=-1))


@pytest.mark.parametrize("member", _ANGLE_MEMBERS + ("dfbar", "m_script",
                                                     "g_script", "h_script"))
@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant",
                                  "euler"])
def test_stacked_call_equals_per_point_calls(request, name, member):
    # One call on (d, N) actions equals the N calls on (d,) actions, bit for
    # bit: s ... u with N angles or one float angle, dfbar and m_script on
    # the actions alone, g_script and h_script with (d, N) increments.  The
    # examples write integer powers as products: numpy's ** rounds
    # differently on arrays than on single numbers, on about 1 in 1200
    # squares, so the cheap matrix members get more points.
    ex = request.getfixturevalue(name)
    fn = getattr(ex.aux, member)
    rng = np.random.default_rng(18)
    n = 2000 if member in _ANGLE_MEMBERS else 20_000
    actions = 10.0 ** rng.uniform(-2.0, 1.0, (ex.d, n))
    if member in ("dfbar", "m_script"):
        assert _stacked_equals_per_point(fn, (actions,))
    elif member in ("g_script", "h_script"):
        increments = rng.uniform(-0.5, 0.5, (ex.d, n)) * actions
        assert _stacked_equals_per_point(fn, (actions, increments))
    else:
        thetas = rng.uniform(-4 * math.pi, 4 * math.pi, n)
        stacked = fn(actions, thetas)
        assert stacked.shape == (ex.d, n)
        assert _stacked_equals_per_point(fn, (actions,), (thetas,))
        for theta in thetas[:3].tolist():
            assert _stacked_equals_per_point(fn, (actions[:, :200],), (theta,))


@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant",
                                  "euler"])
def test_closed_flow_starts_at_the_identity(request, name):
    # At tau = 0 the averaged flow is J = I0 with R = I and K = 0.
    ex = request.getfixturevalue(name)
    i0 = np.linspace(1.0, 2.0, ex.d)
    j, r, k = ex.closed_flow(i0, 0.0)
    assert np.array_equal(j, i0)
    assert np.array_equal(r, np.eye(ex.d))
    assert np.array_equal(k, np.zeros(ex.d))


def test_action_freq_table_spot_values(af_plus, af_minus):
    i = np.array([1.5])
    assert af_plus.aux.fbar(i)[0] == pytest.approx(1.5 ** 2)
    assert af_minus.aux.fbar(i)[0] == pytest.approx(-(1.5 ** 2))
    for ex in (af_plus, af_minus):
        assert ex.aux.pbar(i)[0] == pytest.approx(-0.5 * 1.5 ** 3)
    assert af_plus.aux.h_script(i, np.array([0.1]))[0, 0, 0] == 2.0
    assert af_minus.aux.h_script(i, np.array([0.1]))[0, 0, 0] == -2.0


def test_action_freq_inhomogeneous_term_nonpositive(af_plus, af_minus):
    i0 = np.array([1.0])
    for ex, taus in ((af_plus, np.linspace(0.0, 0.95, 40)),
                     (af_minus, np.linspace(0.0, 150.0, 40))):
        for tau in taus:
            assert ex.closed_flow(i0, tau)[2][0] <= 1e-15


def test_action_freq_rejects_bad_kappa():
    with pytest.raises(ValueError):
        ab.make_action_freq(2)


def test_resonant_table_spot_values(resonant):
    i = np.array([2.0])
    assert resonant.aux.s(i, math.pi / 2)[0] == pytest.approx(-0.5)
    for th in np.linspace(0.0, 2 * math.pi, 9):
        assert resonant.aux.w(i, th)[0] == pytest.approx(
            resonant.aux.q(i, th)[0] / 4.0)
    assert np.all(resonant.aux.m_script(i) == 0.0)
    assert np.all(resonant.aux.g_script(i, np.array([0.3])) == 0.0)
    assert np.all(resonant.aux.h_script(i, np.array([0.3])) == 0.0)


def test_euler_top_table_spot_values(euler):
    i = np.array([2.0, 3.0])
    assert np.allclose(euler.aux.fbar(i), [-2.0 * 2.0, 1.0 * 3.0])
    assert np.allclose(euler.aux.m_script(i), np.diag([-4.0, -1.0]))
    assert euler.omega(i) == pytest.approx(6.0)
    assert euler.bounds.rho_hat(i) == pytest.approx(2.0)


def test_euler_top_parameter_constraints():
    with pytest.raises(ValueError):
        ab.make_euler_top(3.0, 2.0, -1.0)     # mu outside (-l1, l1)
    with pytest.raises(ValueError):
        ab.make_euler_top(0.5, -1.0, 0.0)     # l1 not positive
    with pytest.raises(ValueError):
        ab.make_euler_top(0.5, 1.0, -2.0)     # l2 <= -l1


def test_figure_presets_match_legends():
    expected = {
        "1a": ("vdp", (0.5,), 1e-2, 10.0),
        "1b": ("vdp", (4.0,), 1e-2, 10.0),
        "1c": ("vdp", (4.0,), 1e-2, 200.0),
        "2a": ("action-freq", (1.0,), 1e-2, 0.9),
        "2d": ("action-freq", (1.0,), 1e-2, 200.0),
        "3a": ("resonant", (0.5,), 1e-2, 10.0),
        "3c": ("resonant", (0.5,), 1e-3, 10.0),
        "3e": ("resonant", (2.0,), 1e-2, 10.0),
        "3f": ("resonant", (2.0,), 1e-2, 200.0),
        "4a": ("euler-top", (4.0, 4.0), 1e-2, 1.0),
        "4b": ("euler-top", (4.0, 1.0), 1e-2, 1.0),
        "4c": ("euler-top", (4.0, 1.0), 1e-3, 1.0),
        "4d": ("euler-top", (4.0, 4.0), 1e-3, 3.0),
    }
    for fig, (name, i0, eps, u) in expected.items():
        example, preset = figure_preset(fig)
        assert example.id == name
        assert preset.i0 == i0 and preset.eps == eps and preset.u == u
        assert preset.theta0 == 0.0
    assert figure_preset("2a")[1].params["kappa"] == 1
    assert figure_preset("2d")[1].params["kappa"] == -1
    assert figure_preset("4a")[1].params == {"mu": 1.0, "lambda1": 2.0,
                                             "lambda2": -1.0}
    assert figure_preset("4d")[1].params == {"mu": 1.0, "lambda1": 1.1,
                                             "lambda2": -1.0}
    assert set(expected) <= set(figure_ids())


def test_unknown_figure_or_system():
    with pytest.raises(KeyError):
        figure_preset("9z")
    with pytest.raises(KeyError):
        make_example("nope")


@pytest.mark.parametrize("name, params, public", [
    ("vdp", {}, lambda: ab.make_vdp()),
    ("action-freq", {"kappa": 1}, lambda: ab.make_action_freq(1)),
    ("action-freq", {}, lambda: ab.make_action_freq(1)),    # kappa defaults to +1
    ("action-freq", {"kappa": -1}, lambda: ab.make_action_freq(-1)),
    ("resonant", {}, lambda: ab.make_resonant()),
    ("euler-top", {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0},
     lambda: ab.make_euler_top(1.0, 2.0, -1.0)),
])
def test_registry_and_public_constructors_agree(name, params, public):
    by_name, direct = make_example(name, params), public()
    assert by_name.id == direct.id == name
    assert dict(by_name.params) == dict(direct.params)
    assert by_name.d == direct.d


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name, params", [
    ("vdp", {}),
    ("action-freq", {"kappa": 1}),
    ("action-freq", {"kappa": -1}),
    ("resonant", {}),
    ("euler-top", {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0}),
    ("euler-top", {"mu": -0.5, "lambda1": 1.1, "lambda2": 0.3}),
])
def test_float_forms_and_array_members_agree_bitwise(name, params):
    # One form per system callable: the fast-time runs call omega, f, g,
    # in_domain and fbar on a list of floats, the estimator and validation
    # on an ndarray.  Both give the same bits on a grid over the sample box
    # and the angle.
    example = make_example(name, params)
    fbar = example.aux.fbar
    lo, hi = example.sample_box
    axes = [np.linspace(a, b, 7) for a, b in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, example.d)
    for i in points:
        il = i.tolist()
        assert _bits(fbar(il)) == _bits(fbar(i))
        assert len(fbar(il)) == example.d
        assert _bits(example.omega(il)) == _bits(example.omega(i))
        assert example.in_domain(il) is example.in_domain(i) is True
        for th in np.linspace(0.0, 2 * math.pi, 13).tolist():
            assert type(example.f(il, th)) is list
            assert _bits(example.f(il, th)) == _bits(example.f(i, th))
            assert _bits(example.g(il, th)) == _bits(example.g(i, th))
    assert not example.in_domain([-x for x in lo.tolist()])
    assert example.in_domain(-lo) is False


def test_register_custom_system():
    marker = ab.make_resonant()
    register_system("custom-test", lambda params: marker)
    assert make_example("custom-test") is marker


@pytest.mark.parametrize("name, params, unknown", [
    ("vdp", {"mu": 3}, "mu"),
    ("action-freq", {"kappa": -1, "mu": 2}, "mu"),
    ("euler-top", {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0, "l3": 0.5}, "l3"),
    ("custom-unknown", {"gain": 2.0}, "gain"),     # a registered factory
])
def test_make_example_rejects_unknown_parameters(name, params, unknown):
    register_system("custom-unknown", lambda params: ab.make_resonant())
    with pytest.raises(ValueError, match=f"^{name} has no parameter '{unknown}'$"):
        make_example(name, params)


def _resample(traj, ts):
    samp = traj.sampler()
    return np.array([samp(t) for t in ts])


def test_vdp_change_of_variables_residual(vdp):
    # Along a fast run the physical coordinates must satisfy the oscillator
    # equation; first derivatives by central differences on a uniform grid,
    # so the threshold reflects differencing accuracy, not solver accuracy.
    eps, u = 1e-2, 2.0
    spec = vdp.make_system([0.5], eps)
    avg = ab.run_averaged(spec, vdp.aux, u)
    dtraj = ab.run_direct(spec, vdp.aux, avg, u)
    h = 5e-3
    ts = np.arange(0.0, u / eps + h / 2, h)
    fast = _resample(dtraj.traj, ts)
    savg = avg.sampler()
    actions = np.array([savg.value1(eps * t) for t in ts]) + eps * fast[:, 0]
    theta = fast[:, 1]
    x = np.sqrt(2 * actions) * np.cos(theta)
    v = np.sqrt(2 * actions) * np.sin(theta)
    dx = (x[2:] - x[:-2]) / (2 * h)
    dv = (v[2:] - v[:-2]) / (2 * h)
    mid = slice(1, -1)
    assert np.max(np.abs(dx - v[mid])) < 1e-4
    residual = dv + x[mid] + eps * (x[mid] ** 2 - 1.0) * v[mid]
    assert np.max(np.abs(residual)) < 1e-4


def test_euler_top_change_of_variables_residual(euler):
    # Angular-velocity components against the rigid-body equations with
    # unit inertia prefactor: A = 1, C = 2, E = mu + l1, F = l1 - mu,
    # G = C (l1 + l2).
    mu, l1, l2 = 1.0, 2.0, -1.0
    eps, u = 1e-2, 0.5
    spec = euler.make_system([4.0, 4.0], eps)
    avg = ab.run_averaged(spec, euler.aux, u)
    dtraj = ab.run_direct(spec, euler.aux, avg, u)
    h = 5e-4
    ts = np.arange(0.0, u / eps + h / 2, h)
    fast = _resample(dtraj.traj, ts)
    savg = avg.sampler()
    jv = np.array([savg(eps * t) for t in ts])
    actions = jv + eps * fast[:, :2]
    theta = fast[:, 2]
    p = actions[:, 0] * np.cos(theta)
    q = actions[:, 0] * np.sin(theta)
    r = actions[:, 0] * actions[:, 1]
    dp = (p[2:] - p[:-2]) / (2 * h)
    dq = (q[2:] - q[:-2]) / (2 * h)
    dr = (r[2:] - r[:-2]) / (2 * h)
    mid = slice(1, -1)
    res_p = dp + q[mid] * r[mid] + eps * (mu + l1) * p[mid]
    res_q = dq - p[mid] * r[mid] + eps * (l1 - mu) * q[mid]
    res_r = 2 * dr + eps * 2 * (l1 + l2) * r[mid]
    scale = max(np.max(np.abs(q * r)), 1.0)
    assert np.max(np.abs(res_p)) < 5e-3 * scale
    assert np.max(np.abs(res_q)) < 5e-3 * scale
    assert np.max(np.abs(res_r)) < 5e-3 * scale


def test_presets_listing_on_definition(vdp):
    figures = {p.figure for p in vdp.presets()}
    assert figures == {"1a", "1b", "1c"}


def _majorant_expressions(name, jj, rr, kk):
    """a_hat and b_hat of a d = 1 example as sympy expressions in J, r and
    K, transcribed from the closed forms the example states."""
    import sympy as sp
    if name == "vdp":
        x = jj + rr
        a = sp.sqrt(-2 + 10 * x ** 2 + x ** 4
                    + 2 * (1 + 2 * x ** 2) ** sp.Rational(3, 2)) / 8
        b = sp.sqrt(
            120 * jj ** 6 + 12 * jj ** 5 * (23 + 56 * rr)
            + 3 * jj ** 4 * (192 + 474 * rr + 517 * rr ** 2)
            + 12 * jj ** 3 * rr * (72 + 180 * rr + 157 * rr ** 2)
            + 6 * jj ** 2 * rr ** 2 * (372 + 530 * rr + 231 * rr ** 2)
            + 12 * jj * rr ** 3 * (216 + 213 * rr + 46 * rr ** 2)
            + rr ** 4 * (1404 + 690 * rr + 91 * rr ** 2)) / 96
    elif name in ("af_plus", "af_minus"):
        a = (jj + rr) / 2 - kk
        b = sp.sqrt(
            50 * jj ** 4 + (55 + 200 * rr) * jj ** 3
            + (38 + 85 * rr + 300 * rr ** 2) * jj ** 2
            + (65 + 33 * rr + 200 * rr ** 2) * jj * rr
            + (32 + 27 * rr + 50 * rr ** 2) * rr ** 2) / (8 * sp.sqrt(2))
    else:
        a = 1 / (jj - rr)
        b = 2 / (jj - rr) ** 3
    return a, b


@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant"])
def test_majorant_gradients_are_the_sympy_derivatives(request, name):
    # The float majorants equal their sympy expressions to 1e-13, and the
    # hand-written a_grad and b_grad equal the expressions' derivatives to
    # 1e-12 relative, over the sample box and radii up to 0.98 rho_hat.
    # Neither majorant reads R, so its partial is exactly zero.
    sp = pytest.importorskip("sympy")
    import mpmath
    ex = request.getfixturevalue(name)
    bounds = ex.bounds
    jj, rr, kk, rm = sp.symbols("J r K R", real=True)
    a, b = _majorant_expressions(name, jj, rr, kk)
    assert not (a.has(rm) or b.has(rm))
    exprs = {"a": a, "b": b, "a_J": sp.diff(a, jj), "a_K": sp.diff(a, kk),
             "a_r": sp.diff(a, rr), "b_J": sp.diff(b, jj),
             "b_r": sp.diff(b, rr)}
    exact = {key: sp.lambdify((jj, rr, kk), e, "mpmath")
             for key, e in exprs.items()}

    def close(got, key, args, rel):
        with mpmath.workdps(40):
            want = exact[key](*(mpmath.mpf(v) for v in args))
            return abs(mpmath.mpf(got) - want) <= rel * abs(want)

    lo, hi = (float(x[0]) for x in ex.sample_box)
    for j_val in np.linspace(lo, hi, 9).tolist():
        j = np.array([j_val])
        rho = bounds.rho_hat(j)
        for r_val in np.linspace(0.0, 0.98 * rho, 9).tolist():
            for k_val in (-0.7, 0.0, 1.3):
                k, rmat = np.array([k_val]), np.array([[0.6]])
                args = (j_val, r_val, k_val)
                assert close(bounds.a_hat(j, rmat, k, r_val), "a", args, 1e-13)
                assert close(bounds.b_hat(j, r_val), "b", args, 1e-13)
                (ga_j,), ((ga_r,),), (ga_k,), ga_rad = bounds.a_grad(
                    j, rmat, k, r_val)
                (gb_j,), gb_rad = bounds.b_grad(j, r_val)
                assert ga_r == 0.0
                for got, key in ((ga_j, "a_J"), (ga_k, "a_K"),
                                 (ga_rad, "a_r"), (gb_j, "b_J"),
                                 (gb_rad, "b_r")):
                    assert close(got, key, args, 1e-12), (key, args)
