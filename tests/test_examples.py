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
