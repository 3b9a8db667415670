"""Validation-layer tests: identities, domination, the exact representation,
and the headline bound, including injected-fault sensitivity."""
import dataclasses
import json
import math

import numpy as np
import pytest

import averbound as ab
from averbound import cli, ode, validation
from averbound.direct import DirectTrajectory
from averbound.model import TWO_PI
from averbound.validation import (ValidationReport, verify_bound_domination,
                                  verify_headline_bound, verify_identities,
                                  verify_integral_identity)

from conftest import (domination_reference, identities_reference,
                      integral_identity_reference, toy_linear_decay)


def _perturbed(aux, field, bump):
    base = getattr(aux, field)
    if field in ("s", "v", "p", "q", "w", "u"):
        wrapped = lambda i, th: base(i, th) + bump(i, th)
    else:
        wrapped = lambda *args: base(*args) + bump(*args)
    return dataclasses.replace(aux, **{field: wrapped})


@pytest.mark.parametrize("example", ["vdp", "resonant", "af_plus", "af_minus",
                                     "euler"])
def test_identity_suite_passes(example, request):
    ex = request.getfixturevalue(example)
    spec = ex.make_system(0.5 * (ex.sample_box[0] + ex.sample_box[1]), 1e-2)
    report = verify_identities(spec, ex.aux, ex.sample_box)
    assert report.passed, report.details
    assert report.max_residual < 1e-8
    assert report.details["per_identity"]["f_g_periodic"] < 1e-12
    assert report.samples >= 100


def _faulty_s(vdp):
    """Criterion 5's fault: a 1e-3 sine added to vdp's s, on math.sin."""
    bad_s = lambda i, th: vdp.aux.s(i, th) + np.array([1e-3 * math.sin(th)])
    return vdp.make_system([1.0], 1e-2), dataclasses.replace(vdp.aux, s=bad_s)


@pytest.mark.parametrize("example", ["vdp", "resonant", "af_plus", "af_minus",
                                     "euler", "faulty_s"])
def test_identities_equals_per_point_reference(example, request):
    if example == "faulty_s":
        ex = request.getfixturevalue("vdp")
        spec, aux = _faulty_s(ex)
    else:
        ex = request.getfixturevalue(example)
        spec = ex.make_system(0.5 * (ex.sample_box[0] + ex.sample_box[1]), 1e-2)
        aux = ex.aux
    report = verify_identities(spec, aux, ex.sample_box)
    ref = identities_reference(spec, aux, ex.sample_box)
    assert report.to_dict() == ref.to_dict()
    if example == "faulty_s":
        # found by its residual at the sample angles, not by an exception,
        # and its sample written as numbers
        assert not report.passed
        assert report.details["worst_identity"] == "p_definition"
        assert report.max_residual == pytest.approx(2.4375e-3, rel=1e-6)
        point = report.details["worst_point"]
        assert point == {"actions": [5.0], "increment": None,
                         "theta": pytest.approx(11 * math.pi / 6)}
        assert type(point["theta"]) is float


@pytest.mark.parametrize("d", [1, 2])
def test_checks_broadcast_members_that_ignore_the_actions(d):
    # Every auxiliary member of the toy returns its one-point shape for any
    # input; the checks broadcast it along the stacked points.
    spec, aux, bounds = toy_linear_decay(d=d)
    box = (np.full(d, 0.5), np.full(d, 3.0))
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    dtraj = ab.run_direct(spec, aux, ab.run_averaged(spec, aux, 1.0), 1.0)
    identities = verify_identities(spec, aux, box)
    domination = verify_bound_domination(spec, aux, bounds, est)
    integral = verify_integral_identity(spec, aux, est, dtraj)
    assert identities.max_residual <= 1e-12
    assert domination.violations == 0 and domination.samples > 0
    assert integral.max_residual <= 1e-12
    for report in (identities, domination, integral):
        assert report.passed


def test_bound_domination_at_three_actions():
    # Past d = 2 the increments take a seeded fan of 16 unit directions.
    spec, aux, bounds = toy_linear_decay(d=3)
    est = ab.run_estimator(spec, aux, bounds, 1.0)
    report = verify_bound_domination(spec, aux, bounds, est)
    assert report.passed and report.violations == 0
    assert report.samples == 248_000
    assert report.to_dict() == domination_reference(spec, aux, bounds,
                                                    est).to_dict()
    dirs = validation._directions(3)
    assert dirs.shape == (16, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(dirs, validation._directions(3))


def test_identity_suite_flags_non_periodic_f(vdp):
    spec = dataclasses.replace(vdp.make_system([1.0], 1e-2),
                               f=lambda i, th: np.array([th]))
    report = verify_identities(spec, vdp.aux, vdp.sample_box)
    assert not report.passed
    # f(I, theta + 2 pi) - f(I, theta) = 2 pi at every sample
    assert report.details["per_identity"]["f_g_periodic"] == pytest.approx(2 * math.pi)


def test_identity_suite_flags_g_nan_only_at_the_next_period(vdp):
    # g is NaN at theta + 2 pi alone, and f is periodic: the f_g_periodic
    # residual is NaN, where a max over f and g that drops it would pass.
    spec = vdp.make_system([1.0], 1e-2)
    g = spec.g
    spec = dataclasses.replace(
        spec, g=lambda i, th: math.nan if th >= TWO_PI else g(i, th))
    report = verify_identities(spec, vdp.aux, vdp.sample_box)
    assert math.isnan(report.details["per_identity"]["f_g_periodic"])
    assert not report.passed


def test_injected_fault_in_s_detected(vdp):
    spec = vdp.make_system([1.0], 1e-2)
    bad = _perturbed(vdp.aux, "s", lambda i, th: np.array([1e-3 * math.sin(th)]))
    report = verify_identities(spec, bad, vdp.sample_box)
    assert not report.passed
    # the decomposition f = fbar + omega ds/dtheta picks it up at ~1e-3*|omega|
    resid = report.details["per_identity"]["f_decomposition"]
    assert 2e-4 < resid < 5e-3


@pytest.mark.parametrize("points", ["all", "one"])
def test_a_nan_residual_fails_the_identities(vdp, points):
    # s is NaN on every sample point, or on the fourth only: the identities
    # that read s have a NaN residual, the worst of each, and the report
    # fails with it, written as null.
    spec = vdp.make_system([1.0], 1e-2)

    def nan_s(i, th):
        out = np.array(np.broadcast_to(vdp.aux.s(i, th), np.shape(i)),
                       dtype=float)
        if points == "all":
            out[...] = math.nan
        else:
            out[..., 3] = math.nan
        return out
    report = verify_identities(spec, dataclasses.replace(vdp.aux, s=nan_s),
                               vdp.sample_box)
    per_identity = report.details["per_identity"]
    for key in ("s_has_zero_mean", "f_decomposition", "s_from_v",
                "p_definition"):
        assert math.isnan(per_identity[key]), key
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.details["worst_identity"] == "s_has_zero_mean"
    assert report.details["worst_point"]["actions"] == (
        [vdp.sample_box[0][0]] if points == "all"
        else [float(np.linspace(*vdp.sample_box, 10)[3, 0])])
    written = report.to_dict()
    assert written["max_residual"] is None and written["passed"] is False
    assert written["details"]["per_identity"]["s_has_zero_mean"] is None


@pytest.mark.parametrize("field,bump", [
    ("v", lambda i, th: np.array([1e-3 * math.cos(th)])),
    ("p", lambda i, th: np.array([1e-3])),
    ("q", lambda i, th: np.array([1e-3])),
    ("w", lambda i, th: np.array([1e-3 * math.sin(th)])),
    ("u", lambda i, th: np.array([1e-3])),
    ("fbar", lambda i: np.array([1e-3])),
    ("dfbar", lambda i: np.array([[1e-3]])),
    ("pbar", lambda i: np.array([1e-3])),
    ("m_script", lambda i: np.array([[1e-3]])),
    ("g_script", lambda i, di: np.array([[1e-3]])),
    ("h_script", lambda i, di: np.full((1, 1, 1), 1e-3)),
])
def test_single_function_faults_trip_some_identity(vdp, field, bump):
    spec = vdp.make_system([1.0], 1e-2)
    report = verify_identities(spec, _perturbed(vdp.aux, field, bump),
                               vdp.sample_box)
    assert not report.passed, f"fault in {field} went unnoticed"


def test_domination_zero_violations(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    report = verify_bound_domination(spec, resonant.aux, resonant.bounds, est)
    assert report.passed and report.violations == 0
    assert report.samples >= 10_000


def test_domination_catches_shrunken_majorant(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    weak = dataclasses.replace(
        resonant.bounds, a_hat=lambda j, rmat, k, r: 0.05 / (j[0] - r))
    report = verify_bound_domination(spec, resonant.aux, weak, est)
    assert not report.passed
    assert report.violations > 0
    worst = report.details["worst"]
    assert max(worst, key=lambda row: worst[row]["margin"]) == "a"
    assert worst["a"]["margin"] > 0.0
    ref = domination_reference(spec, resonant.aux, weak, est)
    assert report.to_dict() == ref.to_dict()


def test_domination_catches_decreasing_majorant(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    bad = dataclasses.replace(resonant.bounds,
                              c_hat=lambda j, r: 12.0 / (j[0] + 5 * r) ** 4)
    report = verify_bound_domination(spec, resonant.aux, bad, est)
    assert report.details["monotonicity_failures"] > 0
    assert not report.passed
    ref = domination_reference(spec, resonant.aux, bad, est)
    assert report.to_dict() == ref.to_dict()


# Domination samples of a d = 1 run: 25 slow times, 10 radii, 2 directions
# and 20 angles.
_DOM_POINTS_D1 = 25 * 10 * 2 * 20


def test_domination_counts_nan_majorant_as_violation(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    bad = dataclasses.replace(resonant.bounds, b_hat=lambda j, r: math.nan)
    report = verify_bound_domination(spec, resonant.aux, bad, est)
    assert report.violations == _DOM_POINTS_D1
    assert report.details["monotonicity_failures"] == 0
    # each worst point stays the largest margin of its row that is a
    # number; the b row has none
    worst = report.details["worst"]
    assert worst["b"] == {"margin": -math.inf}
    assert all(math.isfinite(worst[row]["margin"]) for row in "acde")
    # JSON has no -Infinity: the report writes the missing margin as null.
    payload = report.to_dict()
    json.dumps(payload, allow_nan=False)
    assert payload["details"]["worst"]["b"] == {"margin": None}


def test_domination_counts_nan_monotone_majorant(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    bad = dataclasses.replace(resonant.bounds, c_hat=lambda j, r: math.nan)
    report = verify_bound_domination(spec, resonant.aux, bad, est)
    # every c row, and each of the 9 radius steps of the 25 slow times
    assert report.details["monotonicity_failures"] == 25 * 9
    assert report.violations == _DOM_POINTS_D1 + 25 * 9


def test_domination_counts_nan_left_side(resonant, resonant_run):
    spec, est, _, _ = resonant_run
    at = np.linspace(0.0, TWO_PI, 20, endpoint=False)[5]
    bad = _perturbed(resonant.aux, "s",
                     lambda i, th: np.array([np.where(th == at, math.nan, 0.0)]))
    report = verify_bound_domination(spec, bad, resonant.bounds, est)
    # the a rows at that angle: 25 slow times, 10 radii, 2 directions
    assert report.violations == 25 * 10 * 2
    worst = report.details["worst"]
    assert all(math.isfinite(point["margin"]) for point in worst.values())
    assert worst["a"]["theta"] != at


@pytest.fixture(scope="module")
def default_runs():
    """One estimator and direct run per system at the ``verify`` defaults;
    action-freq kappa = +1 stops at U = 0.5, inside its blow-up time 1."""
    runs = {}
    for name, example, u in (
            ("vdp", ab.make_vdp(), None),
            ("af_plus", ab.make_action_freq(1), 0.5),
            ("af_minus", ab.make_action_freq(-1), None),
            ("resonant", ab.make_resonant(), None),
            ("euler", ab.make_euler_top(1.0, 2.0, -1.0), None)):
        dflt = cli._verify_defaults(example)
        u = u or dflt["u"]
        spec = example.make_system(dflt["i0"], dflt["eps"])
        est = ab.run_estimator(spec, example.aux, example.bounds, u)
        avg = ab.run_averaged(spec, example.aux, u)
        runs[name] = (example, spec, est, ab.run_direct(spec, example.aux, avg, u))
    return runs


@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant",
                                  "euler"])
def test_domination_equals_per_point_reference(default_runs, name):
    example, spec, est, _ = default_runs[name]
    report = verify_bound_domination(spec, example.aux, example.bounds, est)
    ref = domination_reference(spec, example.aux, example.bounds, est)
    assert report.to_dict() == ref.to_dict()


def test_domination_reports_a_worst_point_per_row(default_runs):
    # On vdp the d and e rows (constant majorants met exactly) tie at
    # margin 0 at the first slow time and radius; the a, b and c rows each
    # report their own closest approach.
    example, spec, est, _ = default_runs["vdp"]
    report = verify_bound_domination(spec, example.aux, example.bounds, est)
    worst = report.details["worst"]
    assert sorted(worst) == ["a", "b", "c", "d", "e"]
    first = (worst["d"]["tau"], worst["d"]["r"])
    assert worst["d"]["margin"] == worst["e"]["margin"] == 0.0
    assert "theta" not in worst["d"] and "theta" not in worst["e"]
    assert all(worst[row]["margin"] < 0.0 for row in "abc")
    # the a majorant is nearly attained, away from the first point
    assert worst["a"]["margin"] > -1e-6
    assert (worst["a"]["tau"], worst["a"]["r"]) != first
    points = {(worst[row]["tau"], worst[row]["r"], worst[row]["theta"],
               tuple(worst[row]["direction"])) for row in "abc"}
    assert len(points) == 3


@pytest.mark.parametrize("n_quad", [2048, 4096])
@pytest.mark.parametrize("name", ["vdp", "af_plus", "af_minus", "resonant",
                                  "euler"])
def test_integral_identity_equals_per_point_reference(default_runs, name, n_quad):
    example, spec, est, dtraj = default_runs[name]
    report = verify_integral_identity(spec, example.aux, est, dtraj, n_quad)
    ref = integral_identity_reference(spec, example.aux, est, dtraj, n_quad)
    assert report.to_dict() == ref.to_dict()


def test_integral_identity_residual(resonant, resonant_run):
    spec, est, _, dtraj = resonant_run
    report = verify_integral_identity(spec, resonant.aux, est, dtraj)
    assert report.passed
    assert report.max_residual < 1e-4
    assert report.details["residual_at_t0"] == 0.0


def test_headline_bound_on_real_run(resonant_run):
    _, est, _, dtraj = resonant_run
    report = verify_headline_bound(est, dtraj)
    assert report.passed and report.violations == 0
    assert 0.0 < report.details["tightness"] <= 1.0


def _flat_estimator(n_value, tau_end=10.0):
    grid = np.linspace(0.0, tau_end, 50)
    states = np.column_stack([
        np.full_like(grid, 2.0), np.ones_like(grid), np.zeros_like(grid),
        np.zeros_like(grid), np.full_like(grid, n_value)])
    traj = ode.Trajectory(times=grid, states=states,
                          derivs=np.zeros_like(states),
                          status=ode.Status.COMPLETED)
    from averbound.estimator import (ContractionWindow, EstimatorStatus,
                                     EstimatorTrajectory)
    return EstimatorTrajectory(
        d=1, eps=1e-2, ell0=n_value, status=EstimatorStatus.COMPLETED,
        violation_kind=None,
        window=ContractionWindow(n_value, n_value / 2, 0.0),
        window_mode="explicit", wall_time_s=0.0, traj=traj)


def _sine_direct(tau_end=10.0, eps=1e-2):
    ts = np.linspace(0.0, tau_end / eps, 20001)
    states = np.column_stack([np.sin(ts), ts])
    traj = ode.Trajectory(times=ts, states=states, derivs=np.zeros_like(states),
                          status=ode.Status.COMPLETED)
    return DirectTrajectory(d=1, eps=eps, traj=traj, budget_exceeded=False,
                            wall_time_s=0.0)


def test_headline_bound_counts_violations():
    est = _flat_estimator(0.4)
    dtraj = _sine_direct()
    report = verify_headline_bound(est, dtraj)
    assert not report.passed
    assert report.violations == int(np.count_nonzero(
        np.abs(np.sin(dtraj.t)) > 0.4 * (1 + 1e-12)))
    assert report.details["tightness"] > 1.0


def test_headline_bound_degenerate_zero_error():
    est = _flat_estimator(0.4)
    dtraj = _sine_direct()
    dtraj.traj.states[:, 0] = 0.0
    report = verify_headline_bound(est, dtraj)
    assert report.passed
    assert report.details["tightness"] == 0.0


def test_headline_bound_counts_nan_as_violation():
    est = _flat_estimator(0.4)
    dtraj = _sine_direct()
    dtraj.traj.states[:, 0] = 0.0
    dtraj.traj.states[100, 0] = math.nan
    report = verify_headline_bound(est, dtraj)
    assert report.violations == 1
    assert not report.passed


def test_headline_bound_nan_keeps_the_finite_figures():
    # One NaN |L| is a violation, but the tightness and the worst gap still
    # describe the rest of the run: max |sin| / 1.5 and 1 - 1.5.
    est = _flat_estimator(1.5)
    dtraj = _sine_direct()
    clean = verify_headline_bound(est, dtraj)
    dtraj.traj.states[100, 0] = math.nan
    report = verify_headline_bound(est, dtraj)
    assert report.violations == 1 and clean.violations == 0
    assert report.details["tightness"] == pytest.approx(1 / 1.5, rel=1e-6)
    assert report.details["tightness"] == clean.details["tightness"]
    assert report.details["tightness_at_tau"] == clean.details["tightness_at_tau"]
    assert math.isfinite(report.details["worst_gap"])
    assert report.details["worst_gap"] == clean.details["worst_gap"]


def test_report_serializes_to_json(resonant, resonant_run):
    spec, est, _, dtraj = resonant_run
    reports = [
        verify_identities(spec, resonant.aux, resonant.sample_box),
        verify_bound_domination(spec, resonant.aux, resonant.bounds, est),
        verify_headline_bound(est, dtraj),
    ]
    text = json.dumps([r.to_dict() for r in reports])
    parsed = json.loads(text)
    assert all(set(p) >= {"name", "samples", "passed", "tolerance"}
               for p in parsed)


def test_report_passed_rule():
    r = ValidationReport(name="x", samples=1, tolerance=1e-8, violations=0)
    assert r.passed
    r = ValidationReport(name="x", samples=1, tolerance=1e-8, violations=2)
    assert not r.passed
    r = ValidationReport(name="x", samples=1, tolerance=1e-8, max_residual=1e-9)
    assert r.passed
    r = ValidationReport(name="x", samples=1, tolerance=1e-8, max_residual=1e-7)
    assert not r.passed
    assert not ValidationReport(name="x", samples=1, tolerance=1e-8).passed
    with pytest.raises(AttributeError):
        r.passed = True


def test_identity_grid_rejects_outside_domain(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    bad_box = (np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        verify_identities(spec, resonant.aux, bad_box)
