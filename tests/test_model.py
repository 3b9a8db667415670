"""Core type and bound-assembly tests."""
import math

import numpy as np
import pytest

from averbound import SystemSpec, frobenius, growth_value, offset_value


def test_frobenius_identity_matrix():
    assert frobenius(np.eye(2)) == pytest.approx(math.sqrt(2))


def test_frobenius_zero_tensor():
    assert frobenius(np.zeros((2, 2, 2))) == 0.0


def test_frobenius_three_four_five():
    assert frobenius(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)


def test_offset_bound_resonant_table_value(resonant):
    j = np.array([2.0])
    val = offset_value(resonant.bounds, j, np.eye(1), np.zeros(1), 0.0, 1e-2)
    assert val == pytest.approx(0.5 + 0.01 * 0.25)


def test_offset_bound_vdp_rfree_value(vdp):
    j = np.array([2.0])
    val = offset_value(vdp.bounds, j, np.eye(1), np.zeros(1), 0.0, 0.0)
    assert val == pytest.approx(math.sqrt(108.0) / 8.0)


def test_offset_bound_eps_zero_is_a_hat(af_plus):
    j = np.array([1.5])
    val = offset_value(af_plus.bounds, j, np.eye(1), np.zeros(1), 0.3, 0.0)
    assert val == af_plus.bounds.a_hat(j, np.eye(1), np.zeros(1), 0.3)


def test_growth_bound_vdp_quadratic_level(vdp):
    j = np.array([2.0])
    c = vdp.bounds.c_hat(j, 0.1)
    assert growth_value(vdp.bounds, j, 0.1, 3.0) == pytest.approx(c + 4.5)


def test_growth_bound_level_zero(af_plus):
    j = np.array([1.0])
    assert growth_value(af_plus.bounds, j, 0.2, 0.0) == pytest.approx(
        af_plus.bounds.c_hat(j, 0.2))


def test_growth_bound_resonant_table_value(resonant):
    assert growth_value(resonant.bounds, np.array([2.0]), 0.0, 5.0) \
        == pytest.approx(12.0 / 16.0)


@pytest.mark.parametrize("example", ["vdp", "resonant", "af_plus"])
def test_offset_growth_nondecreasing_in_radius(example, request):
    ex = request.getfixturevalue(example)
    j = np.array([2.0])
    rmat, k = np.eye(1), np.zeros(1)
    radii = np.linspace(0.0, 1.6, 30)
    assert radii[-1] < ex.bounds.rho_hat(j)      # inside the tube throughout
    offs = [offset_value(ex.bounds, j, rmat, k, r, 1e-2) for r in radii]
    grows = [growth_value(ex.bounds, j, r, 1.0) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(offs, offs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(grows, grows[1:]))


def test_system_spec_rejects_bad_initial_data(vdp):
    with pytest.raises(ValueError):
        vdp.make_system([-1.0], 1e-2)
    with pytest.raises(ValueError):
        vdp.make_system([1.0], 0.0)
    with pytest.raises(ValueError):
        vdp.make_system([1.0, 2.0], 1e-2)


def test_system_spec_rejects_an_f_without_d_values_on_a_list():
    # The fast-time runs hand f a list, on which 2 * i repeats the list
    # instead of doubling it.
    for d in (1, 2):
        with pytest.raises(ValueError, match=f"f must return {d} numbers"):
            SystemSpec(d=d, epsilon=1e-2, omega=lambda i: 1.0,
                       f=lambda i, th: 2 * i, g=lambda i, th: 0.0,
                       in_domain=lambda i: True, i0=np.ones(d))
    spec = SystemSpec(d=2, epsilon=1e-2, omega=lambda i: 1.0,
                      f=lambda i, th: [2 * x for x in i], g=lambda i, th: 0.0,
                      in_domain=lambda i: True, i0=np.ones(2))
    assert spec.f(spec.i0.tolist(), 0.0) == [2.0, 2.0]


def test_system_spec_reduces_theta0(vdp):
    spec = vdp.make_system([1.0], 1e-2, theta0=2 * math.pi + 0.5)
    assert spec.theta0 == pytest.approx(0.5)
