"""Van der Pol oscillator in action-angle form.

d = 1 on (0, +inf) with constant frequency omega = -1.  The physical
coordinates x = sqrt(2 I) cos(Theta), v = sqrt(2 I) sin(Theta) satisfy
x'' + x + eps (x^2 - 1) x' = 0.  The averaged actions tend to the limit
cycle at J = 2.
"""
from __future__ import annotations

import math

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle
from . import ExampleDefinition, constant


def _omega(i):
    return -1.0


def _f(i, th):
    x = i[0]
    return [x * (1 - x / 2) - x * math.cos(2 * th)
            + x * x / 2 * math.cos(4 * th)]


def _g(i, th):
    x = i[0]
    return (1 - x) / 2 * math.sin(2 * th) - x / 4 * math.sin(4 * th)


def _in_domain(i):
    return bool(i[0] > 0.0)


def _fbar(i):
    x = i[0]
    return [x * (1 - x / 2)]


def _dfbar(i):
    return np.array([[1.0 - i[0]]])


def _s(i, th):
    x = i[0]
    return np.array([x / 8 * (4 * math.sin(2 * th) - x * math.sin(4 * th))])


def _v(i, th):
    x = i[0]
    return np.array([-x / 32 * (8 - x - 8 * math.cos(2 * th) + x * math.cos(4 * th))])


def _p(i, th):
    x = i[0]
    return np.array([x / 8 * ((4 - 2 * x - x * x) * math.sin(2 * th)
                              + x * (x - 4) * math.sin(4 * th)
                              + x * x * math.sin(6 * th))])


def _q(i, th):
    x = i[0]
    return np.array([-x / 32 * (16 - 10 * x + 2 * x * x
                                - (16 - x * x) * math.cos(2 * th)
                                + x * (10 - 2 * x) * math.cos(4 * th)
                                - x * x * math.cos(6 * th))])


def _w(i, th):
    x = i[0]
    return np.array([-x / 96 * (24 - 24 * x - x * x
                                - 6 * (4 - 2 * x - x * x) * math.cos(2 * th)
                                + 3 * x * (4 - x) * math.cos(4 * th)
                                - 2 * x * x * math.cos(6 * th))])


def _u(i, th):
    x = i[0]
    return np.array([-x / 128 * (
        64 - 120 * x + 36 * x ** 2 + x ** 3
        + (-64 + 64 * x + 50 * x ** 2 - 12 * x ** 3) * math.cos(2 * th)
        + 4 * x * (14 - 17 * x - x ** 2) * math.cos(4 * th)
        + 6 * x ** 2 * (-3 + 2 * x) * math.cos(6 * th)
        + 3 * x ** 3 * math.cos(8 * th))])


def _m_script(i):
    x = i[0]
    return np.array([[-1.0 + x - x * x / 2]])


def _a_hat(j, rmat, k, r):
    x = float(j[0]) + r
    return 0.125 * math.sqrt(-2 + 10 * x ** 2 + x ** 4
                           + 2 * (1 + 2 * x ** 2) ** 1.5)


def _b_hat(j, r):
    x = float(j[0])
    return math.sqrt(
        120 * x ** 6 + 12 * x ** 5 * (23 + 56 * r)
        + 3 * x ** 4 * (192 + 474 * r + 517 * r ** 2)
        + 12 * x ** 3 * r * (72 + 180 * r + 157 * r ** 2)
        + 6 * x ** 2 * r ** 2 * (372 + 530 * r + 231 * r ** 2)
        + 12 * x * r ** 3 * (216 + 213 * r + 46 * r ** 2)
        + r ** 4 * (1404 + 690 * r + 91 * r ** 2)) / 96


def _c_hat(j, r):
    x = float(j[0])
    return math.sqrt(
        6512 * x ** 8 + 24 * x ** 7 * (671 + 2096 * r)
        + 24 * x ** 6 * (1693 + 5484 * r + 6956 * r ** 2)
        + 8 * x ** 5 * (1812 + 31188 * r + 39375 * r ** 2 + 38726 * r ** 3)
        + 12 * x ** 4 * (768 + 4436 * r + 61358 * r ** 2 + 37966 * r ** 3
                         + 29997 * r ** 4)
        + 8 * x ** 3 * r * (4680 + 39948 * r + 125584 * r ** 2
                            + 62193 * r ** 3 + 35046 * r ** 4)
        + 12 * x ** 2 * r ** 2 * (1824 + 52152 * r + 61180 * r ** 2
                                  + 37311 * r ** 3 + 12021 * r ** 4)
        + x * r ** 3 * (119808 + 445536 * r + 425592 * r ** 2
                        + 210995 * r ** 3 + 41976 * r ** 4)
        + 4 * r ** 4 * (21600 + 33024 * r + 30127 * r ** 2
                        + 10383 * r ** 3 + 1377 * r ** 4)) / 384


def _rho_hat(j):
    return float(j[0])


def _closed_flow(i0, tau):
    x0 = i0[0]
    decay = math.exp(-tau)
    den = x0 + (2 - x0) * decay
    return (np.array([2 * x0 / den]), np.array([[4 * decay / den ** 2]]),
            np.zeros(1))


SAMPLE_BOX = (np.array([0.3]), np.array([5.0]))


def make(params) -> ExampleDefinition:
    """The van der Pol system; it has no parameters."""
    aux = AuxiliaryBundle(
        fbar=_fbar, dfbar=_dfbar, s=_s, v=_v, p=_p,
        pbar=constant(np.zeros(1)), q=_q, w=_w, u=_u, m_script=_m_script,
        g_script=constant(np.zeros((1, 1))),
        # fbar is quadratic, so the second-order remainder is the constant -1.
        h_script=constant(np.full((1, 1, 1), -1.0)))
    bounds = BoundBundle(rho_hat=_rho_hat, a_hat=_a_hat, b_hat=_b_hat,
                         c_hat=_c_hat, d_hat=lambda j, r: 0.0,
                         e_hat=lambda j, r: 1.0)
    return ExampleDefinition(
        id="vdp", d=1, params={}, omega=_omega, f=_f, g=_g,
        in_domain=_in_domain, aux=aux, bounds=bounds, sample_box=SAMPLE_BOX,
        closed_flow=_closed_flow)
