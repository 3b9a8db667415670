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
    return np.array([x / 8 * (4 * np.sin(2 * th) - x * np.sin(4 * th))])


def _v(i, th):
    x = i[0]
    return np.array([-x / 32 * (8 - x - 8 * np.cos(2 * th) + x * np.cos(4 * th))])


def _p(i, th):
    x = i[0]
    return np.array([x / 8 * ((4 - 2 * x - x * x) * np.sin(2 * th)
                              + x * (x - 4) * np.sin(4 * th)
                              + x * x * np.sin(6 * th))])


def _q(i, th):
    x = i[0]
    return np.array([-x / 32 * (16 - 10 * x + 2 * x * x
                                - (16 - x * x) * np.cos(2 * th)
                                + x * (10 - 2 * x) * np.cos(4 * th)
                                - x * x * np.cos(6 * th))])


def _w(i, th):
    x = i[0]
    return np.array([-x / 96 * (24 - 24 * x - x * x
                                - 6 * (4 - 2 * x - x * x) * np.cos(2 * th)
                                + 3 * x * (4 - x) * np.cos(4 * th)
                                - 2 * x * x * np.cos(6 * th))])


def _u(i, th):
    x = i[0]
    x2 = x * x
    x3 = x2 * x
    return np.array([-x / 128 * (
        64 - 120 * x + 36 * x2 + x3
        + (-64 + 64 * x + 50 * x2 - 12 * x3) * np.cos(2 * th)
        + 4 * x * (14 - 17 * x - x2) * np.cos(4 * th)
        + 6 * x2 * (-3 + 2 * x) * np.cos(6 * th)
        + 3 * x3 * np.cos(8 * th))])


def _m_script(i):
    x = i[0]
    return np.array([[-1.0 + x - x * x / 2]])


def _a_radicand(x):
    return -2 + 10 * x ** 2 + x ** 4 + 2 * (1 + 2 * x ** 2) ** 1.5


def _a_hat(j, rmat, k, r):
    return 0.125 * math.sqrt(_a_radicand(float(j[0]) + r))


def _a_grad(j, rmat, k, r):
    # a_hat reads J + r alone, so its J and r derivatives agree.
    x = float(j[0]) + r
    slope = (x * (5 + x * x + 3 * math.sqrt(1 + 2 * x * x))
             / (4 * math.sqrt(_a_radicand(x))))
    return (slope,), ((0.0,),), (0.0,), slope


def _b_hat(j, r):
    # sqrt(P) / 96, with P in Horner form in x and its coefficients in
    # Horner form in r; every coefficient is positive.
    x = float(j[0])
    r2 = r * r
    p = ((((((120 * x + (276 + 672 * r)) * x
             + (576 + (1422 + 1551 * r) * r)) * x
            + (864 + (2160 + 1884 * r) * r) * r) * x
           + (2232 + (3180 + 1386 * r) * r) * r2) * x
          + (2592 + (2556 + 552 * r) * r) * r2 * r) * x
         + (1404 + (690 + 91 * r) * r) * r2 * r2)
    return math.sqrt(p) / 96


def _b_grad(j, r):
    # b_hat = sqrt(P) / 96, so each partial is dP / (192 sqrt(P)), and
    # 192 sqrt(P) = 192 * 96 * b_hat.  The partials of P are in Horner form
    # in x, with coefficients in r.
    x = float(j[0])
    r2 = r * r
    r3 = r2 * r
    dx = (((((720 * x + (1380 + 3360 * r)) * x
             + (2304 + (5688 + 6204 * r) * r)) * x
            + (2592 + (6480 + 5652 * r) * r) * r) * x
           + (4464 + (6360 + 2772 * r) * r) * r2) * x
          + (2592 + (2556 + 552 * r) * r) * r3)
    dr = (((((672 * x + (1422 + 3102 * r)) * x
             + (864 + (4320 + 5652 * r) * r)) * x
            + (4464 + (9540 + 5544 * r) * r) * r) * x
           + (7776 + (10224 + 2760 * r) * r) * r2) * x
          + (5616 + (3450 + 546 * r) * r) * r3)
    scale = 192 * 96 * _b_hat(j, r)
    return (dx / scale,), dr / scale


def _c_hat(j, r):
    # sqrt(P) / 384, in the Horner form of _b_hat.
    x = float(j[0])
    r2 = r * r
    p = ((((((((6512 * x + (16104 + 50304 * r)) * x
               + (40632 + (131616 + 166944 * r) * r)) * x
              + (14496 + (249504 + (315000 + 309808 * r) * r) * r)) * x
             + (9216 + (53232 + (736296 + (455592 + 359964 * r) * r) * r)
                * r)) * x
            + (37440 + (319584 + (1004672 + (497544 + 280368 * r) * r) * r)
               * r) * r) * x
           + (21888 + (625824 + (734160 + (447732 + 144252 * r) * r) * r)
              * r) * r2) * x
          + (119808 + (445536 + (425592 + (210995 + 41976 * r) * r) * r)
             * r) * r2 * r) * x
         + (86400 + (132096 + (120508 + (41532 + 5508 * r) * r) * r) * r)
         * r2 * r2)
    return math.sqrt(p) / 384


def _d_hat(j, r):
    return 0.0


def _e_hat(j, r):
    return 1.0


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
                         c_hat=_c_hat, d_hat=_d_hat, e_hat=_e_hat,
                         a_grad=_a_grad, b_grad=_b_grad)
    return ExampleDefinition(
        id="vdp", d=1, params={}, omega=_omega, f=_f, g=_g,
        in_domain=_in_domain, aux=aux, bounds=bounds, sample_box=SAMPLE_BOX,
        closed_flow=_closed_flow)
