"""Resonant drift system: d = 1 on (0, +inf), omega(I) = I, f = 1 - cos(theta).

The frequency vanishes as I -> 0 and here the conjugation functions do blow
up, so data near zero probe genuine resonance.  The averaged actions drift
linearly away from it: J = I0 + tau, with R = 1 and K = 0.
"""
from __future__ import annotations

import math

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle
from . import ExampleDefinition, constant


def _omega(i):
    return float(i[0])


def _f(i, th):
    return [1.0 - math.cos(th)]


def _g(i, th):
    return 0.0


def _in_domain(i):
    return bool(i[0] > 0.0)


def _fbar(i):
    return [1.0]


def _s(i, th):
    return np.array([-np.sin(th) / i[0]])


def _v(i, th):
    x = i[0]
    return np.array([-(1 - np.cos(th)) / (x * x)])


def _p(i, th):
    x = i[0]
    return np.array([(2 * np.sin(th) - np.sin(2 * th)) / (2 * (x * x))])


def _q(i, th):
    x = i[0]
    return np.array([(3 - 4 * np.cos(th) + np.cos(2 * th)) / (x * x * x)])


def _w(i, th):
    return _q(i, th) / 4


def _u(i, th):
    x2 = i[0] * i[0]
    return np.array([3 / (8 * (x2 * x2))
                     * (-10 + 15 * np.cos(th) - 6 * np.cos(2 * th) + np.cos(3 * th))])


def _rho_hat(j):
    return float(j[0])


def _a_hat(j, rmat, k, r):
    return 1.0 / (float(j[0]) - r)


def _b_hat(j, r):
    return 2.0 / (float(j[0]) - r) ** 3


def _c_hat(j, r):
    return 12.0 / (float(j[0]) - r) ** 4


def _d_hat(j, r):
    return 0.0


def _e_hat(j, r):
    return 0.0


def _a_grad(j, rmat, k, r):
    # a_hat = 1 / (J - r): its J and r derivatives differ only in sign.
    slope = 1.0 / (float(j[0]) - r) ** 2
    return (-slope,), ((0.0,),), (0.0,), slope


def _b_grad(j, r):
    # b_hat = 2 / (J - r)^3
    slope = 6.0 / (float(j[0]) - r) ** 4
    return (-slope,), slope


def _closed_flow(i0, tau):
    return np.array([i0[0] + tau]), np.ones((1, 1)), np.zeros(1)


SAMPLE_BOX = (np.array([0.5]), np.array([4.0]))


def make(params) -> ExampleDefinition:
    """The resonant drift system; it has no parameters."""
    aux = AuxiliaryBundle(
        fbar=_fbar, dfbar=constant(np.zeros((1, 1))), s=_s,
        v=_v, p=_p, pbar=constant(np.zeros(1)), q=_q, w=_w, u=_u,
        m_script=constant(np.zeros((1, 1))),
        g_script=constant(np.zeros((1, 1))),
        h_script=constant(np.zeros((1, 1, 1))))
    bounds = BoundBundle(rho_hat=_rho_hat, a_hat=_a_hat, b_hat=_b_hat,
                         c_hat=_c_hat, d_hat=_d_hat, e_hat=_e_hat,
                         a_grad=_a_grad, b_grad=_b_grad)
    return ExampleDefinition(
        id="resonant", d=1, params={}, omega=_omega, f=_f, g=_g,
        in_domain=_in_domain, aux=aux, bounds=bounds, sample_box=SAMPLE_BOX,
        closed_flow=_closed_flow)
