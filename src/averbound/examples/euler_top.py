"""Damped axially-symmetric rigid body, d = 2 on (0, +inf)^2, omega = I1*I2.

Reduces the Euler equations with damping moment linear in the angular
velocity; mu measures the asymmetry of the damping in the equatorial plane
and lambda1, lambda2 the decay rates of the two actions (lambda2 < 0 lets
the second action grow).  Since omega -> 0 when either action does, the
averaged flow decays exponentially into a resonance for lambda1+lambda2 > 0.

Parameter region: lambda1 > 0, -lambda1 < mu < lambda1, lambda2 > -lambda1.
"""
from __future__ import annotations

import math

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle
from . import ExampleDefinition, constant


_PARAMS = ("mu", "lambda1", "lambda2")
SAMPLE_BOX = (np.array([0.4, 0.4]), np.array([4.0, 4.0]))


def make(params) -> ExampleDefinition:
    """The system for ``params`` ``mu``, ``lambda1`` and ``lambda2``."""
    missing = [k for k in _PARAMS if k not in params]
    if missing:
        raise ValueError(f"euler-top requires parameters {missing}")
    mu, l1, l2 = (float(params[k]) for k in _PARAMS)
    if not l1 > 0:
        raise ValueError("lambda1 must be positive")
    if not (-l1 < mu < l1):
        raise ValueError("mu must satisfy -lambda1 < mu < lambda1")
    if not l2 > -l1:
        raise ValueError("lambda2 must exceed -lambda1")
    am, al2 = abs(mu), abs(l2)

    def omega(i):
        return float(i[0] * i[1])

    def f(i, th):
        c = math.cos(2 * th)
        return [-i[0] * (l1 + mu * c), -i[1] * (l2 - mu * c)]

    def g(i, th):
        return mu * math.sin(2 * th)

    def in_domain(i):
        return bool(i[0] > 0.0 and i[1] > 0.0)

    def fbar(i):
        return [-l1 * i[0], -l2 * i[1]]

    def s(i, th):
        pre = mu / 2 * np.sin(2 * th)
        return pre * np.array([-1 / i[1], 1 / i[0]])

    def v(i, th):
        sn = np.sin(th)
        pre = mu / (2 * i[0] * i[1]) * (sn * sn)
        return pre * np.array([-1 / i[1], 1 / i[0]])

    def p(i, th):
        c = np.cos(2 * th)
        pre = mu * np.sin(2 * th) / 2
        return pre * np.array([-(l2 + mu * c) / i[1], (l1 + 3 * mu * c) / i[0]])

    def q(i, th):
        c = np.cos(2 * th)
        sn = np.sin(th)
        pre = mu * (sn * sn) / (2 * i[0] * i[1])
        return pre * np.array([-(2 * l2 + 2 * mu + l1 + mu * c) / i[1],
                               (l2 + 2 * mu + 2 * l1 + 3 * mu * c) / i[0]])

    def w(i, th):
        cs, sn = np.cos(th), np.sin(th)
        c2 = cs * cs
        pre = mu * (sn * sn) / (2 * i[0] * i[1])
        return pre * np.array([-(l2 + mu * c2) / i[1], (l1 + 3 * mu * c2) / i[0]])

    def u(i, th):
        c = np.cos(2 * th)
        sn = np.sin(th)
        pre = mu * (sn * sn) / (4 * i[0] * i[1])
        first = (4 * l2 ** 2 + 6 * l2 * mu + 2 * l2 * l1 + mu * l1
                 + mu * (4 * l2 + 3 * mu + l1) * c + 3 * mu ** 2 * c * c)
        second = (3 * l2 * mu + 2 * l2 * l1 + 10 * mu * l1 + 4 * l1 ** 2
                  + 3 * mu * (l2 + 5 * mu + 4 * l1) * c + 15 * mu ** 2 * c * c)
        return pre * np.array([-first / i[1], second / i[0]])

    # Quadratic-form coefficients of the w- and u-type majorants.
    b11 = (16 * (l1 ** 2 + l2 ** 2) + l1 * (12 * l2 + 20 * al2)
           + 2 * (l1 + l2) * mu + 4 * (l1 + al2) * am + mu ** 2)
    b22 = (16 * (l1 ** 2 + l2 ** 2) + l1 * (12 * l2 + 20 * al2)
           + 6 * (l1 + l2) * mu + 12 * (l1 + al2) * am + 9 * mu ** 2)
    b1 = (32 * (l1 ** 2 + l2 ** 2) + 64 * l1 * al2
          + 12 * (l1 + al2) * am + 2 * mu ** 2)
    b2 = (32 * (l1 ** 2 + l2 ** 2) + 64 * l1 * al2
          + 36 * (l1 + al2) * am + 18 * mu ** 2)
    b0 = (16 * (l1 ** 2 + l2 ** 2) + l1 * (12 * l2 + 20 * al2)
          + 4 * (l1 + l2) * mu + 14 * (l1 + al2) * am + 9 * mu ** 2)

    c11 = (1024 * (l1 ** 4 + l2 ** 4) + 6144 * l1 ** 2 * l2 ** 2
           + 512 * (l1 ** 2 + l2 ** 2) * l1 * (3 * l2 + 5 * al2)
           + 640 * (l1 ** 3 + l2 ** 3) * mu + 896 * (l1 ** 3 + al2 ** 3) * am
           + 1920 * (l1 + l2) * l1 * l2 * mu
           + 2688 * (l1 + al2) * l1 * al2 * am
           + 704 * (l1 ** 2 + l2 ** 2) * mu ** 2
           + 32 * l1 * (17 * l2 + 27 * al2) * mu ** 2
           - 24 * (l1 + l2) * mu ** 3 + 264 * (l1 + al2) * am ** 3
           + 27 * mu ** 4)
    c22 = (1024 * (l1 ** 4 + l2 ** 4) + 6144 * l1 ** 2 * l2 ** 2
           + 512 * (l1 ** 2 + l2 ** 2) * l1 * (3 * l2 + 5 * al2)
           + 384 * (l1 ** 3 + l2 ** 3) * mu + 1408 * (l1 ** 3 + al2 ** 3) * am
           + 1152 * (l1 + l2) * l1 * l2 * mu
           + 4224 * (l1 + al2) * l1 * al2 * am
           + 2816 * (l1 ** 2 + l2 ** 2) * mu ** 2
           + 32 * l1 * (21 * l2 + 155 * al2) * mu ** 2
           + 120 * (l1 + l2) * mu ** 3 + 1800 * (l1 + al2) * am ** 3
           + 675 * mu ** 4)
    c1 = (2048 * (l1 ** 4 + l2 ** 4) + 12288 * l1 ** 2 * l2 ** 2
          + 8192 * (l1 ** 2 + l2 ** 2) * l1 * al2
          + 3072 * (l1 ** 3 + al2 ** 3) * am
          + 9216 * (l1 + al2) * l1 * al2 * am
          + 1408 * (l1 ** 2 + l2 ** 2) * mu ** 2 + 2816 * l1 * al2 * mu ** 2
          + 576 * (l1 + al2) * am ** 3 + 54 * mu ** 4)
    c2 = (2048 * (l1 ** 4 + l2 ** 4) + 12288 * l1 ** 2 * l2 ** 2
          + 8192 * (l1 ** 2 + l2 ** 2) * l1 * al2
          + 3584 * (l1 ** 3 + al2 ** 3) * am
          + 10752 * (l1 + al2) * l1 * al2 * am
          + 5632 * (l1 ** 2 + l2 ** 2) * mu ** 2 + 11264 * l1 * al2 * mu ** 2
          + 3840 * (l1 + al2) * am ** 3 + 1350 * mu ** 4)
    c0 = (1024 * (l1 ** 4 + l2 ** 4) + 6144 * l1 ** 2 * l2 ** 2
          + 512 * (l1 ** 2 + l2 ** 2) * l1 * (3 * l2 + 5 * al2)
          + 512 * (l1 ** 3 + l2 ** 3) * mu + 2048 * (l1 ** 3 + al2 ** 3) * am
          + 1536 * (l1 + l2) * l1 * l2 * mu
          + 6144 * (l1 + al2) * l1 * al2 * am
          + 2816 * (l1 ** 2 + l2 ** 2) * mu ** 2
          + 32 * l1 * (19 * l2 + 157 * al2) * mu ** 2
          + 48 * (l1 + l2) * mu ** 3 + 1872 * (l1 + al2) * am ** 3
          + 675 * mu ** 4)

    def rho_hat(j):
        return float(min(j[0], j[1]))

    def a_hat(j, rmat, k, r):
        j1, j2 = j
        return am / 2 * math.sqrt(1 / (j1 - r) ** 2 + 1 / (j2 - r) ** 2)

    def b_hat(j, r):
        j1, j2 = j
        num = (b11 * j1 ** 2 + b22 * j2 ** 2 + b1 * j1 * r
               + b2 * j2 * r + b0 * r * r)
        return am * math.sqrt(num) / (8 * (j1 - r) ** 2 * (j2 - r) ** 2)

    def c_hat(j, r):
        j1, j2 = j
        num = (c11 * j1 ** 2 + c22 * j2 ** 2 + c1 * j1 * r
               + c2 * j2 * r + c0 * r * r)
        return am * math.sqrt(num) / (32 * (j1 - r) ** 2 * (j2 - r) ** 2)

    def d_hat(j, r):
        return 0.0

    def e_hat(j, r):
        return 0.0

    def closed_flow(i0, tau):
        e1, e2 = math.exp(-l1 * tau), math.exp(-l2 * tau)
        return (np.array([i0[0] * e1, i0[1] * e2]), np.diag([e1, e2]),
                np.zeros(2))

    aux = AuxiliaryBundle(
        fbar=fbar, dfbar=constant([[-l1, 0.0], [0.0, -l2]]), s=s,
        v=v, p=p, pbar=constant(np.zeros(2)), q=q, w=w, u=u,
        m_script=constant([[-l1 ** 2, 0.0], [0.0, -l2 ** 2]]),
        g_script=constant(np.zeros((2, 2))),
        h_script=constant(np.zeros((2, 2, 2))))
    bounds = BoundBundle(rho_hat=rho_hat, a_hat=a_hat, b_hat=b_hat,
                         c_hat=c_hat, d_hat=d_hat, e_hat=e_hat)
    return ExampleDefinition(
        id="euler-top", d=2, params={"mu": mu, "lambda1": l1, "lambda2": l2},
        omega=omega, f=f, g=g, in_domain=in_domain, aux=aux,
        bounds=bounds, sample_box=SAMPLE_BOX, closed_flow=closed_flow)
