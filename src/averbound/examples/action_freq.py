"""Action-dependent frequency system, d = 1 on (0, +inf) with omega(I) = I.

f = kappa I^2 (1 - cos 2theta), g = kappa I^2 (1 + cos 2theta), kappa = +-1.
For kappa = +1 the averaged actions blow up in finite slow time 1/I0; for
kappa = -1 they decay.  The frequency vanishes only as I -> 0 where f, g
vanish faster, so the apparent resonance is harmless.
"""
from __future__ import annotations

import math

import numpy as np

from ..model import AuxiliaryBundle, BoundBundle
from . import ExampleDefinition, constant

_SQRT2 = math.sqrt(2.0)


SAMPLE_BOX = (np.array([0.3]), np.array([3.0]))


def make(params) -> ExampleDefinition:
    """The system for one sign choice, ``params["kappa"]`` (default +1)."""
    kappa = params.get("kappa", 1)
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    kap = float(kappa)

    def omega(i):
        return float(i[0])

    def f(i, th):
        return [kap * i[0] ** 2 * (1 - math.cos(2 * th))]

    def g(i, th):
        return kap * i[0] ** 2 * (1 + math.cos(2 * th))

    def in_domain(i):
        return bool(i[0] > 0.0)

    def fbar(i):
        return [kap * i[0] ** 2]

    def dfbar(i):
        return np.array([[2 * kap * i[0]]])

    def s(i, th):
        return np.array([-kap / 2 * i[0] * np.sin(2 * th)])

    def v(i, th):
        return np.array([-kap / 4 * (1 - np.cos(2 * th))])

    def p(i, th):
        x = i[0]
        return np.array([-0.25 * x * x * (2 * x + 4 * x * np.cos(2 * th)
                                          + 2 * np.sin(2 * th)
                                          + 2 * x * np.cos(4 * th)
                                          - np.sin(4 * th))])

    def pbar(i):
        return np.array([-0.5 * i[0] ** 3])

    def q(i, th):
        x = i[0]
        return np.array([-0.25 * x * x * (2 * np.sin(2 * th) + np.sin(4 * th))])

    def w(i, th):
        x = i[0]
        return np.array([-x / 16 * (3 - 4 * np.cos(2 * th)
                                    + 8 * x * np.sin(2 * th)
                                    + np.cos(4 * th)
                                    + 2 * x * np.sin(4 * th))])

    def u(i, th):
        x = i[0]
        return np.array([-kap / 32 * x * x * (
            16 * x * x + 10
            + (40 * x * x - 15) * np.cos(2 * th) + 40 * x * np.sin(2 * th)
            + (32 * x * x + 6) * np.cos(4 * th) - 8 * x * np.sin(4 * th)
            + (8 * x * x - 1) * np.cos(6 * th) - 8 * x * np.sin(6 * th))])

    def m_script(i):
        # d2(fbar) fbar - (dfbar)^2 = 2k * kI^2 - 4I^2 = -2 I^2 for kappa^2=1
        return np.array([[-2.0 * (i[0] * i[0])]])

    def g_script(i, di):
        x, dx = i[0], di[0]
        return np.array([[-0.5 * (3 * x * x + 3 * x * dx + dx * dx)]])

    def a_hat(j, rmat, k, r):
        return 0.5 * (float(j[0]) + r) - float(k[0])

    def a_grad(j, rmat, k, r):
        return (0.5,), ((0.0,),), (-1.0,), 0.5

    def b_hat(j, r):
        # sqrt(P) / (8 sqrt 2), with P in Horner form in x and its
        # coefficients in Horner form in r; every coefficient is positive.
        x = float(j[0])
        p = ((((50 * x + (55 + 200 * r)) * x + (38 + (85 + 300 * r) * r)) * x
              + (65 + (33 + 200 * r) * r) * r) * x
             + (32 + (27 + 50 * r) * r) * r * r)
        return math.sqrt(p) / (8 * _SQRT2)

    def b_grad(j, r):
        # b_hat = sqrt(P) / (8 sqrt 2), so each partial is
        # dP / (16 sqrt(2 P)), and 16 sqrt(2 P) = 256 * b_hat.  The partials
        # of P are in Horner form in x, with coefficients in r.
        x = float(j[0])
        dx = (((200 * x + (165 + 600 * r)) * x + (76 + (170 + 600 * r) * r)) * x
              + (65 + (33 + 200 * r) * r) * r)
        dr = (((200 * x + (85 + 600 * r)) * x + (65 + (66 + 600 * r) * r)) * x
              + (64 + (81 + 200 * r) * r) * r)
        scale = 256 * b_hat(j, r)
        return (dx / scale,), dr / scale

    def c_hat(j, r):
        # sqrt(P) / (16 sqrt 2), in the Horner form of b_hat.
        x = float(j[0])
        r2 = r * r
        p = ((((((((4608 * x + (3904 + 36864 * r)) * x
                   + (1520 + (23296 + 129024 * r) * r)) * x
                  + (1856 + (5696 + (57792 + 258048 * r) * r) * r)) * x
                 + (4853 + (5352 + (10032 + (76160 + 322560 * r) * r) * r)
                    * r)) * x
                + (3086 + (7824 + (11008 + (56000 + 258048 * r) * r) * r)
                   * r) * r) * x
               + (1862 + (2976 + (9808 + (21504 + 129024 * r) * r) * r)
                  * r) * r2) * x
              + (1024 + (2312 + (5440 + (7168 + 36864 * r) * r) * r) * r)
              * r2 * r) * x
             + (512 + (752 + (1296 + (1280 + 4608 * r) * r) * r) * r)
             * r2 * r2)
        return math.sqrt(p) / (16 * _SQRT2)

    def d_hat(j, r):
        x = float(j[0])
        return 0.5 * (3 * x * x + 3 * x * r + r * r)

    def e_hat(j, r):
        return 2.0

    def rho_hat(j):
        return float(j[0])

    def closed_flow(i0, tau):
        den = 1 - kap * i0[0] * tau
        return (np.array([i0[0] / den]),
                np.array([[1.0 / den ** 2]]),
                np.array([kap * i0[0] ** 2 * math.log(den) / (2 * den * den)]))

    aux = AuxiliaryBundle(fbar=fbar, dfbar=dfbar, s=s, v=v, p=p,
                          pbar=pbar, q=q, w=w, u=u, m_script=m_script,
                          g_script=g_script,
                          h_script=constant(np.full((1, 1, 1), 2.0 * kap)))
    bounds = BoundBundle(rho_hat=rho_hat, a_hat=a_hat, b_hat=b_hat,
                         c_hat=c_hat, d_hat=d_hat, e_hat=e_hat,
                         a_grad=a_grad, b_grad=b_grad)
    return ExampleDefinition(
        id="action-freq", d=1, params={"kappa": int(kappa)}, omega=omega,
        f=f, g=g, in_domain=in_domain, aux=aux, bounds=bounds,
        sample_box=SAMPLE_BOX, closed_flow=closed_flow)
