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
        return np.array([-kap / 2 * i[0] * math.sin(2 * th)])

    def v(i, th):
        return np.array([-kap / 4 * (1 - math.cos(2 * th))])

    def p(i, th):
        x = i[0]
        return np.array([-0.25 * x * x * (2 * x + 4 * x * math.cos(2 * th)
                                          + 2 * math.sin(2 * th)
                                          + 2 * x * math.cos(4 * th)
                                          - math.sin(4 * th))])

    def pbar(i):
        return np.array([-0.5 * i[0] ** 3])

    def q(i, th):
        x = i[0]
        return np.array([-0.25 * x * x * (2 * math.sin(2 * th) + math.sin(4 * th))])

    def w(i, th):
        x = i[0]
        return np.array([-x / 16 * (3 - 4 * math.cos(2 * th)
                                    + 8 * x * math.sin(2 * th)
                                    + math.cos(4 * th)
                                    + 2 * x * math.sin(4 * th))])

    def u(i, th):
        x = i[0]
        return np.array([-kap / 32 * x * x * (
            16 * x * x + 10
            + (40 * x * x - 15) * math.cos(2 * th) + 40 * x * math.sin(2 * th)
            + (32 * x * x + 6) * math.cos(4 * th) - 8 * x * math.sin(4 * th)
            + (8 * x * x - 1) * math.cos(6 * th) - 8 * x * math.sin(6 * th))])

    def m_script(i):
        # d2(fbar) fbar - (dfbar)^2 = 2k * kI^2 - 4I^2 = -2 I^2 for kappa^2=1
        return np.array([[-2.0 * i[0] ** 2]])

    def g_script(i, di):
        x, dx = i[0], di[0]
        return np.array([[-0.5 * (3 * x * x + 3 * x * dx + dx * dx)]])

    def a_hat(j, rmat, k, r):
        return 0.5 * (float(j[0]) + r) - float(k[0])

    def b_hat(j, r):
        x = float(j[0])
        return math.sqrt(
            50 * x ** 4 + (55 + 200 * r) * x ** 3
            + (38 + 85 * r + 300 * r ** 2) * x ** 2
            + (65 + 33 * r + 200 * r ** 2) * x * r
            + (32 + 27 * r + 50 * r ** 2) * r ** 2) / (8 * _SQRT2)

    def c_hat(j, r):
        x = float(j[0])
        return math.sqrt(
            4608 * x ** 8 + (3904 + 36864 * r) * x ** 7
            + (1520 + 23296 * r + 129024 * r ** 2) * x ** 6
            + (1856 + 5696 * r + 57792 * r ** 2 + 258048 * r ** 3) * x ** 5
            + (4853 + 5352 * r + 10032 * r ** 2 + 76160 * r ** 3
               + 322560 * r ** 4) * x ** 4
            + (3086 + 7824 * r + 11008 * r ** 2 + 56000 * r ** 3
               + 258048 * r ** 4) * x ** 3 * r
            + (1862 + 2976 * r + 9808 * r ** 2 + 21504 * r ** 3
               + 129024 * r ** 4) * x ** 2 * r ** 2
            + (1024 + 2312 * r + 5440 * r ** 2 + 7168 * r ** 3
               + 36864 * r ** 4) * x * r ** 3
            + (512 + 752 * r + 1296 * r ** 2 + 1280 * r ** 3
               + 4608 * r ** 4) * r ** 4) / (16 * _SQRT2)

    def d_hat(j, r):
        x = float(j[0])
        return 0.5 * (3 * x * x + 3 * x * r + r * r)

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
                         c_hat=c_hat, d_hat=d_hat, e_hat=lambda j, r: 2.0)
    return ExampleDefinition(
        id="action-freq", d=1, params={"kappa": int(kappa)}, omega=omega,
        f=f, g=g, in_domain=in_domain, aux=aux, bounds=bounds,
        sample_box=SAMPLE_BOX, closed_flow=closed_flow)
