"""Core types for perturbed one-frequency systems and their error-bound data.

A perturbed system evolves actions I in an open set of R^d and one angle on
the torus:

    dI/dt     = eps * f(I, theta)
    dtheta/dt = omega(I) + eps * g(I, theta)

The averaged flow dJ/dtau = fbar(J) (tau = eps*t) approximates the actions,
and the error L(t) = (I(t) - J(eps*t)) / eps is controlled by a certified
estimator built from two bundles of user-supplied callables:

* :class:`AuxiliaryBundle` -- the exact conjugation data (s, v, p, q, w, u,
  and the matrix / Taylor-remainder functions) entering the integral
  identity for L;
* :class:`BoundBundle` -- pointwise majorants (rho, a, b, c, d, e) of the
  auxiliary terms on a tube of radius rho around the averaged trajectory.

The system callables ``omega``, ``f``, ``g``, ``in_domain`` and the
bundle's ``fbar`` take the actions as a sequence of d floats: the fast-time
runs and the estimator's slow solve hand them a list of Python floats, the
contraction window and the checks an ndarray.  ``f`` and ``fbar`` return a
sequence of d floats (a list or a 1-D array), ``omega`` and ``g`` a float
and ``in_domain`` a bool.

The members of the auxiliary bundle other than ``fbar`` and ``pbar`` take
one point or a stack of N points: actions of shape ``(d,)`` or ``(d, N)``,
indexed ``i[k]``.

* ``s``, ``v``, ``p``, ``q``, ``w`` and ``u`` also take an angle: a float,
  with one point or with a stack, or of shape ``(N,)`` with a stack.  They
  return ``(d,)``, or ``(d, N)`` on a stack.
* ``dfbar`` and ``m_script`` take the actions, ``g_script`` and
  ``h_script`` the actions and increments, both ``(d,)`` or both
  ``(d, N)``.  They return ``(d, d)`` (``h_script``: ``(d, d, d)``), with
  a trailing N axis on a stack.
* A member whose value does not read the actions may return the one-point
  shape on a stack too; the checks broadcast it along the N points.
  ``examples.constant`` builds such members.
* ``pbar`` returns a ``(d,)`` array; it is called per point.
* ``dfbar`` and ``pbar`` take one point's actions as a sequence of d
  floats, as ``fbar`` does: the slow solve hands them a list.

The checks call the members per point and stacked, so the two calls must
agree bit for bit: write them with ``np.sin``/``np.cos`` and integer powers
as products, since numpy's ``**`` rounds differently on arrays than on
single numbers.  The majorants of :class:`BoundBundle` take the actions
and K as sequences of d floats and R as a sequence of d rows, and return
floats: the slow solve hands them lists of Python floats, the window and
the checks ndarrays, so index them (``j[0]``, ``rmat[0][0]``) rather than
computing on whole arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SystemSpec",
    "AuxiliaryBundle",
    "BoundBundle",
    "frobenius",
    "offset_value",
    "growth_value",
]

TWO_PI = 2.0 * np.pi
# Largest residual of an auxiliary identity that passes: the identity check
# of the validation suite, and the estimator's test that v and w vanish at
# the initial data.
IDENTITY_TOL = 1e-8

# (d,) actions and a float angle, or (d, N) actions and a float or (N,)
# angles.
VecFun = Callable[[np.ndarray, "float | np.ndarray"], np.ndarray]
Actions = Sequence[float]      # a list or an ndarray of the d actions
Rows = Sequence[Sequence[float]]   # the d rows of a (d, d) matrix


def frobenius(x) -> float:
    """Euclidean (Frobenius) norm of a vector, matrix or third-order tensor.

    The square root of the sum of squared entries, for any array shape.
    """
    arr = np.asarray(x, dtype=float)
    # np.add.reduce over every axis is what np.sum calls, without its
    # dispatch; math.sqrt rounds as np.sqrt does.
    return math.sqrt(np.add.reduce(arr * arr, axis=None))


@dataclass(frozen=True)
class SystemSpec:
    """A perturbed one-frequency system together with its initial data.

    Attributes
    ----------
    d : action-space dimension.
    epsilon : perturbation size, > 0.
    omega : unperturbed frequency, ``omega(I) -> float``, nonzero on the domain.
    f : action perturbation, ``f(I, theta) -> (d,)``, 2*pi-periodic in theta.
    g : angle perturbation, ``g(I, theta) -> float``, 2*pi-periodic in theta.
    in_domain : membership predicate for the open action domain.
    i0, theta0 : initial actions and angle; theta0 is reduced mod 2*pi.

    The callables take the actions as a list or an ndarray (module
    docstring).
    """

    d: int
    epsilon: float
    omega: Callable[[Actions], float]
    f: Callable[[Actions, float], Sequence[float]]
    g: Callable[[Actions, float], float]
    in_domain: Callable[[Actions], bool]
    i0: np.ndarray
    theta0: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be a positive integer")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        i0 = np.atleast_1d(np.asarray(self.i0, dtype=float))
        if i0.shape != (self.d,):
            raise ValueError(f"i0 must have shape ({self.d},), got {i0.shape}")
        object.__setattr__(self, "i0", i0)
        object.__setattr__(self, "theta0", float(self.theta0) % TWO_PI)
        if not self.in_domain(i0):
            raise ValueError("initial actions i0 lie outside the action domain")
        # On a list, as the fast-time runs call it: array code such as
        # 2 * i repeats a list there instead of doubling it.
        if np.shape(self.f(i0.tolist(), self.theta0)) != (self.d,):
            raise ValueError(f"f must return {self.d} numbers for a list of "
                             f"{self.d} actions")


@dataclass(frozen=True)
class AuxiliaryBundle:
    """Closed-form conjugation data for a specific system.

    ``fbar`` is the angle average of f and ``dfbar`` its Jacobian; ``s``
    solves f = fbar + omega * ds/dtheta with zero angle average; ``v`` and
    ``w`` are angle antiderivatives of s and p - pbar vanishing at theta0;
    ``p``, ``q``, ``u`` are the transported derivatives of s, v, w along the
    flow; ``m_script`` is the commutator-type matrix built from fbar, and
    ``g_script`` / ``h_script`` are Taylor remainder functions for pbar and
    fbar:

        pbar(I + dI) = pbar(I) + g_script(I, dI) @ dI
        fbar(I + dI) = fbar(I) + dfbar(I) @ dI + 1/2 h_script(I, dI) dI dI

    with h_script symmetric in its two lower indices.

    Every member but ``fbar`` and ``pbar`` takes one point or a stack of
    points (module docstring): on ``(d, N)`` actions, and ``(N,)`` angles
    or one float angle, entry k along the trailing N axis equals bit for
    bit the call on point k.  A member that does not read the actions may
    return the one-point value on a stack.
    """

    fbar: Callable[[Actions], Sequence[float]]
    dfbar: Callable[[Actions], np.ndarray]
    s: VecFun
    v: VecFun
    p: VecFun
    pbar: Callable[[Actions], np.ndarray]
    q: VecFun
    w: VecFun
    u: VecFun
    m_script: Callable[[np.ndarray], np.ndarray]
    g_script: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_script: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BoundBundle:
    """Majorant functions defining the certified error estimator.

    ``rho_hat(J)`` is the tube radius around the averaged trajectory (may be
    +inf).  For 0 <= r < rho_hat(J):

    * ``a_hat(J, R, K, r)`` dominates |s(J+dJ,th) - R s(I0,th0) - K|,
    * ``b_hat(J, r)``       dominates |w - dfbar(J) v| at (J+dJ, th),
    * ``c_hat(J, r)``       dominates |u - dfbar(J)(w+q) - m_script(J) v|,
    * ``d_hat(J, r)``       dominates |g_script(J, dJ)|,
    * ``e_hat(J, r)``       dominates |h_script(J, dJ)|,

    over all |dJ| <= r and all angles; c, d, e must be non-decreasing in r.
    J and K are sequences of d floats and R a sequence of d rows of floats:
    lists in the slow solve, ndarrays in the window and the checks.

    ``a_grad`` and ``b_grad`` optionally supply the partial derivatives of
    ``a_hat`` and ``b_hat``, both or neither:

    * ``a_grad(J, R, K, r) -> (dJ (d,), dR (d, d), dK (d,), dr float)``,
    * ``b_grad(J, r) -> (dJ (d,), dr float)``,

    each array part an ndarray or a (nested) sequence of floats.  The slow
    right-hand side evaluates each once per evaluation, for both
    d(offset)/dr and d(offset)/dtau.  Central finite differences of
    ``a_hat`` and ``b_hat`` serve only a bundle without gradients.  The slow
    solve, its stop test and the window follow :mod:`averbound.inline`.
    """

    rho_hat: Callable[[Actions], float]
    a_hat: Callable[[Actions, Rows, Actions, float], float]
    b_hat: Callable[[Actions, float], float]
    c_hat: Callable[[Actions, float], float]
    d_hat: Callable[[Actions, float], float]
    e_hat: Callable[[Actions, float], float]
    a_grad: Optional[Callable] = None
    b_grad: Optional[Callable] = None

    def __post_init__(self):
        if (self.a_grad is None) != (self.b_grad is None):
            raise ValueError("a_grad and b_grad must be given together or not at all")


def offset_value(bounds: BoundBundle, j: Actions, r_mat: Rows,
                 k: Actions, r: float, eps: float) -> float:
    """Offset term of the error inequality, a_hat + eps * b_hat.

    Meaningful for 0 <= r < rho_hat(j), which it does not check: the
    estimator's stop predicate enforces the tube.
    """
    return float(bounds.a_hat(j, r_mat, k, r) + eps * bounds.b_hat(j, r))


def growth_value(bounds: BoundBundle, j: Actions, r: float, ell: float) -> float:
    """Growth kernel of the error inequality, c_hat + d_hat*ell + e_hat*ell^2/2,
    for 0 <= r < rho_hat(j) (not checked)."""
    return float(bounds.c_hat(j, r) + bounds.d_hat(j, r) * ell
                 + 0.5 * bounds.e_hat(j, r) * ell * ell)
