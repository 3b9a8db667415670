"""Direct fast-time integration of the averaging error.

Integrates the exact evolution of the scaled error L(t) = (I(t) - J(eps*t))/eps
and the angle against a precomputed averaged trajectory:

    dL/dt     = f(I, Theta) - fbar(J(eps*t)),                      L(0) = 0
    dTheta/dt = omega(I) + eps * g(I, Theta),        I := J(eps*t) + eps*L

The averaged actions are sampled from the slow trajectory's dense output.
The state is stepped as a list of Python floats, and the system is called
through its float forms (:meth:`SystemSpec.float_forms`).
This is the expensive comparison run used to validate the certified bound;
it honours a wall-clock budget and flags runs cut short by it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import ode
from .model import AuxiliaryBundle, SystemSpec

__all__ = ["DirectTrajectory", "run_direct", "envelope"]

DEFAULT_BUDGET_S = 240.0
_BUDGET_CHUNKS = 256


@dataclass
class DirectTrajectory:
    """Fast-time grid of the scaled error L and the (unreduced) angle."""

    d: int
    eps: float
    traj: ode.Trajectory       # state layout [L_1..L_d, Theta]
    budget_exceeded: bool
    wall_time_s: float

    @property
    def t(self) -> np.ndarray:
        return self.traj.times

    @property
    def l(self) -> np.ndarray:
        return self.traj.states[:, :self.d]

    @property
    def theta(self) -> np.ndarray:
        return self.traj.states[:, self.d]

    @property
    def abs_l(self) -> np.ndarray:
        return np.sqrt(np.sum(self.l * self.l, axis=1))

    @property
    def status(self) -> ode.Status:
        return self.traj.status


def run_direct(spec: SystemSpec, aux: AuxiliaryBundle, avg_traj: ode.Trajectory,
               u: float, rtol: float = ode.DEFAULT_RTOL, atol: float = ode.DEFAULT_ATOL,
               time_budget: float = DEFAULT_BUDGET_S) -> DirectTrajectory:
    """Integrate the error system on [0, u/eps) against ``avg_traj``.

    ``avg_traj`` must span [0, u] in slow time with the averaged actions in
    its first d state components.  The run is split into chunks with the
    wall clock checked in between; exceeding ``time_budget`` seconds aborts
    with ``step_failure`` status and ``budget_exceeded`` set, keeping the
    partial trajectory.  Leaving the action domain stops the run with
    ``stopped_by_predicate``.
    """
    if not u > 0.0:
        raise ValueError("U must be positive")
    if avg_traj.t_final < u * (1.0 - 1e-12):
        raise ValueError("averaged trajectory does not span [0, U]")
    eps = spec.epsilon
    d = spec.d
    t_end = u / eps
    start = time.perf_counter()
    sample_avg = avg_traj.sampler()
    tau_max = avg_traj.t_final
    forms = spec.float_forms(aux)
    f_sys, g_sys, omega, fbar = forms.f, forms.g, forms.omega, forms.fbar
    in_domain = forms.in_domain
    sample_into = sample_avg.into
    # J(eps*t) as Python floats; every rhs and stop call fills it first.
    # The lists are built by plain loops: comprehensions cost about a third
    # more per call at d = 1 and 2.
    jl = [0.0] * d
    comps = range(d)

    def rhs(t: float, y: list) -> list:
        tau = eps * t
        sample_into(tau if tau < tau_max else tau_max, jl, d)
        actions = []
        for k in comps:
            actions.append(jl[k] + eps * y[k])
        theta = y[d]
        fa = f_sys(actions, theta)
        fb = fbar(jl)
        out = []
        for k in comps:
            out.append(fa[k] - fb[k])
        out.append(omega(actions) + eps * g_sys(actions, theta))
        return out

    def stop(t: float, y: list) -> bool:
        tau = eps * t
        sample_into(tau if tau < tau_max else tau_max, jl, d)
        actions = []
        for k in comps:
            actions.append(jl[k] + eps * y[k])
        return not in_domain(actions)

    chunk = t_end / _BUDGET_CHUNKS
    y = np.concatenate([np.zeros(d), [spec.theta0]])
    t = 0.0
    h_warm = None
    pieces: List[ode.Trajectory] = []
    budget_hit = False
    status = ode.Status.COMPLETED
    while t < t_end:
        t_next = min(t + chunk, t_end)
        if t_end - t_next < 0.5 * chunk:
            t_next = t_end
        problem = ode.IvpProblem(rhs=rhs, t0=t, y0=y, t_end=t_next, lists=True)
        piece = ode.integrate(problem, rtol=rtol, atol=atol, stop=stop,
                              first_step=h_warm)
        pieces.append(piece)
        status = piece.status
        if piece.status is not ode.Status.COMPLETED:
            break
        t = piece.t_final
        y = piece.states[-1].copy()
        if len(piece.times) > 1:
            # last step is clipped to the chunk end; take the recent maximum
            h_warm = float(np.max(np.diff(piece.times[-6:])))
        if time.perf_counter() - start > time_budget:
            budget_hit = True
            status = ode.Status.STEP_FAILURE
            break

    merged = _concat(pieces, status)
    return DirectTrajectory(
        d=d,
        eps=eps,
        traj=merged,
        budget_exceeded=budget_hit,
        wall_time_s=time.perf_counter() - start,
    )


def _concat(pieces: Sequence[ode.Trajectory], status: ode.Status) -> ode.Trajectory:
    times = [pieces[0].times]
    states = [pieces[0].states]
    derivs = [pieces[0].derivs]
    stats = pieces[0].stats
    for piece in pieces[1:]:
        times.append(piece.times[1:])
        states.append(piece.states[1:])
        derivs.append(piece.derivs[1:])
        stats += piece.stats
    return ode.Trajectory(
        times=np.concatenate(times),
        states=np.vstack(states),
        derivs=np.vstack(derivs),
        status=status,
        stop_time=pieces[-1].stop_time,
        stop_reason=pieces[-1].stop_reason,
        stats=stats,
    )


def envelope(dtraj: DirectTrajectory, window: float) -> List[Tuple[float, float]]:
    """Windowed peaks of |L| in slow time.

    Partitions the covered slow-time span into windows of the given width
    and returns, per nonempty window, the slow time of the largest |L|
    sample and its value.
    """
    if not window > 0.0:
        raise ValueError("window width must be positive")
    taus = dtraj.eps * dtraj.t
    if taus.size == 0:
        raise ValueError("empty trajectory")
    mags = dtraj.abs_l
    idx = np.floor(taus / window).astype(int)
    # a grid point sitting exactly on the right endpoint joins the last
    # full window instead of forming a one-sample bin
    span = float(taus[-1])
    last_full = max(int(np.ceil(span / window - 1e-12)) - 1, 0)
    np.minimum(idx, last_full, out=idx)
    out: List[Tuple[float, float]] = []
    for w in np.unique(idx):
        mask = idx == w
        local = np.argmax(mags[mask])
        out.append((float(taus[mask][local]), float(mags[mask][local])))
    return out
