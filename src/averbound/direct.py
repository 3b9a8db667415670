"""Direct fast-time integration of the averaging error.

Integrates the exact evolution of the scaled error L(t) = (I(t) - J(eps*t))/eps
and the angle against a precomputed averaged trajectory:

    dL/dt     = f(I, Theta) - fbar(J(eps*t)),                      L(0) = 0
    dTheta/dt = omega(I) + eps * g(I, Theta),        I := J(eps*t) + eps*L

The right-hand side, stop predicate and step are straight-line code,
generated together once per d (:func:`_direct_rhs_source`).  The step is
the Dormand-Prince float step of :mod:`~averbound.ode` with the right-hand
side written into each stage, bit for bit the step on the right-hand side.
All three read the averaged actions J(eps*t) inline from the slow
trajectory's dense output: they share the interval of its cubic that the
last query fell in, and leave it only when a query falls outside.  The
state is stepped as a list of Python floats, and ``f``, ``g``, ``omega``,
``in_domain`` and ``fbar`` are handed the actions as a list.  This is the
expensive comparison run used to validate the certified bound; it honours a
wall-clock budget and flags runs cut short by it.
"""
from __future__ import annotations

import functools
import textwrap
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
    rhs, stop, kernel = _direct_functions(spec, aux, avg_traj, rtol, atol)

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
        problem = ode.IvpProblem(rhs=rhs, t0=t, y0=y, t_end=t_next)
        piece = ode._integrate(problem, rtol, atol, stop, h_warm, kernel)
        pieces.append(piece)
        status = piece.status
        if piece.status is not ode.Status.COMPLETED:
            break
        t = piece.t_final
        y = piece.states[-1]
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


def _direct_rhs_source(d: int) -> str:
    """Source of ``make(eps, f_sys, g_sys, omega, fbar, in_domain, interval,
    tau_max, rtol, atol)``, which returns the direct right-hand side, stop
    predicate and step for d actions as straight-line code: ``rhs, stop,
    (step, stage_calls)``, the step and its stage counter as
    :func:`ode._integrate` takes them.

    The step is the generated float step of :mod:`~averbound.ode` with the
    right-hand side written into each stage (:func:`ode._inline_stage`):
    the same operations on the same floats as a stage that calls ``rhs``,
    so it takes the same steps bit for bit.  All three read J(eps*t)
    inline, as ``j0, j1, ...``, from the interval of the averaged cubic
    they share in closure cells: its ends ``t_lo``, ``t_hi``, its length
    ``width`` and its coefficient rows ``c0``..``c3``.  A query outside [t_lo, t_hi] takes the interval ``interval`` (the
    sampler's :meth:`~averbound.ode.CubicSampler.interval`) returns, which
    moves the sampler's cursor as its ``into`` would; inside, the cursor
    would not move.  So each j<k> is ``into``'s value bit for bit, node
    times included.  The query is clamped at ``tau_max``; J and fbar(J) are
    each kept with the unclamped slow time they were taken at, since the
    last two stages of a step and the stop check after it share one time.
    """
    ix = range(d)
    js = [f"j{k}" for k in ix]
    cells = ["t_lo", "t_hi", "width", "c0", "c1", "c2", "c3", *js, "tau_j"]

    def read_j(time, state):
        """Lines that bind ``tau`` and J at the fast time ``time``, and
        ``actions`` from the state components ``state``."""
        return [
            f"tau = eps * {time}",
            "if tau != tau_j:",
            "    q = tau if tau < tau_max else tau_max",
            "    if not t_lo <= q <= t_hi:",
            "        t_lo, t_hi, width, c0, c1, c2, c3 = interval(q)",
            "    s = (q - t_lo) / width",
        ] + [f"    j{k} = ((c3[{k}] * s + c2[{k}]) * s + c1[{k}]) * s + c0[{k}]"
             for k in ix] + [
            "    tau_j = tau",
            f"actions = {ode._seq(f'j{k} + eps * {state[k]}' for k in ix)}",
        ]

    def slope(time, state):
        """Lines that evaluate the right-hand side at ``time`` and
        ``state``, and the expressions of its d + 1 values."""
        theta = state[d]
        return read_j(time, state) + [
            f"fa = f_sys(actions, {theta})",
            "if tau != tau_fb:",
            f"    fb = fbar({ode._seq(js)})",
            "    tau_fb = tau",
        ], [*(f"fa[{k}] - fb[{k}]" for k in ix),
            f"omega(actions) + eps * g_sys(actions, {theta})"]

    ys = [f"y[{i}]" for i in range(d + 1)]
    lines, values = slope("t", ys)
    rhs = [f"nonlocal {', '.join(cells)}, fb, tau_fb", *lines,
           f"return {ode._seq(values)}"]
    stop = [f"nonlocal {', '.join(cells)}", *read_j("t", ys),
            "return not in_domain(actions)"]

    stage = ode._inline_stage(d + 1,
                              lambda time, state, last: slope(time, state))
    step = ode._float_step_source(ode._STAGES, ode._E, d + 1, stage,
                                  (*cells, "fb", "tau_fb"))
    return "\n".join(
        ["def make(eps, f_sys, g_sys, omega, fbar, in_domain, interval, tau_max,",
         "         rtol, atol):",
         # NaN ends take the first query to interval()
         "    t_lo = t_hi = width = tau_j = tau_fb = nan",
         "    c0 = c1 = c2 = c3 = fb = None",
         f"    {' = '.join(js)} = 0.0",
         "    calls = 0",
         "    def rhs(t, y):"]
        + ["        " + line for line in rhs]
        + ["    def stop(t, y):"]
        + ["        " + line for line in stop]
        + [textwrap.indent(step, "    "),
           "    return rhs, stop, (step, lambda: calls)", ""])


@functools.lru_cache(maxsize=None)
def _compile_direct_rhs(d: int):
    return ode._compile_factory(_direct_rhs_source(d), f"<direct rhs, d = {d}>")


def _direct_functions(spec: SystemSpec, aux: AuxiliaryBundle,
                      avg_traj: ode.Trajectory, rtol: float, atol: float):
    """The direct right-hand side, stop predicate and step on lists of
    Python floats, against the averaged trajectory ``avg_traj``: the three
    :func:`_compile_direct_rhs` generates for ``spec.d``, reading J from
    one fresh :class:`~averbound.ode.CubicSampler` of ``avg_traj``."""
    make = _compile_direct_rhs(spec.d)
    return make(spec.epsilon, spec.f, spec.g, spec.omega, aux.fbar,
                spec.in_domain, ode.CubicSampler(avg_traj).interval,
                avg_traj.t_final, rtol, atol)


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


def check_window(window: float, span: float) -> None:
    """Refuse a positive envelope window width so narrow that the index of
    a window over slow times up to ``span`` in magnitude overflows a 64-bit
    integer."""
    if not span / window < 2.0 ** 63:
        raise ValueError(f"window width {window!r} is too small for the slow "
                         f"span {span!r}: its window index overflows")


def envelope(dtraj: DirectTrajectory, window: float) -> List[Tuple[float, float]]:
    """Windowed peaks of |L| in slow time.

    Partitions the covered slow-time span into windows of the given width
    and returns, per nonempty window, the slow time of the largest |L|
    sample and its value.  NaN samples are passed over; a window of NaN
    samples only gives its first time and NaN.  A window so narrow that a
    window index overflows a 64-bit integer is refused.
    """
    if not window > 0.0:
        raise ValueError("window width must be positive")
    taus = dtraj.eps * dtraj.t
    if taus.size == 0:
        raise ValueError("empty trajectory")
    span = float(taus[-1])
    check_window(window, max(abs(float(taus[0])), abs(span)))
    mags = dtraj.abs_l
    idx = np.floor(taus / window).astype(np.int64)
    # a grid point sitting exactly on the right endpoint joins the last
    # full window instead of forming a one-sample bin
    last_full = max(int(np.ceil(span / window - 1e-12)) - 1, 0)
    np.minimum(idx, last_full, out=idx)
    ranked = np.where(np.isnan(mags), -np.inf, mags)
    # The grid is sorted, so each window is one slice of it.
    ends = [0, *(np.flatnonzero(np.diff(idx)) + 1).tolist(), idx.size]
    out: List[Tuple[float, float]] = []
    for lo, hi in zip(ends, ends[1:]):
        i = lo + int(np.argmax(ranked[lo:hi]))
        out.append((float(taus[i]), float(mags[i])))
    return out
