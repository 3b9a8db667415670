"""Direct fast-time integration of the averaging error.

Integrates the exact evolution of the scaled error L(t) = (I(t) - J(eps*t))/eps
and the angle against a precomputed averaged trajectory:

    dL/dt     = f(I, Theta) - fbar(J(eps*t)),                      L(0) = 0
    dTheta/dt = omega(I) + eps * g(I, Theta),        I := J(eps*t) + eps*L

The right-hand side, stop predicate and adaptive run are straight-line
code, generated together once per d and per code of the system's members
(:func:`_direct_rhs_source`).  The run is the Dormand-Prince float run of
:mod:`~averbound.ode`, its whole step loop in one function, with the
right-hand side written into each stage and the stop test into each
accepted node: bit for bit the loop that steps on the right-hand side and
calls the stop predicate.  All three read the averaged actions J(eps*t)
inline from the slow trajectory's dense output: they share the interval of
its cubic that the last query fell in, and leave it only when a query falls
outside.  The state is stepped as Python floats.

``f``, ``fbar``, ``omega``, ``g`` and ``in_domain`` are evaluated by the
rule the slow solve shares (:mod:`~averbound.inline`, table
:data:`~averbound.inline.DIRECT`): a plain ``def`` of assignments and one
``return`` is written into the three, its own expressions, read from its
source, on the same floats in the same order, so the run is bit for bit
the one that calls it; a member made by ``examples.constant`` is bound
once per run, as the parts of its value the run reads; any other member,
a lambda or a wrapper, is called and handed the actions as a list.  This
is the expensive comparison run used to validate the certified bound; it
honours a wall-clock budget and flags runs cut short by it.
"""
from __future__ import annotations

import functools
import textwrap
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import inline, ode
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
    its first d state components.  One :func:`ode._integrate` call runs
    the span in ``_BUDGET_CHUNKS`` chunks and checks the wall clock after
    each; exceeding ``time_budget`` seconds aborts with ``step_failure``
    status and ``budget_exceeded`` set, keeping the partial trajectory.
    Leaving the action domain stops the run with ``stopped_by_predicate``.
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
    budget_hit = False

    def out_of_time():
        nonlocal budget_hit
        budget_hit = time.perf_counter() - start > time_budget
        return budget_hit
    y0 = np.concatenate([np.zeros(d), [spec.theta0]])
    traj = ode._integrate(ode.IvpProblem(rhs=rhs, t0=0.0, y0=y0, t_end=t_end),
                          rtol, atol, stop, None, kernel, _BUDGET_CHUNKS,
                          out_of_time)
    return DirectTrajectory(d=d, eps=eps, traj=traj, budget_exceeded=budget_hit,
                            wall_time_s=time.perf_counter() - start)


def _direct_rhs_source(d: int, keys: tuple) -> str:
    """Source of ``make(eps, f_sys, g_sys, omega, fbar, in_domain, interval,
    tau_max, rtol, atol, **outside)``, which returns the direct right-hand
    side, stop predicate and adaptive run for d actions as straight-line
    code: ``rhs, stop, (run, stage_calls)``, the run and its stage counter
    as :func:`ode._integrate` takes them.

    ``keys`` holds the key of each member of :data:`inline.DIRECT` (f,
    fbar, omega, g and in_domain), as :func:`inline.members` picks them:
    a member written into the three, a constant bound once per run, or
    None for a member they call.  The names a written-in member reads
    from outside and a constant's parts are the arguments ``outside`` of
    ``make`` (:func:`inline.outside`), so the source depends on the code
    alone.
    Its action parameter read as ``i[k]`` becomes ``i<k>``, the action
    ``j<k> + eps * z<k>`` bound once per evaluation, and any other read of
    it the list ``actions`` the called members get; fbar's reads ``j<k>``.
    The d items of f's and fbar's values are read by index: a returned
    display of d items binds one name per item, ``fa_<k>`` or ``fb_<k>``,
    a constant item read as itself; any other value is bound whole, as a
    called member's is, and indexed.  The members run in the order of
    the calls: f, fbar (when J moved), omega, then g.

    The run is the generated float run of :mod:`~averbound.ode`
    (:func:`ode._float_run_source`), the whole step loop in one function,
    with the right-hand side written into each stage
    (:func:`ode._inline_stage`) and the stop predicate's test into each
    accepted node: the same operations on the same floats as a loop that
    calls ``rhs`` and ``stop``, so it takes the same steps bit for bit.
    ``rhs`` and ``stop`` are still called outside the loop, at each chunk's
    start (its slope and check), for the first-step probe and for the stop
    localisation.  All three read J(eps*t) inline, as ``j0, j1, ...``, from
    the interval of the averaged cubic they share in closure cells of
    ``make``: its ends ``t_lo``, ``t_hi``, its length ``width`` and its
    coefficient rows ``c0``..``c3``.  The run reads the cells into locals
    on entry and writes them back when it returns, so the three see one
    cursor history.  A query outside [t_lo, t_hi] takes the interval
    ``interval`` (the sampler's
    :meth:`~averbound.ode.CubicSampler.interval`) returns, which moves the
    sampler's cursor as its ``into`` would; inside, the cursor would not
    move.  So each j<k> is ``into``'s value bit for bit, node times
    included.  The query is clamped at ``tau_max``; J and fbar(J) are each
    kept with the unclamped slow time they were taken at, since the last
    two stages of a step and the stop check after it share one time.
    """
    ix = range(d)
    js = [f"j{k}" for k in ix]
    fbs = ([f"fb_{k}" for k in ix]
           if inline.Calls(inline.DIRECT, keys, d).by_items("fbar", d)
           else ["fb"])
    cells = ["t_lo", "t_hi", "width", "c0", "c1", "c2", "c3", *js, "tau_j"]

    def read_j(time):
        """Lines that bind ``tau`` and J at the fast time ``time``."""
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
        ]

    def actions(state, used):
        """Lines that bind the actions at the state components ``state``,
        as far as ``used`` names them."""
        comps = [f"j{k} + eps * {state[k]}" for k in ix]
        lines = [f"i{k} = {comps[k]}" for k in ix if f"i{k}" in used]
        if "actions" in used:
            lines.append("actions = " + ode._seq(
                f"i{k}" if f"i{k}" in used else comps[k] for k in ix))
        return lines

    on_actions = ([f"i{k}" for k in ix], "actions")

    def slope(time, state):
        """Lines that evaluate the right-hand side at ``time`` and
        ``state``, and the expressions of its d + 1 values."""
        theta = state[d]
        on_both = (on_actions, ((), theta))
        calls = inline.Calls(inline.DIRECT, keys, d)
        lines, fa = calls.value("f", on_both, "fa")
        fb_lines, fb = calls.value("fbar", ((js, ode._seq(js)),), "fb")
        lines += ["if tau != tau_fb:", *("    " + line for line in fb_lines),
                  "    tau_fb = tau"]
        om_lines, om = calls.value("omega", (on_actions,), "om")
        g_lines, gv = calls.value("g", on_both, "gv")
        return (read_j(time) + actions(state, calls.used) + lines + om_lines
                + g_lines,
                [*(f"{fa[k]} - {fb[k]}" for k in ix), f"{om} + eps * {gv}"])

    def domain(time, state):
        """Lines that evaluate in_domain at ``time`` and ``state``, and the
        expression of its value."""
        calls = inline.Calls(inline.DIRECT, keys, d)
        test, inside = calls.value("in_domain", (on_actions,), "inside")
        return [*read_j(time), *actions(state, calls.used), *test], inside

    ys = [f"y[{i}]" for i in range(d + 1)]
    lines, values = slope("t", ys)
    rhs = [f"nonlocal {', '.join(cells + fbs)}, tau_fb", *lines,
           f"return {ode._seq(values)}"]
    test, inside = domain("t", ys)
    stop = [f"nonlocal {', '.join(cells)}", *test, f"return not {inside}"]
    # The run's stop check at each accepted node, on its new state floats.
    test, inside = domain("t_new", [f"z{i}" for i in range(d + 1)])
    at_node = [*test, f"reason = not {inside}"]

    stage = ode._inline_stage(d + 1, slope)
    params = ["eps", "f_sys", "g_sys", "omega", "fbar", "in_domain",
              "interval", "tau_max", "rtol", "atol",
              *inline.outside(inline.DIRECT, keys, d)]
    written = [*cells, *fbs, "tau_fb", "calls"]
    run = ode._float_run_source(ode._STAGES, ode._E, d + 1, stage, at_node,
                                (*params, *written), written)
    return "\n".join(
        ["def make(" + ", ".join(params) + "):",
         # NaN ends take the first query to interval()
         "    t_lo = t_hi = width = tau_j = tau_fb = nan",
         f"    {' = '.join(['c0', 'c1', 'c2', 'c3', *fbs])} = None",
         f"    {' = '.join(js)} = 0.0",
         "    calls = 0",
         "    def rhs(t, y):"]
        + ["        " + line for line in rhs]
        + ["    def stop(t, y):"]
        + ["        " + line for line in stop]
        + [textwrap.indent(run, "    "),
           "    return rhs, stop, (run, lambda: calls)", ""])


@functools.lru_cache(maxsize=None)
def _compile_direct_rhs(d: int, keys: tuple):
    return ode._compile_factory(_direct_rhs_source(d, keys),
                                f"<direct rhs, d = {d}>")


def _evaluated(spec: SystemSpec, aux: AuxiliaryBundle) -> tuple:
    """The members the direct run evaluates, in the order of
    :data:`inline.DIRECT`."""
    return spec.f, aux.fbar, spec.omega, spec.g, spec.in_domain


def _direct_functions(spec: SystemSpec, aux: AuxiliaryBundle,
                      avg_traj: ode.Trajectory, rtol: float, atol: float):
    """The direct right-hand side, stop predicate and run on lists of
    Python floats, against the averaged trajectory ``avg_traj``: the three
    :func:`_compile_direct_rhs` generates for ``spec.d`` and the keys of
    the members (:func:`inline.members`), reading J from one fresh
    :class:`~averbound.ode.CubicSampler` of ``avg_traj``."""
    keys, arguments = inline.members(inline.DIRECT, _evaluated(spec, aux),
                                     spec.d)
    make = _compile_direct_rhs(spec.d, keys)
    return make(spec.epsilon, interval=ode.CubicSampler(avg_traj).interval,
                tau_max=avg_traj.t_final, rtol=rtol, atol=atol, **arguments)


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
