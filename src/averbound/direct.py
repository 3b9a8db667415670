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

Each of ``f``, ``fbar``, ``omega``, ``g`` and ``in_domain`` that is a plain
``def`` of assignments and one ``return`` is written into the three too
(:func:`_inline_form`): its own expressions, read from its source, on the
same floats in the same order, so the run is bit for bit the one that
calls it.  Any other member, a lambda or a wrapper among them, is called
and handed the actions as a list.  This is the expensive comparison run
used to validate the certified bound; it honours a wall-clock budget and
flags runs cut short by it.
"""
from __future__ import annotations

import ast
import copy
import functools
import inspect
import textwrap
import time
import types
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

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


# The prefix of the names each member's written-in body binds and reads,
# in the order the right-hand side evaluates the members (f, fbar, omega,
# g) and then in_domain; no run name starts with "_", and no prefix is
# another's start.
_PREFIXES = ("_f_", "_fb_", "_om_", "_g_", "_dom_")
# Expressions with a scope of their own, or that suspend or bind a name:
# a body with one is called, not written in.
_OWN_SCOPE = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp, ast.Yield, ast.YieldFrom, ast.Await,
              ast.NamedExpr)
# Names that read or run code in the caller's frame.
_FRAME_NAMES = frozenset({"locals", "vars", "dir", "eval", "exec", "globals",
                          "super", "__class__"})


class _Body(NamedTuple):
    """A function as the direct run writes it in: its parameters, its
    assignments ``(targets, value)`` in order, its return value and the
    names it reads from its closure, globals or built-ins."""

    params: Tuple[str, ...]
    assigns: Tuple[Tuple[Tuple[str, ...], ast.expr], ...]
    value: ast.expr
    free: Tuple[str, ...]


@functools.lru_cache(maxsize=None)
def _inline_form(code, source: str) -> Optional[_Body]:
    """The body of the function of ``code`` with the source ``source``
    when the direct run can write it in, else None.

    That is an undecorated ``def`` with positional parameters and no
    defaults whose body is assignments to plain names, each read only after
    it is bound, and then one ``return``, with no lambda, comprehension,
    ``yield``, ``await``, ``:=`` or frame-reading built-in in it.
    Compiled where its closure names are bound, ``source`` must give
    ``code``'s constants, names and variables, so a file edited since the
    import is seldom read for the code that runs.  (Its bytecode is not
    compared: a method call on a name the module imports compiles
    differently outside that module.)
    """
    source = textwrap.dedent(source)
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    fdef = tree.body[0] if len(tree.body) == 1 else None
    if (not isinstance(fdef, ast.FunctionDef) or fdef.decorator_list
            or fdef.name != code.co_name):
        return None
    args = fdef.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.defaults:
        return None
    params = tuple(a.arg for a in args.posonlyargs + args.args)
    body = fdef.body
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        body = body[1:]                                   # the docstring
    if (not body or not isinstance(body[-1], ast.Return)
            or body[-1].value is None):
        return None
    assigns, result = body[:-1], body[-1].value
    if not all(isinstance(s, ast.Assign)
               and all(isinstance(t, ast.Name) for t in s.targets)
               for s in assigns):
        return None
    local = {t.id for s in assigns for t in s.targets}
    if local & set(params):
        return None
    bound, free = set(), set()
    for value, targets in [*((s.value, s.targets) for s in assigns),
                           (result, [])]:
        for node in ast.walk(value):
            if isinstance(node, _OWN_SCOPE):
                return None
            if isinstance(node, ast.Name):
                if node.id in local and node.id not in bound:
                    return None
                if node.id not in local and node.id not in params:
                    free.add(node.id)
        bound.update(t.id for t in targets)
    if free & _FRAME_NAMES:
        return None
    outer = ["def _outer():"]
    if code.co_freevars:
        outer.append(f"    {' = '.join(code.co_freevars)} = None")
    outer.append(textwrap.indent(source, "    "))
    [own] = (c for c in compile("\n".join(outer), code.co_filename, "exec",
                                dont_inherit=True).co_consts
             if isinstance(c, types.CodeType))
    [inner] = (c for c in own.co_consts if isinstance(c, types.CodeType))
    if any(getattr(inner, k) != getattr(code, k)
           for k in ("co_consts", "co_names", "co_varnames", "co_freevars")):
        return None
    return _Body(params, tuple((tuple(t.id for t in s.targets), s.value)
                               for s in assigns),
                 result, tuple(sorted(free)))


# The source of each member's code object that _written_in has read, or
# None where it has none.
_SOURCES: dict = {}


def _source(fn) -> Optional[str]:
    """The source of the plain function ``fn``, read once per code object,
    or None when it has none.  A module file edited after the import is not
    read again for code already seen."""
    code = fn.__code__
    try:
        return _SOURCES[code]
    except KeyError:
        pass
    try:
        # on the function, which names its module: on its code, inspect
        # looks the module up among all that are loaded
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = None
    _SOURCES[code] = source
    return source


def _written_in(fn, nargs: int):
    """``fn``'s code and source, and the values of the names its body
    reads from its closure, globals or built-ins, when the direct run
    writes ``fn`` in for a call with ``nargs`` arguments
    (:func:`_inline_form`); None when it calls ``fn``.  A lambda, a
    ``functools.wraps`` wrapper, any other callable that is not a plain
    function, and a function whose outside names are not all bound are
    called."""
    if type(fn) is not types.FunctionType or hasattr(fn, "__wrapped__"):
        return None
    source = _source(fn)
    if source is None:
        return None
    code = fn.__code__
    body = _inline_form(code, source)
    if body is None or len(body.params) != nargs:
        return None
    cells = dict(zip(code.co_freevars, fn.__closure__ or ()))
    values = {}
    for name in body.free:
        if name in cells:
            try:
                values[name] = cells[name].cell_contents
            except ValueError:                            # an empty cell
                return None
        elif name in fn.__globals__:
            values[name] = fn.__globals__[name]
        elif name in fn.__builtins__:
            values[name] = fn.__builtins__[name]
        else:
            return None
    return (code, source), values


class _Bind(ast.NodeTransformer):
    """One call of a written-in body: a parameter read as ``p[k]`` becomes
    the k-th of its component names, any other read of it the whole
    argument, and every other name takes the member's prefix.  ``used``
    collects the component and whole-argument names written."""

    def __init__(self, params, args, prefix, used):
        # parameter -> (components, whole)
        self.args = dict(zip(params, args))
        self.prefix = prefix
        self.used = used

    def visit_Subscript(self, node):
        name, index = node.value, node.slice
        if (isinstance(name, ast.Name) and name.id in self.args
                and isinstance(index, ast.Constant) and type(index.value) is int
                and 0 <= index.value < len(self.args[name.id][0])):
            comp = self.args[name.id][0][index.value]
            self.used.add(comp)
            return ast.Name(comp, ast.Load())
        return self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in self.args:
            whole = self.args[node.id][1]
            self.used.add(whole)
            return ast.parse(whole, mode="eval").body
        return ast.Name(self.prefix + node.id, node.ctx)


def _write_in(body: _Body, prefix: str, args, used: set):
    """The lines of ``body``'s assignments for one call with ``args``, one
    ``(components, whole)`` pair per parameter (:class:`_Bind`), and the
    function that writes any other node of ``body`` for that call."""
    bind = _Bind(body.params, args, prefix, used)

    def write(node):
        return ast.unparse(bind.visit(copy.deepcopy(node)))
    return ([" = ".join([*(prefix + t for t in targets), write(value)])
             for targets, value in body.assigns], write)


def _items(value, d: int):
    """The d items of ``value`` when it is a list or tuple display of d
    items, none of them starred, else None."""
    if (isinstance(value, (ast.List, ast.Tuple)) and len(value.elts) == d
            and not any(isinstance(e, ast.Starred) for e in value.elts)):
        return value.elts
    return None


def _direct_rhs_source(d: int, members: tuple) -> str:
    """Source of ``make(eps, f_sys, g_sys, omega, fbar, in_domain, interval,
    tau_max, rtol, atol, **outside)``, which returns the direct right-hand
    side, stop predicate and adaptive run for d actions as straight-line
    code: ``rhs, stop, (run, stage_calls)``, the run and its stage counter
    as :func:`ode._integrate` takes them.

    ``members`` holds, for f, fbar, omega, g and in_domain in that order,
    the code and source of a member written into the three, or None for a
    member they call (:func:`_written_in`).  A written-in member's names
    take its prefix (``_PREFIXES``), and those it reads from outside are
    arguments ``outside`` of ``make``, so the source depends on the code
    alone.  Its action parameter read as ``i[k]`` becomes ``i<k>``, the
    action ``j<k> + eps * z<k>`` bound once per evaluation, and any other
    read of it the list ``actions`` the called members get; fbar's reads
    ``j<k>``.  A return value that is a display of d items (f, fbar) binds
    one name per item, ``fa<k>`` or ``fb<k>``; any other is bound whole,
    as a called member's is, and indexed.  The members run in the order of
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
    # (body or None, prefix) of f, fbar, omega, g and in_domain
    f, fbar, omega, g, dom = (
        (None if member is None else _inline_form(*member), prefix)
        for member, prefix in zip(members, _PREFIXES))
    fb_items = fbar[0] is not None and _items(fbar[0].value, d) is not None
    fbs = [f"fb{k}" for k in ix] if fb_items else ["fb"]
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

    def value(member, args, call, used, name, split=False):
        """Lines that bind a member's value to ``name``, written in with
        ``args`` or called as ``call``, and the expressions that read its d
        values; with ``split``, a written-in display of d items binds one
        name per item, ``name<k>``."""
        body, prefix = member
        if body is None:
            used.add("actions")
            lines = [f"{name} = {call}"]
        else:
            lines, write = _write_in(body, prefix, args, used)
            items = _items(body.value, d) if split else None
            if items is not None:
                return (lines + [f"{name}{k} = {write(v)}"
                                 for k, v in enumerate(items)],
                        [f"{name}{k}" for k in ix])
            lines.append(f"{name} = {write(body.value)}")
        return lines, [f"{name}[{k}]" for k in ix]

    on_actions = ([f"i{k}" for k in ix], "actions")

    def slope(time, state):
        """Lines that evaluate the right-hand side at ``time`` and
        ``state``, and the expressions of its d + 1 values."""
        theta = state[d]
        on_both = (on_actions, ((), theta))
        used = set()
        lines, fa = value(f, on_both, f"f_sys(actions, {theta})", used,
                          "fa", split=True)
        fb_lines, fb = value(fbar, ((js, ode._seq(js)),),
                             f"fbar({ode._seq(js)})", set(), "fb", split=True)
        lines += ["if tau != tau_fb:", *("    " + line for line in fb_lines),
                  "    tau_fb = tau"]
        lines += value(omega, (on_actions,), "omega(actions)", used, "om")[0]
        lines += value(g, on_both, f"g_sys(actions, {theta})", used, "gv")[0]
        return (read_j(time) + actions(state, used) + lines,
                [*(f"{fa[k]} - {fb[k]}" for k in ix), "om + eps * gv"])

    ys = [f"y[{i}]" for i in range(d + 1)]
    lines, values = slope("t", ys)
    rhs = [f"nonlocal {', '.join(cells + fbs)}, tau_fb", *lines,
           f"return {ode._seq(values)}"]
    used = set()
    test = value(dom, (on_actions,), "in_domain(actions)", used, "inside")[0]
    stop = [f"nonlocal {', '.join(cells)}", *read_j("t"),
            *actions(ys, used), *test, "return not inside"]

    # The run's stop check at each accepted node, on its new state floats.
    zs = [f"z{i}" for i in range(d + 1)]
    used = set()
    test = value(dom, (on_actions,), "in_domain(actions)", used, "inside")[0]
    at_node = [*read_j("t_new"), *actions(zs, used), *test,
               "reason = not inside"]

    stage = ode._inline_stage(d + 1,
                              lambda time, state, last: slope(time, state))
    outside = [prefix + name for body, prefix in (f, fbar, omega, g, dom)
               if body is not None for name in body.free]
    params = ["eps", "f_sys", "g_sys", "omega", "fbar", "in_domain",
              "interval", "tau_max", "rtol", "atol", *outside]
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
def _compile_direct_rhs(d: int, members: tuple):
    return ode._compile_factory(_direct_rhs_source(d, members),
                                f"<direct rhs, d = {d}>")


def _direct_functions(spec: SystemSpec, aux: AuxiliaryBundle,
                      avg_traj: ode.Trajectory, rtol: float, atol: float):
    """The direct right-hand side, stop predicate and run on lists of
    Python floats, against the averaged trajectory ``avg_traj``: the three
    :func:`_compile_direct_rhs` generates for ``spec.d`` and the members
    it writes in, reading J from one fresh
    :class:`~averbound.ode.CubicSampler` of ``avg_traj``."""
    members = (spec.f, aux.fbar, spec.omega, spec.g, spec.in_domain)
    written = [_written_in(fn, nargs)
               for fn, nargs in zip(members, (2, 1, 1, 2, 1))]
    make = _compile_direct_rhs(spec.d, tuple(w and w[0] for w in written))
    outside = {prefix + name: value
               for w, prefix in zip(written, _PREFIXES) if w
               for name, value in w[1].items()}
    return make(spec.epsilon, spec.f, spec.g, spec.omega, aux.fbar,
                spec.in_domain, ode.CubicSampler(avg_traj).interval,
                avg_traj.t_final, rtol, atol, **outside)


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
