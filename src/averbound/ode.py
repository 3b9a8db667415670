"""Adaptive explicit Runge-Kutta 4(5) integrator with dense output.

Dormand-Prince coefficients with the FSAL property, proportional-integral
step-size control, and an optional stop predicate.  When the predicate
becomes true at an accepted step, the crossing time is localized by
bisection on the dense output and the trajectory is truncated there.

A run of :func:`integrate` is generated whole: the step attempts, the
checks of the step cap and of step underflow, the retry at half size, the
error norm, the stop check at each accepted node and the PI controller are
straight-line code that ``_run_source`` writes, with ``_seq`` and ``_dot``,
and ``_compile_factory`` compiles on first use per state size, as it does
every generated kernel.  That run, the float run, steps on Python floats;
it is the one kernel :func:`integrate` takes, at every state size.  Each
state is one list, which the stage reaching it hands the right-hand side
and the stop predicate then gets, the same object.  ``_array_kernel`` is
the same generated loop around a step summed with numpy rows; only the
slow solve of two or more actions asks for it, by name, to keep the last
bits of its ten-component state (ROADMAP items 2 and 5).

What each stage of the float run does with its state is a hook of its
generator, :func:`_float_run_source`, and so is the stop check at a node.
The default stage hook calls the right-hand side and the default stop check
calls the stop predicate; a caller may write its right-hand side into the
stages instead (:func:`_inline_stage`), and its stop test into the node,
and hand the run to :func:`_integrate`, as the direct run and the slow
solve at d = 1 do.  :func:`_integrate` sets a run
up, localises the stop it found, and builds the trajectory; it runs the
direct run's budget chunks, one run each, into one set of node buffers.
Each run counts its own stage evaluations, which ``StepStats.rhs_evals``
reports with each chunk's initial slope and the probe of the first step.

The integrator is deterministic: identical inputs produce bitwise-identical
trajectories.
"""
from __future__ import annotations

import functools
import math
import textwrap
from array import array
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = ["Status", "IvpProblem", "StepStats", "Trajectory", "integrate"]

DEFAULT_RTOL, DEFAULT_ATOL = 1e-9, 1e-12

# Dormand-Prince 5(4) tableau, stated once: (node, row of weights) for
# each stage after the first.  The last row holds the propagating weights;
# its stage at t + h is the FSAL derivative of the next step.
_STAGES = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (1.0, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
# Difference between the propagating and the embedded weights (k2 drops out).
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)

_SAFETY = 0.9
_BETA = 0.04                  # integral gain of the PI controller
_EXPO = 0.2 - 0.75 * _BETA    # proportional exponent
_FAC_MIN = 0.2                # largest allowed step shrink factor is 1/5
_FAC_MAX = 10.0               # largest allowed step growth factor
_HMIN_REL = 1e-14             # step underflow threshold, relative to the span
_MAX_STEPS = 10_000_000       # step attempts of one integrate call
# Bytes the node buffers of one _integrate call may hold, over all its
# chunks: 8 per time and per state and slope component, about 13 million
# nodes of a two-component state.
_NODE_BYTES_MAX = 1 << 29
_STOP_REL = 1e-10             # relative localization width for stop times
_STOP_BISECTIONS = 40
# Times per block in Trajectory.sample_many: bounds its (block, dim)
# temporaries whatever the batch size, e.g. every node of a fast-time run.
# The estimator's report grid (REPORT_GRID_POINTS, 2048 times) is one block.
_SAMPLE_BLOCK = 2048

_RHS_ERRORS = (ArithmeticError, ValueError)


class Status(str, Enum):
    COMPLETED = "completed"
    STOPPED = "stopped_by_predicate"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IvpProblem:
    """An explicit initial-value problem y' = rhs(t, y) on [t0, t_end]; the
    state size is ``y0.size``.

    ``rhs`` and the stop predicate of :func:`integrate` take the state as a
    list of Python floats, and ``rhs`` returns its ``y0.size`` floats as a
    new list or a 1-D array on every call.  :func:`integrate` converts an
    array result to a list of floats, so the steps are taken on lists either
    way.  Array code like ``2 * y`` repeats a list instead of
    doubling it; :func:`integrate` refuses the longer result at the first
    call.
    """

    rhs: Callable
    t0: float
    y0: np.ndarray
    t_end: float

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if y0.ndim != 1:
            raise ValueError(f"y0 must be one-dimensional, got shape {y0.shape}")
        if y0.size == 0:
            raise ValueError("y0 must have at least one component")
        object.__setattr__(self, "y0", y0)
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")


def _cubic_coefficients(h, y0, y1, f0, f1):
    """Coefficients (c0, c1, c2, c3) in the unit time s of a step of size h
    of the cubic Hermite interpolant with end values y0, y1 and slopes f0,
    f1: the one form of every dense output."""
    return (y0, h * f0, 3 * (y1 - y0) - h * (2 * f0 + f1),
            2 * (y0 - y1) + h * (f0 + f1))


def _cubic_value(c, s):
    """The cubic with the coefficients ``c`` at s, in Horner form."""
    return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]


class CubicSampler:
    """Stateful dense-output evaluator for monotone-ish query sequences.

    Precomputes the per-interval cubic coefficients once and walks a cursor
    between calls, so repeated nearby queries cost a few float operations.
    It is the one home of the per-interval coefficients and of the cursor
    rule: a query t stays on the cursor's interval i while
    ``times[i] <= t <= times[i+1]``.  The direct run's generated right-hand
    side reads its intervals through :meth:`interval` and evaluates the
    cubic inline; :meth:`into`, the same read plus the Horner loop, is the
    reference it equals bit for bit.
    """

    __slots__ = ("times", "_tlist", "_h", "_c0", "_c1", "_c2", "_c3",
                 "_idx", "_last")

    def __init__(self, traj: "Trajectory"):
        t, y, f = traj.times, traj.states, traj.derivs
        h = np.diff(t)
        self.times = t
        self._tlist = t.tolist()
        self._h = h.tolist()
        # plain-float coefficient rows: cheap per-component Horner evaluation
        self._c0, self._c1, self._c2, self._c3 = (
            c.tolist() for c in _cubic_coefficients(h[:, None], y[:-1], y[1:],
                                                    f[:-1], f[1:]))
        self._idx = 0
        self._last = len(t) - 2

    def interval(self, t: float) -> tuple:
        """The interval ``into`` reads at t, moving the cursor to it:
        ``(t_lo, t_hi, h, c0, c1, c2, c3)``, its ends, its length and its
        coefficient rows, with ``t_hi`` infinite on the last interval.  Until
        the cursor moves, ``into`` stays on it at every t_lo <= t <= t_hi."""
        times = self._tlist
        i = self._idx
        if t >= times[i]:
            last = self._last
            while i < last and t > times[i + 1]:
                i += 1
        else:
            while i > 0 and t < times[i]:
                i -= 1
        self._idx = i
        t_hi = times[i + 1] if i < self._last else math.inf
        return (times[i], t_hi, self._h[i],
                self._c0[i], self._c1[i], self._c2[i], self._c3[i])

    def into(self, t: float, out, count: int) -> None:
        """Write the first ``count`` interpolated components into ``out``, a
        list or an array, as Python floats."""
        t_lo, _, h, c0, c1, c2, c3 = self.interval(t)
        s = (t - t_lo) / h
        for k in range(count):
            out[k] = ((c3[k] * s + c2[k]) * s + c1[k]) * s + c0[k]


@dataclass(frozen=True)
class StepStats:
    """What one integration did.

    ``rejected`` counts every step attempt that was not accepted, the
    ``nan_retries`` among them included: attempts retried at half size
    after a NaN error, a non-finite state or a raising right-hand side.
    ``stop_calls`` counts the stop predicate's evaluations, those of the
    stop localisation included.  ``h_min``/``h_max`` are the smallest and
    largest accepted step sizes, None when no step was accepted.
    ``rhs_error`` is the last exception a retry or the first-step probe
    absorbed, ``"ZeroDivisionError: float division by zero"``, or None; a
    run that ends because its step attempts reached the budget of its node
    buffers (``_NODE_BYTES_MAX``) says so there.
    """

    accepted: int = 0
    rejected: int = 0
    nan_retries: int = 0
    rhs_evals: int = 0
    stop_calls: int = 0
    h_min: Optional[float] = None
    h_max: Optional[float] = None
    rhs_error: Optional[str] = None

    def __add__(self, other: "StepStats") -> "StepStats":
        """The totals of two runs, as of one run made of both."""
        hs = [h for h in (self.h_min, self.h_max, other.h_min, other.h_max)
              if h is not None]
        return StepStats(
            accepted=self.accepted + other.accepted,
            rejected=self.rejected + other.rejected,
            nan_retries=self.nan_retries + other.nan_retries,
            rhs_evals=self.rhs_evals + other.rhs_evals,
            stop_calls=self.stop_calls + other.stop_calls,
            h_min=min(hs) if hs else None,
            h_max=max(hs) if hs else None,
            rhs_error=(other.rhs_error if other.rhs_error is not None
                       else self.rhs_error),
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    """Accepted integration grid with node derivatives for dense output."""

    times: np.ndarray          # (n,), strictly increasing
    states: np.ndarray         # (n, dim)
    derivs: np.ndarray         # (n, dim), rhs at the nodes
    status: Status
    stop_time: Optional[float] = None
    # The stop predicate's value at stop_time; None unless the run stopped.
    stop_reason: object = None
    # Step counts of the run; None for a grid not made by integrate.
    stats: Optional[StepStats] = None

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    # Kept while perfbench/tracer.py patches it (ROADMAP item 3).
    def sample(self, t: float) -> np.ndarray:
        """Dense-output state at time t inside the covered span (see
        :meth:`sample_many`)."""
        return self.sample_many((t,))[0]

    def sample_many(self, ts) -> np.ndarray:
        """Dense-output states at the times ``ts``, one row per time.

        At a stored node, and at the end of the span, a row is exactly the
        stored state; between nodes it is the cursor sampler's value bit for
        bit.  Times up to 1e-12 (relative) outside the span are clamped onto
        it; farther ones raise ``ValueError``.
        """
        times, states, derivs = self.times, self.states, self.derivs
        ts = np.asarray(ts, dtype=float)
        t0, t1 = times[0], times[-1]
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
        outside = (ts < t0 - slack) | (ts > t1 + slack)
        if outside.any():
            t = ts[np.argmax(outside)]
            raise ValueError(f"sample time {t} outside trajectory span [{t0}, {t1}]")
        last = len(times) - 1
        out = np.empty((ts.size, states.shape[1]))
        for lo in range(0, ts.size, _SAMPLE_BLOCK):
            t = np.minimum(np.maximum(ts[lo:lo + _SAMPLE_BLOCK], t0), t1)
            idx = np.searchsorted(times, t, side="right") - 1
            out[lo:lo + t.size] = states[idx]
            inner = np.flatnonzero((idx < last) & (t != times[idx]))
            if inner.size:
                i = idx[inner]
                h = (times[i + 1] - times[i])[:, None]
                s = (t[inner, None] - times[i, None]) / h
                out[lo + inner] = _cubic_value(_cubic_coefficients(
                    h, states[i], states[i + 1], derivs[i], derivs[i + 1]), s)
        return out

    # Kept while perfbench/tracer.py patches it (ROADMAP item 3).
    def sampler(self) -> CubicSampler:
        """Cursor-based evaluator for one query at a time.

        Between nodes its ``into`` equals :meth:`sample_many` bit for bit;
        at a node it may differ in the last bit, where :meth:`sample_many`
        returns the stored state.  Batches go through :meth:`sample_many`.
        The direct run builds its own :class:`CubicSampler` and reads it
        inline, not through here.
        """
        return CubicSampler(self)


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    """The first step size, and the exception of its probe of ``rhs`` as
    ``rhs_error`` keeps it, or None; a raising or NaN probe leaves d1 alone."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    y1 = y0 + h0 * f0
    try:
        f1 = np.asarray(rhs(t0 + h0, y1.tolist()), dtype=float)
        d2, error = float(np.max(np.abs(f1 - f0) / scale)) / h0, None
    except _RHS_ERRORS as exc:
        d2, error = math.nan, f"{type(exc).__name__}: {exc}"
    dmax = d1 if math.isnan(d2) else max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, t_end - t0), error


def _array_step(rhs, size, rtol, atol):
    """The step of :func:`_float_kernel` summed by numpy, and its stage
    counter: ``step(t, y, f, h)`` returns ``(err, y_new, f_new)``, the
    error norm of the step from (t, y) with slope f (NaN when y_new is not
    finite), the new state as the very list the last stage handed ``rhs``,
    and its slope.

    A slope is read as the float step reads it: one shorter than the state
    raises ``IndexError``, and a longer one at the last stage is returned
    as it is, for the run to refuse.
    """
    kmat = np.empty((len(_STAGES) + 1, size))   # stage derivatives
    # Node, weights and kmat views per stage, made once per call: indexing
    # kmat inside the loop cost ~5% more per step on a two-component state.
    stages = [(c, np.array(row), kmat[:s], kmat[s])
              for s, (c, row) in enumerate(_STAGES, start=1)]
    error = np.array(_E)
    calls = 0

    def step(t, y, f, h):
        nonlocal calls
        y = np.array(y)
        kmat[0] = f
        for c, row, earlier, k in stages:
            z = np.dot(row * h, earlier)
            z += y
            ys = z.tolist()
            calls += 1
            out = rhs(t + c * h, ys)
            n = len(out)
            # numpy's broadcast would raise ValueError, which is retried
            if n < size:
                raise IndexError(f"rhs returned {n} values for a "
                                 f"state of {size}")
            k[...] = out if n == size else out[:size]
        scale = np.maximum(np.abs(z), np.abs(y)) * rtol + atol
        err = float((np.abs(np.dot(error * h, kmat)) / scale).max())
        if not np.isfinite(z).all():
            err = math.nan
        return err, ys, kmat[-1].tolist() if n == size else out
    return step, lambda: calls


@functools.lru_cache(maxsize=None)
def _compile_array_run(size):
    run = _run_source(size, [], [
        "err, ys, k = step(t, y, f, h)",
        "if err != err:",
        *("    " + line for line in _NAN_RETRY),
    ], ["y = ys", "f = k"], reads=("step",))
    return _compile_factory(
        "\n".join(["def make(step):", textwrap.indent(run, "    "),
                   "    return run", ""]),
        f"<ode array run, size {size}>")


def _array_kernel(rhs, size, rtol, atol):
    """The run of :func:`_float_kernel` with the numpy step of
    :func:`_array_step` as its step, and the stage counter, as
    :func:`_float_kernel` returns them: the loop is the one
    :func:`_run_source` writes for every kernel.

    It is the kernel of the slow solve at d >= 2 alone, which asks for it
    by name (``estimator._slow_functions``): its ten-component state at
    d = 2 keeps numpy's sums, whose last bits decide the exit code of
    euler-top runs next to the pole of the bound ODE.  It goes with ROADMAP
    items 2 and 5.
    """
    step, stage_calls = _array_step(rhs, size, rtol, atol)
    return _compile_array_run(size)(step), stage_calls


def _seq(names):
    """A list display of ``names``."""
    return "[" + ", ".join(names) + "]"


def _dot(pairs):
    """``0.0 + x * z + ...`` over ``pairs``: a sum from 0.0, left to right."""
    return "0.0" + "".join(f" + {x} * {z}" for x, z in pairs)


def _compile_factory(source, label, **names):
    """``make`` from ``source``, with globals ``inf``, ``nan``, ``Status``,
    ``RHS_ERRORS`` (``_RHS_ERRORS``) and ``names``."""
    namespace = {"inf": math.inf, "nan": math.nan, "Status": Status,
                 "RHS_ERRORS": _RHS_ERRORS, **names}
    exec(compile(source, label, "exec"), namespace)
    return namespace["make"]


def _inline_stage(size, evaluate):
    """The stage hook of a run with its right-hand side written into each
    stage, for states of ``size`` components (:func:`_float_run_source`).

    ``evaluate(time, state)`` returns the lines of one evaluation at the
    time expression ``time`` and the state floats named ``state``, and the
    expressions of its ``size`` values.  The hook binds each value to
    ``k<s>_<i>``, and at the last stage ``ys`` to the list of the stage
    state and ``k`` to the list of its slope.
    """
    zs = [f"z{i}" for i in range(size)]

    def stage(s, node, last):
        ks = [f"k{s}_{i}" for i in range(size)]
        lines, values = evaluate(f"(t + {node!r} * h)", zs)
        lines = lines + [f"{k} = {value}" for k, value in zip(ks, values)]
        if last:
            lines = [f"ys = {_seq(zs)}", *lines, f"k = {_seq(ks)}"]
        return lines
    return stage


def _rhs_stage(size):
    """The stage hook of a run on ``rhs`` for states of ``size``
    components: each stage hands ``rhs`` its state as the list ``ys`` and
    reads the slope list ``k`` by index, so a short list raises
    ``IndexError``.  The last stage's ``ys`` and ``k`` are the new state and
    its slope."""
    comps = range(size)

    def stage(s, node, last):
        return [f"ys = {_seq(f'z{i}' for i in comps)}",
                f"k = rhs(t + {node!r} * h, ys)",
                *(f"k{s}_{i} = k[{i}]" for i in comps)]
    return stage


# The retry of a step attempt at half size, after an exception of the
# right-hand side, a NaN error or a non-finite state: its error norm is NaN.
_NAN_RETRY = ["err = nan", "h *= 0.5", "nan_retries += 1",
              "just_rejected = True", "continue"]


def _run_source(size, entry, attempt, carry, stop=None, reads=(), cells=()):
    """Source of ``get``, ``put`` and ``run``, the adaptive loop of
    :func:`_integrate` for states of ``size`` components as straight-line
    code, to be nested in a function ``make`` that binds the names
    ``reads``; it is the one loop of every kernel.

    ``run(t, y, f, h, t_end, h_min, max_steps, times, states, derivs,
    stop)`` steps from t with the state list y, its slope list f and the
    step size h until t_end, a stop or a failure, appending each accepted
    node to the buffers ``times``, ``states`` and ``derivs``.  It returns
    ``(status, steps, nan_retries, stop_calls, h_lo, h_hi, rhs_error,
    reason, h, err)``: the :class:`Status`, the step attempts, the retries
    at half size, the stop calls at the nodes, the smallest and largest
    accepted step (inf and 0.0 when none was), the last exception a retry
    absorbed or None, the stop value at the last node, the next step size
    and the last attempt's error norm (NaN after a retry at half size, and
    when no step was attempted).

    On entry it reads the names ``reads`` of ``make`` into locals, through
    ``get``, and in a ``finally`` it writes the locals ``cells`` back to
    ``make``, through ``put``, so that functions of ``make`` called outside
    the loop see what the loop left there.  ``entry`` lines unpack y and f;
    ``attempt`` lines take one step attempt from (t, h) inside the retry
    handler, binding the error norm ``err``, the new state list ``ys`` and
    its slope list ``k``, or run the lines ``_NAN_RETRY``; ``carry`` lines
    take the accepted step's state and slope as the next step's.  At each
    accepted node the ``stop`` lines, which bind ``reason``, decide a stop;
    by default the node calls ``stop(t_new, ys)`` unless ``stop`` is None.
    The node's state is recorded after them, from ``ys`` as ``rhs`` and
    ``stop`` leave it.

    The controller is the PI controller of :func:`integrate` with ``min``
    and ``max`` written as conditional expressions that keep the builtins'
    rule, NaN included: ``min(a, b)`` is ``b if b < a else a`` and
    ``max(a, b)`` is ``b if b > a else a``.
    """
    def block(lines, depth):
        return ["    " * depth + line for line in lines]

    grow, shrink = 1 / _FAC_MAX, 1 / _FAC_MIN
    stopped = ["add_state(ys)", "if reason:", "    status = Status.STOPPED",
               "    break"]
    at_node = ["stop_calls += 1", *stop, *stopped] if stop is not None else [
        "if stop is not None:",
        "    stop_calls += 1",
        "    reason = stop(t_new, ys)",
        *block(stopped, 1),
        "else:",
        "    add_state(ys)"]
    loop = [
        "while t < t_end:",
        "    if steps >= max_steps or not h >= h_min:   # rejects NaN as well",
        "        status = Status.STEP_FAILURE",
        "        break",
        "    if t_end - t < h:",
        "        h = t_end - t",
        "    steps += 1",
        "    try:",
        *block(attempt, 2),
        "    except RHS_ERRORS as exc:",
        "        rhs_error = f'{type(exc).__name__}: {exc}'",
        *block(_NAN_RETRY, 2),
        "    if not err <= 1.0:",
        f"        fac = err ** {_EXPO!r} / {_SAFETY!r}",
        f"        h = h / (fac if fac < {shrink!r} else {shrink!r})",
        "        just_rejected = True",
        "        continue",
        f"    if len(k) != {size}:",
        "        raise ValueError("
        f"'rhs must return {size} values at every call')",
        "    t_new = t + h",
        "    add_time(t_new)",
        "    add_slope(k)",
        "    if h < h_lo:",
        "        h_lo = h",
        "    if h > h_hi:",
        "        h_hi = h",
        *block(at_node, 1),
        # PI controller (accepted step).
        f"    fac = (err ** {_EXPO!r} / fac_old ** {_BETA!r} if err > 0.0"
        f" else {grow!r}) / {_SAFETY!r}",
        f"    fac = fac if fac < {shrink!r} else {shrink!r}",
        f"    fac = fac if fac > {grow!r} else {grow!r}",
        "    if just_rejected:",
        "        fac = 1.0 if 1.0 > fac else fac   # no growth after a rejection",
        "        just_rejected = False",
        "    h = h / fac",
        "    fac_old = 0.0001 if 0.0001 > err else err",
        "    t = t_new",
        *block(carry, 1),
    ]
    body = [f"{_seq(reads)} = get()"] if reads else []
    body += entry + [
        "add_time, add_state, add_slope = "
        "times.append, states.extend, derivs.extend",
        "steps = nan_retries = stop_calls = 0",
        "fac_old = 0.0001",
        "just_rejected = False",
        "h_lo = inf",
        "h_hi = 0.0",
        "rhs_error = reason = None",
        "err = nan",
        "status = Status.COMPLETED",
    ]
    if cells:
        body += ["try:", *block(loop, 1), "finally:",
                 f"    put({_seq(cells)})"]
    else:
        body += loop
    body.append("return (status, steps, nan_retries, stop_calls, h_lo, h_hi,"
                " rhs_error, reason, h, err)")
    lines = ["def get():", f"    return {_seq(reads)}"]
    if cells:
        lines += ["def put(values):", f"    nonlocal {', '.join(cells)}",
                  f"    {_seq(cells)} = values"]
    lines += ["def run(t, y, f, h, t_end, h_min, max_steps, times, states,"
              " derivs, stop):", *block(body, 1)]
    return "\n".join(lines)


def _float_run_source(stages, error, size, stage=None, stop=None, reads=(),
                      cells=()):
    """Source of the run of :func:`_float_kernel` for states of ``size``
    components (:func:`_run_source`), whose step attempt is the
    Dormand-Prince step as straight-line code, for a tableau as
    ``_STAGES``, ``_E``.  The state and slope are carried from step to
    step as the floats ``y<i>`` and ``k0_<i>``, the state unpacked from
    the list ``ys`` when the run hands that list to code it does not write
    (``rhs`` or ``stop``), which may change it; the names ``reads`` must
    include ``rtol``, ``atol``, the stage counter ``calls``, which
    ``cells`` must include too, and the names ``stage`` and ``stop`` read.

    Each stage forms its nonzero weights times h once, as ``w<j> = a * h``,
    and each component as ``y<i> + (0.0 + w<j> * k<j>_<i> + ...)``: the
    nonzero weights in order, each float written by ``repr``.  The leading
    ``0.0 +`` keeps the sign of a zero sum.  Then it counts one call in
    ``calls`` and runs the lines ``stage(s, node, last)`` returns, which
    bind the slope ``k<s>_<i>`` of every component at t + node * h from the
    stage state ``z<i>``; after the last stage, ``ys`` and ``k`` must name
    the new state and its slope as lists.  The default hook,
    :func:`_rhs_stage`, calls ``rhs``; :func:`_inline_stage` writes an
    evaluation into the stage instead.  The error norm runs over the
    nonzero ``error`` weights the same way, and retries the attempt at
    half size at the first component whose error is NaN or whose new state
    is not finite, without forming the later components' errors.
    """
    handed_out = stage is None or stop is None    # ys reaches rhs or stop
    stage = _rhs_stage(size) if stage is None else stage
    comps = range(size)
    last = len(stages)

    def weighted(weights, i):
        return _dot((f"w{j}", f"k{j}_{i}") for j, _ in weights)

    attempt = []
    for s, (c, row) in enumerate(stages, start=1):
        weights = [(j, a) for j, a in enumerate(row) if a]
        attempt += [f"w{j} = {a!r} * h" for j, a in weights]
        attempt += [f"z{i} = y{i} + ({weighted(weights, i)})" for i in comps]
        attempt.append("calls += 1")
        attempt += stage(s, c, s == last)
    weights = [(j, a) for j, a in enumerate(error) if a]
    attempt += [f"w{j} = {a!r} * h" for j, a in weights]
    attempt.append("err = 0.0")
    for i in comps:
        attempt += [
            f"a = abs(z{i})",
            f"b = abs(y{i})",
            # max(a, b), NaN included: max keeps a unless b > a.
            f"e = abs({weighted(weights, i)})"
            " / ((b if b > a else a) * rtol + atol)",
            # e > err passes over a NaN, so a NaN error and a non-finite
            # y_new are tested for explicitly.
            "if e != e or not a < inf:",
            *("    " + line for line in _NAN_RETRY),
            "if e > err:",
            "    err = e",
        ]
    state = _seq(f"y{i}" for i in comps)
    carry = [f"{state} = ys"] if handed_out else [f"y{i} = z{i}" for i in comps]
    return _run_source(
        size, [f"{state} = y", f"{_seq(f'k0_{i}' for i in comps)} = f"], attempt,
        carry + [f"k0_{i} = k{last}_{i}" for i in comps], stop, reads, cells)


@functools.lru_cache(maxsize=None)
def _compile_float_run(stages, error, size):
    run = _float_run_source(stages, error, size,
                            reads=("rhs", "rtol", "atol", "calls"),
                            cells=("calls",))
    return _compile_factory(
        "\n".join(["def make(rhs, rtol, atol):", "    calls = 0",
                   textwrap.indent(run, "    "),
                   "    return run, lambda: calls", ""]),
        f"<ode float run, size {size}>")


def _float_kernel(rhs, size, rtol, atol):
    """The adaptive run of :func:`integrate` for states of ``size``
    components, its Dormand-Prince steps summed on Python floats: the
    kernel of :func:`integrate` at every state size.

    Returns ``(run, stage_calls)``: ``run`` as :func:`_run_source` writes
    it, and ``stage_calls()``, the number of calls of ``rhs`` the runs have
    made, a raising one included.  ``rhs`` takes and returns lists, and at
    each accepted node the stop predicate gets the very list that the last
    stage handed ``rhs``.  The run is straight-line code generated from the
    tableau (:func:`_float_run_source`), compiled once per state size:
    written out, a step costs less than half what loops over the weights
    did.
    """
    return _compile_float_run(_STAGES, _E, size)(rhs, rtol, atol)


def integrate(problem: IvpProblem, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL,
              stop: Optional[Callable[[float, list], object]] = None,
              first_step: Optional[float] = None) -> Trajectory:
    """Integrate ``problem`` adaptively from t0 to t_end.

    The per-step error estimate is kept below atol + rtol*|state| in each
    component.  If ``stop`` is given it is evaluated at every accepted node;
    the first node where it returns a truthy value ends the run, with the
    crossing localized on the dense output of the final step and the value
    there kept as ``stop_reason``.  ``stop`` takes the state as a list, as
    ``rhs`` does; an exception it raises, at any state, propagates.  Each
    node is the state the run goes on from: the list the last stage of the
    step handed ``rhs``, as ``rhs`` and ``stop`` leave it.  Failure
    modes: step-size underflow below 1e-14 times the span (a NaN step size,
    as a non-finite initial state or slope gives, counts as one),
    ``_MAX_STEPS`` step attempts, or as many attempts as the node
    buffers' ``_NODE_BYTES_MAX`` bytes hold nodes, which
    ``stats.rhs_error`` names.  Exceptions, a NaN error estimate in any
    component and a non-finite new state make the step retry at half size
    rather than abort, and one at the probe of the first step size leaves
    the estimate from the initial slope.  The result's ``stats`` counts the steps and the right-hand-side and stop
    calls, and keeps the last exception absorbed.
    """
    return _integrate(problem, rtol, atol, stop, first_step, None)


def _integrate(problem, rtol, atol, stop, first_step, kernel, chunks=1,
               out_of_time=None):
    """:func:`integrate`, run by ``kernel`` when it is given, in ``chunks``
    chunks of the span, into one set of node buffers.

    ``kernel`` is a run and its stage counter, as :func:`_float_kernel`
    returns them, for states of ``problem.y0.size`` components: a run that
    evaluates ``problem.rhs`` inline, bit for bit, in each stage, so that
    ``problem.rhs`` itself is called only at each chunk's start and for the
    probe of the first step size, or ``_array_kernel`` on ``problem.rhs``.
    Without one, the float run steps on ``problem.rhs``.

    A chunk from t ends at ``min(t + span / chunks, t_end)``; a tail
    shorter than half a chunk joins the last.  Each chunk starts as a run
    of its own from the node its predecessor ended on, with a fresh
    controller: it calls ``problem.rhs`` and ``stop`` there, and its
    underflow threshold and its ``_MAX_STEPS`` are its own.  The node
    buffers of all chunks together hold at most ``_NODE_BYTES_MAX`` bytes:
    a node of a state of n components takes 8 (1 + 2n) bytes, and each
    chunk's run may attempt no more steps than the rest of the cap holds
    nodes, nor more than ``_MAX_STEPS``.  So the step cap falls with the
    state's size: the first run of the 10-component slow state of d = 2
    may attempt about 3.2 million steps, that of the 5-component one of
    d = 1 about 6.1 million.  A rejected attempt spends the budget as an
    accepted one does, so a run that spends it all may end with room left
    in its buffers; it ends with ``step_failure``, and ``rhs_error`` names
    the budget and the cap.  A later chunk
    starts with the largest step among its predecessor's last six nodes at
    most.  ``out_of_time()``, when given, is asked after every chunk that
    completes, the last included; a true answer ends the run with
    ``step_failure``.  This function sets each chunk up, localises a stop
    its run found and builds one :class:`Trajectory`; the loop is the
    run's.  The counter may run on from earlier runs; the stats count only
    its calls in this one.
    """
    rhs = problem.rhs
    t, t_end = problem.t0, problem.t_end
    size = problem.y0.size
    chunk = (t_end - t) / chunks
    y = problem.y0.tolist()     # one list per state, for rhs and stop alike
    rhs_evals = stop_calls = steps = nan_retries = 0
    h_lo, h_hi = math.inf, 0.0
    rhs_error = stop_time = stop_reason = None
    warm = first_step
    # Accepted nodes, one flat buffer of doubles each: a row of Python
    # floats takes about five times the memory of its eight-byte values.
    times, states, derivs = array("d", (t,)), array("d", y), array("d")

    def counted_stop(t, y):     # the calls of the stop localisation
        nonlocal stop_calls
        stop_calls += 1
        return stop(t, y)

    while t < t_end:
        t_next = min(t + chunk, t_end)
        if t_end - t_next < 0.5 * chunk:
            t_next = t_end
        f_raw = rhs(t, y)
        rhs_evals += 1
        f0 = np.asarray(f_raw, dtype=float)
        if f0.shape != problem.y0.shape:
            raise ValueError(
                f"rhs must return shape {problem.y0.shape}, got {f0.shape}")
        if stop is not None:
            stop_calls += 1
            if stop(t, y):
                raise ValueError(
                    "stop predicate already true at the initial state")
        span = t_next - t
        if warm is not None and warm > 0.0:
            h = min(warm, span)
        else:
            rhs_evals += 1
            # from the chunk's start as recorded, whatever rhs did to y
            h, error = _initial_step(rhs, t, np.asarray(states[-size:]), f0,
                                     t_next, rtol, atol)
            if error is not None:
                rhs_error = error
        f = f0.tolist()
        if not derivs:              # the first chunk, whose slope opens it
            if kernel is None:
                # An rhs that does not return a list has each result
                # converted, so the float run does not step on numpy
                # scalars, which warn on overflow where Python floats do not.
                step_rhs = rhs if isinstance(f_raw, list) else (
                    lambda t, y: np.asarray(rhs(t, y), dtype=float).tolist())
                kernel = _float_kernel(step_rhs, size, rtol, atol)
            run, stage_calls = kernel
            derivs.extend(f)
        first = len(times)          # the chunk's first new node
        # Each accepted attempt appends one node, so an attempt budget of
        # the nodes the buffers have room for keeps them within the cap.
        room = (_NODE_BYTES_MAX - 8 * (len(times) + len(states) + len(derivs))
                ) // (8 * (1 + 2 * size))
        max_steps = min(_MAX_STEPS, max(room, 0))
        calls_before = stage_calls()
        status, attempts, retries, node_stops, lo, hi, error, reason, *_ = run(
            t, y, f, h, t_next, _HMIN_REL * span, max_steps, times, states,
            derivs, stop)
        rhs_evals += stage_calls() - calls_before
        steps += attempts
        nan_retries += retries
        stop_calls += node_stops
        h_lo, h_hi = min(h_lo, lo), max(h_hi, hi)
        if error is not None:
            rhs_error = error
        if (status is Status.STEP_FAILURE
                and attempts == max_steps < _MAX_STEPS):
            rhs_error = ("step attempts reached the node budget of "
                         f"ode._NODE_BYTES_MAX = {_NODE_BYTES_MAX} bytes")
        if status is Status.STOPPED:
            # The last accepted step, from the last two rows of the buffers;
            # the chunk's first starts from the slope the chunk started on.
            y_prev, f_prev = (np.asarray(buf[-2 * size:-size])
                              for buf in (states, derivs))
            stop_time, y_stop, f_stop, stop_reason = _localize_stop(
                counted_stop, reason, times[-2], times[-1], y_prev,
                np.asarray(states[-size:]),
                f0 if len(times) == first + 1 else f_prev,
                np.asarray(derivs[-size:]))
            times[-1] = stop_time
            states[-size:] = array("d", y_stop)
            derivs[-size:] = array("d", f_stop)
        if status is not Status.COMPLETED:
            break
        if out_of_time is not None and out_of_time():
            status = Status.STEP_FAILURE
            break
        # its last step is clipped to the chunk's end; take the recent largest
        nodes = times[max(first - 1, len(times) - 6):]
        warm = max(b - a for a, b in zip(nodes, nodes[1:]))
        t = times[-1]
        y = states[-size:].tolist()

    accepted = len(times) - 1
    # A copy each, not a view: a view would keep the buffer's spare
    # capacity alive with the trajectory.
    return Trajectory(
        times=np.frombuffer(times).copy(),
        states=np.frombuffer(states).reshape(-1, size).copy(),
        derivs=np.frombuffer(derivs).reshape(-1, size).copy(),
        status=status,
        stop_time=stop_time,
        stop_reason=stop_reason,
        stats=StepStats(accepted=accepted, rejected=steps - accepted,
                        nan_retries=nan_retries, rhs_evals=rhs_evals,
                        stop_calls=stop_calls,
                        h_min=h_lo if accepted else None,
                        h_max=h_hi if accepted else None,
                        rhs_error=rhs_error),
    )


def _localize_stop(stop, reason, t0, t1, y0, y1, f0, f1):
    """Bisect the final step's dense output for the earliest stop time.

    ``reason`` is the predicate's value at t1; the one at the stop time is
    returned with that time and the state and slope there."""
    h = t1 - t0
    c = _cubic_coefficients(h, y0, y1, f0, f1)
    a, b = t0, t1
    for _ in range(_STOP_BISECTIONS):
        if (b - a) <= _STOP_REL * max(1.0, abs(b)):
            break
        mid = 0.5 * (a + b)
        mid_reason = stop(mid, _cubic_value(c, (mid - t0) / h).tolist())
        if mid_reason:
            b, reason = mid, mid_reason
        else:
            a = mid
    if b == t1:
        return b, y1, f1, reason
    s = (b - t0) / h
    return b, _cubic_value(c, s), (c[1] + s * (2 * c[2] + 3 * s * c[3])) / h, reason
