"""Adaptive explicit Runge-Kutta 4(5) integrator with dense output.

Dormand-Prince coefficients with the FSAL property, proportional-integral
step-size control, and an optional stop predicate.  When the predicate
becomes true at an accepted step, the crossing time is localized by
bisection on the dense output and the trajectory is truncated there.

One step is taken by a step kernel chosen by the state size: states of at
most ``_FLOAT_KERNEL_MAX_DIM`` components are stepped on lists of Python
floats, larger ones on numpy arrays.  Both read the one tableau and serve
the one step-size controller.  The right-hand side and stop predicate take
ndarrays unless the problem declares ``lists``; either way they are
adapted to the kernel's state type at the edge of :func:`integrate`.

The integrator is deterministic: identical inputs produce bitwise-identical
trajectories.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = ["Status", "IvpProblem", "StepStats", "Trajectory", "integrate"]

DEFAULT_RTOL, DEFAULT_ATOL = 1e-9, 1e-12

# Dormand-Prince 5(4) tableau: (node, row of weights) for each stage after
# the first.  The last row holds the propagating weights; its stage at t + h
# is the FSAL derivative of the next step.
_STAGES = (
    (1 / 5, np.array([1 / 5])),
    (3 / 10, np.array([3 / 40, 9 / 40])),
    (4 / 5, np.array([44 / 45, -56 / 15, 32 / 9])),
    (8 / 9, np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729])),
    (1.0, np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                    -5103 / 18656])),
    (1.0, np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                    11 / 84])),
)
# Difference between the propagating and the embedded weights (k2 drops out).
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# The same weights as (stage index, weight) pairs of Python floats, zero
# weights dropped, for the float kernel.
_FLOAT_STAGES = tuple((c, tuple((j, a) for j, a in enumerate(row.tolist()) if a))
                      for c, row in _STAGES)
_FLOAT_E = tuple((j, a) for j, a in enumerate(_E.tolist()) if a)
# Largest state stepped on Python floats.  For y' = -y one step took, in us,
# on the float kernel with a list rhs / with an ndarray rhs / on the array
# kernel: 14 / 23 / 28 at two components, 17 / 32 / 30 at four, 23 / 28 /
# 36 at five and 35 / 38 / 35 at ten (best of 21 interleaved runs, 2-vCPU
# Xeon, Python 3.11, numpy 2.4).  A list rhs keeps the float kernel ahead
# past four, but the limit stays: a larger one would move the d = 1 slow
# state (five components, ndarray rhs) onto the float kernel and change
# the estimator's last bits.
_FLOAT_KERNEL_MAX_DIM = 4

_SAFETY = 0.9
_BETA = 0.04                  # integral gain of the PI controller
_EXPO = 0.2 - 0.75 * _BETA    # proportional exponent
_FAC_MIN = 0.2                # largest allowed step shrink factor is 1/5
_FAC_MAX = 10.0               # largest allowed step growth factor
_HMIN_REL = 1e-14             # step underflow threshold, relative to the span
_STOP_REL = 1e-10             # relative localization width for stop times
_STOP_BISECTIONS = 40
# Times per block in Trajectory.sample_many: bounds its (block, dim)
# temporaries whatever the batch size, e.g. every node of a fast-time run.
_SAMPLE_BLOCK = 256

_RHS_ERRORS = (ArithmeticError, ValueError)


class Status(str, Enum):
    COMPLETED = "completed"
    STOPPED = "stopped_by_predicate"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IvpProblem:
    """An explicit initial-value problem y' = rhs(t, y) on [t0, t_end]; the
    state size is ``y0.size``.

    ``rhs`` and the stop predicate of :func:`integrate` take the state as an
    ndarray and ``rhs`` returns one.  With ``lists`` set they take it as a
    list of Python floats instead, and ``rhs`` returns a new list of floats
    on every call.  Small states are stepped on such lists, so a list rhs
    saves an array round trip per stage.  The flag is explicit because
    ndarray code like ``2 * y`` runs on a list too, with another meaning.
    """

    rhs: Callable
    t0: float
    y0: np.ndarray
    t_end: float
    lists: bool = False

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if y0.ndim != 1:
            raise ValueError(f"y0 must be one-dimensional, got shape {y0.shape}")
        object.__setattr__(self, "y0", y0)
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")


def _hermite(t, t0, t1, y0, y1, f0, f1):
    """Cubic Hermite interpolant on [t0, t1] with node values and slopes."""
    h = t1 - t0
    x = (t - t0) / h
    x2 = x * x
    x3 = x2 * x
    return ((2 * x3 - 3 * x2 + 1) * y0 + (x3 - 2 * x2 + x) * h * f0
            + (-2 * x3 + 3 * x2) * y1 + (x3 - x2) * h * f1)


def _hermite_slope(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    x = (t - t0) / h
    return ((6 * x * x - 6 * x) * (y0 - y1) / h + (3 * x * x - 4 * x + 1) * f0
            + (3 * x * x - 2 * x) * f1)


class CubicSampler:
    """Stateful dense-output evaluator for monotone-ish query sequences.

    Precomputes the per-interval cubic coefficients once and walks a cursor
    between calls, so repeated nearby queries cost a few array operations.
    """

    __slots__ = ("times", "_tlist", "_h", "_c0", "_c1", "_c2", "_c3",
                 "_idx", "_last", "_dim")

    def __init__(self, traj: "Trajectory"):
        t = traj.times
        y = traj.states
        f = traj.derivs
        h = np.diff(t)[:, None]
        y0, y1 = y[:-1], y[1:]
        f0, f1 = f[:-1], f[1:]
        self.times = t
        self._tlist = t.tolist()
        self._h = (h[:, 0]).tolist()
        # plain-float coefficient rows: cheap per-component Horner evaluation
        self._c0 = y0.tolist()
        self._c1 = (h * f0).tolist()
        self._c2 = (3 * (y1 - y0) - h * (2 * f0 + f1)).tolist()
        self._c3 = (2 * (y0 - y1) + h * (f0 + f1)).tolist()
        self._idx = 0
        self._last = len(t) - 2
        self._dim = y.shape[1]

    def _locate(self, t: float) -> int:
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
        return i

    def __call__(self, t: float) -> np.ndarray:
        out = np.empty(self._dim)
        self.into(t, out, self._dim)
        return out

    def value1(self, t: float) -> float:
        """First state component as a plain float."""
        i = self._locate(t)
        s = (t - self._tlist[i]) / self._h[i]
        return (((self._c3[i][0] * s + self._c2[i][0]) * s
                 + self._c1[i][0]) * s + self._c0[i][0])

    def into(self, t: float, out, count: int) -> None:
        """Write the first ``count`` interpolated components into ``out``, a
        list or an array, as Python floats."""
        i = self._locate(t)
        s = (t - self._tlist[i]) / self._h[i]
        c0, c1, c2, c3 = self._c0[i], self._c1[i], self._c2[i], self._c3[i]
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
    ``rhs_error`` is the last exception a step retry absorbed, as
    ``"ZeroDivisionError: float division by zero"``, None when none did.
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

    def sample(self, t: float) -> np.ndarray:
        """Dense-output state at time t inside the covered span (see
        :meth:`sample_many`)."""
        return self.sample_many((t,))[0]

    def sample_many(self, ts) -> np.ndarray:
        """Dense-output states at the times ``ts``, one row per time.

        At a stored node, and at the end of the span, a row is exactly the
        stored state.  Times up to 1e-12 (relative) outside the span are
        clamped onto it; farther ones raise ``ValueError``.
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
                out[lo + inner] = _hermite(
                    t[inner, None], times[i, None], times[i + 1, None],
                    states[i], states[i + 1], derivs[i], derivs[i + 1])
        return out

    def sampler(self) -> CubicSampler:
        """Cursor-based evaluator for one query at a time, for the direct
        right-hand side only.

        A query near the previous one costs a few float operations, far less
        than a one-point :meth:`sample`.  Its Horner form rounds differently
        from :meth:`sample_many`, and the direct run's results depend on it
        bit for bit; batches of times go through :meth:`sample_many`.
        """
        return CubicSampler(self)


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    y1 = y0 + h0 * f0
    f1 = np.asarray(rhs(t0 + h0, y1), dtype=float)
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, t_end - t0)


def _array_kernel(rhs, size, rtol, atol):
    """One Dormand-Prince step on numpy arrays, for states of any size.

    ``step(t, y, f, h)`` returns ``(err, y_new, f_new)``: the error norm of
    the step from (t, y) with slope f, the state at t + h and the slope
    there.  ``err`` is NaN when the error of any component is NaN or
    ``y_new`` is not finite.
    """
    kmat = np.empty((len(_STAGES) + 1, size))   # stage derivatives
    # Node, weights and kmat views per stage, made once per call: indexing
    # kmat inside the loop cost ~5% more per step on a two-component state.
    stages = [(c, row, kmat[:s], kmat[s])
              for s, (c, row) in enumerate(_STAGES, start=1)]

    def step(t, y, f, h):
        kmat[0] = f
        for c, row, earlier, k in stages:
            y_new = np.dot(row * h, earlier)
            y_new += y
            k[...] = rhs(t + c * h, y_new)
        scale = np.maximum(np.abs(y_new), np.abs(y)) * rtol + atol
        err = float((np.abs(np.dot(_E * h, kmat)) / scale).max())
        if not np.isfinite(y_new).all():
            err = math.nan
        return err, y_new, kmat[-1].copy()
    return step


def _float_kernel(rhs, size, rtol, atol):
    """The step of :func:`_array_kernel` on lists of Python floats, for
    small states.

    ``y``, ``f`` and the returned ``y_new``/``f_new`` are lists, and ``rhs``
    takes and returns lists.  Each weighted sum runs over the nonzero
    weights of ``_FLOAT_STAGES`` or ``_FLOAT_E`` in order, one component at
    a time, with the products of weight and step size formed once per step.
    The two sum loops are written out in place: a shared helper made a
    two-component step 13% slower.
    """
    def step(t, y, f, h):
        ks = [f]
        for c, weights in _FLOAT_STAGES:
            terms = [(a * h, ks[j]) for j, a in weights]
            ys = []
            i = 0
            for b in y:
                acc = 0.0
                for w, k in terms:
                    acc += w * k[i]
                ys.append(b + acc)
                i += 1
            ks.append(rhs(t + c * h, ys))
        terms = [(a * h, ks[j]) for j, a in _FLOAT_E]
        err = 0.0
        i = 0
        for yn, b in zip(ys, y):
            acc = 0.0
            for w, k in terms:
                acc += w * k[i]
            i += 1
            e = abs(acc) / (max(abs(yn), abs(b)) * rtol + atol)
            # Python's max drops a NaN met after a number, so a NaN error
            # and a non-finite y_new are tested for explicitly.
            if e != e or not abs(yn) < math.inf:
                err = math.nan
                break
            if e > err:
                err = e
        return err, ys, ks[-1]
    return step


def integrate(problem: IvpProblem, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL,
              stop: Optional[Callable[[float, np.ndarray], object]] = None,
              max_steps: int = 10_000_000,
              first_step: Optional[float] = None) -> Trajectory:
    """Integrate ``problem`` adaptively from t0 to t_end.

    The per-step error estimate is kept below atol + rtol*|state| in each
    component.  If ``stop`` is given it is evaluated at every accepted node;
    the first node where it returns a truthy value ends the run, with the
    crossing localized on the dense output of the final step and the value
    there kept as ``stop_reason``.  ``stop`` takes the state in the form
    the problem's ``rhs`` does.  A ``stop`` that raises ``ArithmeticError``
    or ``ValueError`` counts as returning True, except at the initial state,
    where its exception propagates.  Failure modes: step-size underflow below
    1e-14 times the span (a NaN step size, as a non-finite initial state or
    slope gives, counts as one), or ``max_steps`` step attempts.  Exceptions,
    a NaN error estimate in any component and a non-finite new state make
    the step retry at half size rather than abort.  The result's ``stats``
    counts the steps and the right-hand-side and stop calls, and keeps the
    last exception a retry absorbed.
    """
    user_rhs, user_stop = problem.rhs, stop
    rhs_evals = stop_calls = 0

    def rhs(t, y):
        nonlocal rhs_evals
        rhs_evals += 1
        return user_rhs(t, y)

    def counted_stop(t, y):
        nonlocal stop_calls
        stop_calls += 1
        return user_stop(t, y)

    stop = None if user_stop is None else counted_stop
    # The caller's form of an ndarray state (asarray returns it unchanged).
    from_array = np.ndarray.tolist if problem.lists else np.asarray

    t_end = problem.t_end
    t = problem.t0
    y = problem.y0.copy()
    f = np.asarray(rhs(t, from_array(y)), dtype=float)
    if f.shape != y.shape:
        raise ValueError(f"rhs must return shape {y.shape}, got {f.shape}")
    # Called directly: a predicate that raises here propagates its own error.
    if stop is not None and stop(t, from_array(y)):
        raise ValueError("stop predicate already true at the initial state")

    span = t_end - problem.t0
    h_min = _HMIN_REL * span
    if first_step is not None and first_step > 0.0:
        h = min(first_step, span)
    else:
        h = _initial_step(lambda t, y: rhs(t, from_array(y)), t, y, f, t_end,
                          rtol, atol)

    # The kernel steps lists or arrays; rhs and stop are adapted to it when
    # the caller's form differs.
    floats = y.size <= _FLOAT_KERNEL_MAX_DIM
    step_rhs, step_stop = rhs, stop
    if floats:
        y, f = y.tolist(), f.tolist()
        if not problem.lists:
            def step_rhs(t, y):
                return np.asarray(rhs(t, np.array(y)), dtype=float).tolist()
            if stop is not None:
                step_stop = lambda t, y: stop(t, np.array(y))
    elif problem.lists:
        step_rhs = lambda t, y: rhs(t, y.tolist())
        if stop is not None:
            step_stop = lambda t, y: stop(t, y.tolist())
    kernel = _float_kernel if floats else _array_kernel
    step = kernel(step_rhs, len(y), rtol, atol)
    times = [t]
    states = [y if floats else y.copy()]
    derivs = [f if floats else f.copy()]
    fac_old = 1e-4
    just_rejected = False
    steps = nan_retries = 0
    h_lo = h_hi = None
    status = Status.COMPLETED
    stop_time = stop_reason = rhs_error = None

    while t < t_end:
        if steps >= max_steps or not h >= h_min:   # rejects NaN as well
            status = Status.STEP_FAILURE
            break
        h = min(h, t_end - t)
        steps += 1

        try:
            err, y_new, f_new = step(t, y, f, h)
        except _RHS_ERRORS as exc:
            err = math.nan
            rhs_error = f"{type(exc).__name__}: {exc}"

        if not err <= 1.0:     # rejects NaN as well
            if math.isnan(err):
                h *= 0.5
                nan_retries += 1
            else:
                h = h / min(1 / _FAC_MIN, (err ** _EXPO) / _SAFETY)
            just_rejected = True
            continue

        t_new = t + h
        times.append(t_new)
        states.append(y_new)
        derivs.append(f_new)
        if h_lo is None or h < h_lo:
            h_lo = h
        if h_hi is None or h > h_hi:
            h_hi = h

        if stop is not None and (reason := _safe_stop(step_stop, t_new, y_new)):
            stop_time, y_stop, f_stop, stop_reason = _localize_stop(
                lambda t, y: stop(t, from_array(y)), reason, t, t_new,
                *map(np.asarray, (y, y_new, f, f_new)))
            times[-1] = stop_time
            states[-1] = y_stop
            derivs[-1] = f_stop
            status = Status.STOPPED
            break

        # PI controller (accepted step).
        fac = (err ** _EXPO) / (fac_old ** _BETA) if err > 0.0 else 1 / _FAC_MAX
        fac = max(1 / _FAC_MAX, min(1 / _FAC_MIN, fac / _SAFETY))
        if just_rejected:
            fac = max(fac, 1.0)   # no growth right after a rejection
        h = h / fac
        fac_old = max(err, 1e-4)
        just_rejected = False
        t = t_new
        y = y_new
        f = f_new

    accepted = len(times) - 1
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=float),
        derivs=np.asarray(derivs, dtype=float),
        status=status,
        stop_time=stop_time,
        stop_reason=stop_reason,
        stats=StepStats(accepted=accepted, rejected=steps - accepted,
                        nan_retries=nan_retries, rhs_evals=rhs_evals,
                        stop_calls=stop_calls, h_min=h_lo, h_max=h_hi,
                        rhs_error=rhs_error),
    )


def _safe_stop(stop, t, y):
    """The stop predicate's value at (t, y); True when it raises."""
    try:
        return stop(t, y)
    except _RHS_ERRORS:
        return True


def _localize_stop(stop, reason, t0, t1, y0, y1, f0, f1):
    """Bisect the final step's dense output for the earliest stop time.

    ``reason`` is the predicate's value at t1; the one at the stop time is
    returned with that time and the state and slope there."""
    a, b = t0, t1
    for _ in range(_STOP_BISECTIONS):
        if (b - a) <= _STOP_REL * max(1.0, abs(b)):
            break
        mid = 0.5 * (a + b)
        y_mid = _hermite(mid, t0, t1, y0, y1, f0, f1)
        mid_reason = _safe_stop(stop, mid, y_mid)
        if mid_reason:
            b, reason = mid, mid_reason
        else:
            a = mid
    y_stop = _hermite(b, t0, t1, y0, y1, f0, f1)
    f_stop = _hermite_slope(b, t0, t1, y0, y1, f0, f1)
    return b, y_stop, f_stop, reason
