"""Spans and per-call counters around the public entry points of averbound.

The tracer wraps module attributes and methods from outside the package, so
the program itself is unchanged:

* spans (name, start, end, parent, job) around the CLI's config resolution,
  solves, checks and writers, and around ``auto_window``,
  ``find_fixed_point``, ``ode.integrate`` and ``report_grid``;
* counts and summed durations, not spans, at the per-call boundaries: the
  right-hand side and stop predicate handed to ``ode.integrate``, every
  dense-output evaluation, and every system, auxiliary and majorant callable
  of the built-in examples (re-registered through ``register_system``).

Right-hand sides and stop predicates are keyed by the solve that owns them:
``estimator`` (the slow solve), ``averaged`` or ``direct``.
"""
from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

from averbound import cli, estimator, examples, export, ode

# span name -> solve whose integrate calls it owns
_SOLVES = {"estimator.run_estimator": "estimator",
           "estimator.run_averaged": "averaged",
           "direct.run_direct": "direct"}

_CLI_SPANS = {
    "resolve_config": "cli.resolve_config",
    "run_estimator": "estimator.run_estimator",
    "run_averaged": "estimator.run_averaged",
    "run_direct": "direct.run_direct",
    "analytic_crosscheck": "estimator.analytic_crosscheck",
    "verify_identities": "validation.verify_identities",
    "verify_bound_domination": "validation.verify_bound_domination",
    "verify_integral_identity": "validation.verify_integral_identity",
    "verify_headline_bound": "validation.verify_headline_bound",
}

# public constructors behind the four built-in registry names
_BUILTINS = {
    "vdp": lambda p: examples.make_vdp(),
    "action-freq": lambda p: examples.make_action_freq(int(p.get("kappa", 1))),
    "resonant": lambda p: examples.make_resonant(),
    "euler-top": lambda p: examples.make_euler_top(p["mu"], p["lambda1"],
                                                   p["lambda2"]),
}


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.spans = []                   # [name, start, end, parent, job]
        self.calls = Counter()
        self.secs = defaultdict(float)
        self.job = None
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result)`` may
        add counts from the returned value."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            record = [name, perf_counter(), None,
                      stack[-1] if stack else None, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()
            tracer.secs[name] += record[2] - record[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, key, fn):
        """Wrap ``fn`` to count its calls and sum their durations."""
        calls, secs = self.calls, self.secs

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                secs[key] += perf_counter() - start
                calls[key] += 1

        return wrapper

    def solve(self) -> str:
        """The solve the innermost open span belongs to."""
        for index in reversed(self._stack):
            owner = _SOLVES.get(self.spans[index][0])
            if owner:
                return owner
        return "other"

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch the package for the rest of the process."""
        for attr, name in _CLI_SPANS.items():
            after = None
            if attr == "verify_headline_bound":
                after = self._count_samples("validation.headline_nodes")
            elif attr == "verify_bound_domination":
                after = self._count_samples("validation.domination_samples")
            setattr(cli, attr, self.span(name, getattr(cli, attr), after))
        for attr in ("write_table", "write_json"):
            setattr(export, attr, self.span(f"export.{attr}",
                                            getattr(export, attr),
                                            self._count_bytes))
        for attr in ("auto_window", "find_fixed_point"):
            setattr(estimator, attr, self.span(f"estimator.{attr}",
                                               getattr(estimator, attr)))
        estimator.EstimatorTrajectory.report_grid = self.span(
            "estimator.report_grid", estimator.EstimatorTrajectory.report_grid)
        ode.integrate = self._integrate(ode.integrate)
        ode.Trajectory.sample = self.counted("ode.sample", ode.Trajectory.sample)
        ode.Trajectory.sample_many = self.counted("ode.sample_many",
                                                  ode.Trajectory.sample_many)
        make_sampler = ode.Trajectory.sampler
        ode.Trajectory.sampler = lambda traj: _CountedSampler(make_sampler(traj),
                                                              self)
        for name, make in _BUILTINS.items():
            examples.register_system(name, self._counted_factory(make))

    def _count_samples(self, key):
        def after(report):
            self.calls[key] += report.samples
        return after

    def _count_bytes(self, path):
        self.calls["export.bytes"] += os.path.getsize(path)

    def _integrate(self, integrate):
        tracer = self
        traced = self.span("ode.integrate", integrate)

        @functools.wraps(integrate)
        def wrapper(problem, *args, **kwargs):
            solve = tracer.solve()
            problem = dataclasses.replace(
                problem, rhs=tracer.counted(f"rhs.{solve}", problem.rhs))
            if kwargs.get("stop") is not None:
                kwargs["stop"] = tracer.counted(f"stop.{solve}", kwargs["stop"])
            bound_calls = tracer.calls["examples.bound"]
            start = perf_counter()
            traj = traced(problem, *args, **kwargs)
            tracer.secs[f"integrate.{solve}"] += perf_counter() - start
            tracer.calls[f"steps.{solve}"] += len(traj.times) - 1
            tracer.calls[f"bound.{solve}"] += (tracer.calls["examples.bound"]
                                               - bound_calls)
            return traj

        return wrapper

    def _counted_factory(self, make):
        def factory(params):
            return self._count_example(make(params))
        return factory

    def _count_example(self, defn):
        def wrap_fields(obj, key):
            return {f.name: self.counted(key, getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                    if callable(getattr(obj, f.name))}

        system = {name: self.counted("examples.system", getattr(defn, name))
                  for name in ("omega", "f", "g", "in_domain")}
        return dataclasses.replace(
            defn, **system,
            aux=dataclasses.replace(defn.aux, **wrap_fields(defn.aux, "examples.aux")),
            bounds=dataclasses.replace(defn.bounds,
                                       **wrap_fields(defn.bounds, "examples.bound")))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return table

    def per_call(self) -> dict:
        """Per counted boundary (no spans): calls and summed seconds.  Span
        self times above include these callbacks; ode.self_us_per_step and
        examples.self_s subtract or isolate them."""
        return {key: {"calls": self.calls[key], "total_s": self.secs[key]}
                for key in self.calls if key in self.secs}

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics as name -> (value, unit); totals are divided by
        the number of traced jobs."""
        c, s = self.calls, self.secs

        def per(a, b):
            return a / b if b else 0.0

        def total(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        steps = total(c, "steps.")
        dense_calls = c["ode.sample"] + c["ode.sampler"]
        examples_ = ("examples.system", "examples.aux", "examples.bound")
        headline = s["validation.verify_headline_bound"]
        domination = s["validation.verify_bound_domination"]
        return {
            "ode.steps": (per(steps, jobs), "count/job"),
            "ode.rhs_evals_per_step": (per(total(c, "rhs."), steps), "1/step"),
            "ode.stop_calls_per_step": (per(total(c, "stop."), steps), "1/step"),
            "ode.self_us_per_step": (1e6 * per(s["ode.integrate"] - total(s, "rhs.")
                                               - total(s, "stop."), steps), "us/step"),
            "ode.sample_calls": (per(dense_calls, jobs), "count/job"),
            "ode.sample_us": (1e6 * per(s["ode.sample"] + s["ode.sampler"],
                                        dense_calls), "us/call"),
            "estimator.window_s": (per(s["estimator.auto_window"], jobs), "s/job"),
            "estimator.fixed_point_s": (per(s["estimator.find_fixed_point"], jobs),
                                        "s/job"),
            "estimator.slow_solve_s": (per(s["integrate.estimator"], jobs), "s/job"),
            "estimator.slow_rhs_us": (1e6 * per(s["rhs.estimator"], c["rhs.estimator"]),
                                      "us/call"),
            "estimator.bound_calls_per_step": (per(c["bound.estimator"],
                                                   c["steps.estimator"]), "1/step"),
            "estimator.averaged_s": (per(s["estimator.run_averaged"], jobs), "s/job"),
            "estimator.report_grid_s": (per(s["estimator.report_grid"], jobs), "s/job"),
            "direct.solve_s": (per(s["direct.run_direct"], jobs), "s/job"),
            "direct.us_per_step": (1e6 * per(s["direct.run_direct"], c["steps.direct"]),
                                   "us/step"),
            "direct.rhs_us": (1e6 * per(s["rhs.direct"], c["rhs.direct"]), "us/call"),
            "validation.headline_s": (per(headline, jobs), "s/job"),
            "validation.headline_us_per_node": (
                1e6 * per(headline, c["validation.headline_nodes"]), "us/node"),
            "validation.domination_s": (per(domination, jobs), "s/job"),
            "validation.domination_us_per_sample": (
                1e6 * per(domination, c["validation.domination_samples"]), "us/sample"),
            "validation.identities_s": (per(s["validation.verify_identities"], jobs),
                                        "s/job"),
            "validation.integral_s": (per(s["validation.verify_integral_identity"],
                                          jobs), "s/job"),
            "validation.crosscheck_s": (per(s["estimator.analytic_crosscheck"], jobs),
                                        "s/job"),
            "examples.calls": (per(sum(c[k] for k in examples_), jobs), "count/job"),
            "examples.self_s": (per(sum(s[k] for k in examples_), jobs), "s/job"),
            "cli.resolve_s": (per(s["cli.resolve_config"], jobs), "s/job"),
            "export.write_s": (per(s["export.write_table"] + s["export.write_json"],
                                   jobs), "s/job"),
            "export.bytes": (per(c["export.bytes"], jobs), "bytes/job"),
        }


class _CountedSampler:
    """The evaluator ``Trajectory.sampler()`` returns, with counted calls."""

    def __init__(self, sampler, tracer):
        self.times = sampler.times
        count = tracer.counted
        self._call = count("ode.sampler", sampler.__call__)
        self.value1 = count("ode.sampler", sampler.value1)
        self.into = count("ode.sampler", sampler.into)

    def __call__(self, t):
        return self._call(t)
