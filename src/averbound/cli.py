"""Command-line interface.

Four subcommands:

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
from .direct import DEFAULT_BUDGET_S, DirectTrajectory, envelope, run_direct
from .estimator import (AVERAGED_TIGHTENING, ContractionWindow, EstimatorStatus,
                        EstimatorTrajectory, run_averaged, run_estimator,
                        unpack_state)
from .examples import ExampleDefinition, figure_ids, figure_preset, make_example
from .model import SystemSpec
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, Status, Trajectory
from .validation import (ENVELOPE_WINDOWS, analytic_crosscheck,
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


# Every key of a run, with its parser.  All but ``figure``, ``example`` and
# the system parameters are RunConfig fields.
_KEYS = {
    "figure": str, "example": str,
    "i0": _parse_i0, "theta0": _number, "eps": _positive, "u": _positive,
    "kappa": _number, "mu": _number, "lambda1": _number, "lambda2": _number,
    "rtol": _positive, "atol": _positive, "budget": _positive,
    "window": _parse_window, "env_window": _positive,
    "out": str, "format": _table_format,
}
_ALIASES = {"system": "example", "l1": "lambda1", "l2": "lambda2"}
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
            vals[key] = _KEYS[key](text)
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


def _estimate_columns(d: int):
    cols = ["tau"]
    cols += [f"J_{i + 1}" for i in range(d)]
    cols += [f"R_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    cols += [f"K_{i + 1}" for i in range(d)]
    cols += ["m", "n"]
    return cols


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
    export.write_table(out, _estimate_columns(spec.d), est.report_grid(),
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


def _run_direct_pipeline(
        cfg: RunConfig,
        spec: SystemSpec) -> Tuple[Trajectory, DirectTrajectory, float]:
    """Slow averaged solve (tolerances tightened by ``AVERAGED_TIGHTENING``)
    plus the fast run on ``spec``: both trajectories and the seconds they
    took."""
    start = time.perf_counter()
    avg = run_averaged(spec, cfg.example.aux, cfg.u,
                       rtol=cfg.rtol / AVERAGED_TIGHTENING,
                       atol=cfg.atol / AVERAGED_TIGHTENING)
    if avg.status is not Status.COMPLETED:
        raise RuntimeError("averaged actions left the domain before U")
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
    report = verify_headline_bound(est, dtraj, window=win)
    taus, peaks = np.array(envelope(dtraj, win)).T
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
    spec = cfg.system()
    example = cfg.example
    reports = []

    reports.append(verify_identities(spec, example.aux, example.sample_box))

    est = _run_estimator_pipeline(cfg, spec)
    reports.append(verify_bound_domination(spec, example.aux, example.bounds, est))

    avg, dtraj, _ = _run_direct_pipeline(cfg, spec)
    base = verify_integral_identity(spec, example.aux, est, dtraj)
    fine = verify_integral_identity(spec, example.aux, est, dtraj,
                                    n_quad=2 * base.details["n_quad"])
    base.details["refined_residual"] = fine.max_residual
    base.details["refinement_ratio"] = (
        base.max_residual / fine.max_residual if fine.max_residual else None)
    reports.append(base)
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
    """Flags are kept as raw text; ``resolve_config`` parses them."""
    parser = _Parser(
        prog="averbound",
        description="Certified error bounds for one-frequency averaging.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("estimate", "run the slow-time certified estimator"),
                      ("direct", "run the fast-time comparison integration"),
                      ("compare", "run both and compare bound vs envelope"),
                      ("verify", "run the validation suite for an example")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--figure", help=f"preset label ({', '.join(figure_ids())})")
        p.add_argument("--example", help="system name (vdp, action-freq, "
                                         "resonant, euler-top, or registered)")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--i0", help="initial actions, comma-separated")
        p.add_argument("--theta0", help="initial angle (default 0)")
        p.add_argument("--eps", help="perturbation size")
        p.add_argument("--u", help="slow-time horizon U")
        p.add_argument("--kappa", help="action-freq sign (+1/-1)")
        p.add_argument("--mu", help="euler-top damping asymmetry")
        p.add_argument("--l1", help="euler-top first decay rate")
        p.add_argument("--l2", help="euler-top second decay rate")
        p.add_argument("--rtol", help=f"relative tolerance ({DEFAULT_RTOL:g})")
        p.add_argument("--atol", help=f"absolute tolerance ({DEFAULT_ATOL:g})")
        p.add_argument("--budget", help="direct-run wall budget, s")
        p.add_argument("--window", help='fixed-point window "lstar,sigma,M"')
        p.add_argument("--env-window", dest="env_window",
                       help="envelope window width in slow time (U/50)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", help="table format, csv or json (csv)")
    return parser


_COMMANDS = {"estimate": cmd_estimate, "direct": cmd_direct,
             "compare": cmd_compare, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
