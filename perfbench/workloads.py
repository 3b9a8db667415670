"""The jobs of each workload, and the checks on their outputs.

A job is one ``averbound`` command line.  Three workloads:

* ``certify``  -- ``averbound estimate`` on a family of instances drawn by
  the benchmark seed from a fixed, pre-recorded pool (see ``CERTIFY_STRATA``);
* ``validate`` -- ``averbound compare --figure X`` for nine figure presets;
* ``audit``    -- ``averbound verify --example E`` at CLI defaults for every
  registered system.

Only ``certify`` depends on the seed.  Every job has a reference outcome in
``references.json``, recorded with ``record_references.py`` at the commit
that introduced the benchmark.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import random
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Largest relative departure of a recorded number from its reference.
REL_TOL = 1e-6

EPS_RANGE = (1e-3, 1e-2)          # every stratum, drawn log-uniformly
POOL_SEED = 20051                 # the pool is drawn once, at recording time

_ET_A = ["--mu", "1", "--l1", "2", "--l2", "-1"]
_ET_D = ["--mu", "1", "--l1", "1.1", "--l2", "-1"]

# (stratum, jobs per family, pool size, system flags, i0 range per component,
# U range) around the shipped presets 1a-1c, 2a/2d, 3a-3f and 4a-4d.  A U
# range with equal ends is a fixed horizon.  The seed draws each stratum's
# jobs from its recorded pool.  A family pass takes about 10 s at the
# reference times, one long vdp job of about 2 s included, so a 23 s run
# makes two passes.  With 100 jobs, 10 lie beyond the 90th percentile.
CERTIFY_STRATA = [
    ("vdp-short", 13, 60, ["--example", "vdp"], [(0.5, 4.5)], (2.0, 10.0)),
    ("vdp-long", 1, 60, ["--example", "vdp"], [(0.5, 4.5)], (200.0, 200.0)),
    ("blowup", 16, 70, ["--example", "action-freq", "--kappa", "1"],
     [(0.5, 1.0)], (0.3, 0.9)),
    ("decay-short", 13, 60, ["--example", "action-freq", "--kappa", "-1"],
     [(0.5, 2.0)], (2.0, 10.0)),
    ("decay-long", 4, 20, ["--example", "action-freq", "--kappa", "-1"],
     [(0.5, 2.0)], (200.0, 200.0)),
    ("resonant-short", 18, 80, ["--example", "resonant"], [(0.5, 2.5)],
     (2.0, 10.0)),
    ("resonant-long", 11, 50, ["--example", "resonant"], [(0.5, 2.5)],
     (200.0, 200.0)),
    ("top-a", 12, 50, ["--example", "euler-top"] + _ET_A,
     [(1.0, 4.5), (1.0, 4.5)], (0.5, 3.0)),
    ("top-d", 12, 50, ["--example", "euler-top"] + _ET_D,
     [(1.0, 4.5), (1.0, 4.5)], (0.5, 3.0)),
]

VALIDATE_FIGURES = ["1a", "1b", "2a", "2d", "3a", "3e", "4a", "4b", "4c"]

AUDIT_JOBS = [
    ["verify", "--example", "vdp"],
    # Exits 1 at the seed commit: the CLI default U = 1.0 equals the blow-up
    # time 1/I0 of the averaged flow, so the averaged solve leaves the domain.
    ["verify", "--example", "action-freq", "--kappa", "1"],
    ["verify", "--example", "action-freq", "--kappa", "-1"],
    ["verify", "--example", "resonant"],
    ["verify", "--example", "euler-top"] + _ET_A,
]

# One cheap job per workload, run before timing and in every set-up sample.
WARMUP = {
    "certify": ["estimate", "--figure", "3e"],
    "validate": ["compare", "--figure", "2a"],
    "audit": ["verify", "--example", "resonant"],
}

WORKLOADS = ("certify", "validate", "audit")


def job_key(argv) -> str:
    return " ".join(argv)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def draw_pool(seed: int = POOL_SEED) -> dict:
    """The certify instance pool, drawn once from ``seed``."""
    rng = random.Random(seed)
    log_lo, log_hi = (math.log(e) for e in EPS_RANGE)
    pool = {}
    for name, _, size, flags, i0_ranges, (u_lo, u_hi) in CERTIFY_STRATA:
        jobs = []
        for _ in range(size):
            i0 = ",".join(_fmt(rng.uniform(lo, hi)) for lo, hi in i0_ranges)
            eps = _fmt(math.exp(rng.uniform(log_lo, log_hi)))
            u = _fmt(rng.uniform(u_lo, u_hi))
            jobs.append(["estimate"] + flags + ["--i0", i0, "--eps", eps, "--u", u])
        pool[name] = jobs
    return pool


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pass_seconds(jobs, refs: dict) -> float:
    """Reference seconds of one pass over ``jobs``.

    A certify instance counts at the mean of its stratum's pool, so that the
    result, and with it the number of passes a run makes, does not depend on
    the seed.
    """
    secs = {key: job["seconds"] for key, job in refs["jobs"].items()}
    for pool in refs["certify_pool"].values():
        mean = statistics.fmean(secs[job_key(argv)] for argv in pool)
        secs.update((job_key(argv), mean) for argv in pool)
    return sum(secs[job_key(argv)] for argv in jobs)


def jobs_for(workload: str, seed: int, refs: dict) -> list:
    """The argv lists of one pass of ``workload``; only certify uses ``seed``."""
    if workload == "certify":
        rng = random.Random(seed)
        jobs = []
        for name, count, *_ in CERTIFY_STRATA:
            jobs += rng.sample(refs["certify_pool"][name], count)
        rng.shuffle(jobs)
        return jobs
    if workload == "validate":
        return [["compare", "--figure", fig] for fig in VALIDATE_FIGURES]
    if workload == "audit":
        return [list(job) for job in AUDIT_JOBS]
    raise ValueError(f"unknown workload {workload!r}")


def out_path(tmp: Path, index: int, argv) -> Path:
    return tmp / f"job{index}.{'json' if argv[0] == 'verify' else 'csv'}"


def sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def outputs_of(path: Path, argv) -> list:
    """Every file a job writes, for clearing before it runs."""
    return [path] if argv[0] == "verify" else [path, sidecar(path)]


def run_job(main, argv, path: Path):
    """Run one job in this process.

    Returns (wall seconds, host-speed factor, exit, captured output).  The
    wall time leaves out the probe's own time; times the factor, it is the
    job's time at the reference host speed (see ``hostspeed.py``).  ``exit``
    is the command's return code, the code of a ``SystemExit``, or the name
    of any other exception it raised.  Clearing old outputs and collecting
    garbage happen before the clock starts.
    """
    # imported here, so that numpy is not loaded before a set-up sample starts
    from hostspeed import Probe
    for old in outputs_of(path, argv):
        old.unlink(missing_ok=True)
    gc.collect()
    buf = io.StringIO()
    with Probe() as probe:
        probe_before = probe.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = main(argv + ["--out", str(path)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            code = type(exc).__name__
            buf.write(f"{code}: {exc}\n")
        wall = time.perf_counter() - start - (probe.spent - probe_before)
    return wall, probe.factor, code, buf.getvalue()


def read_outcome(argv, path: Path) -> dict:
    """The recorded numbers of one job's outputs; empty when none were written."""
    command = argv[0]
    if command == "verify":
        if not path.exists():
            return {}
        with open(path) as fh:
            payload = json.load(fh)
        return {"checks": {c["name"]: bool(c["passed"]) for c in payload["checks"]}}
    meta = sidecar(path)
    if not meta.exists():
        return {}
    with open(meta) as fh:
        side = json.load(fh)
    if command == "compare":
        head = side["headline"]
        return {"violations": head["violations"],
                "tightness": head["details"]["tightness"],
                "time_ratio": side["time_ratio"]}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n_final = float(rows[-1][rows[0].index("n")])
    return {"ell0": side["ell0"], "tau_final": side["tau_final"], "n_final": n_final}


# Numbers compared against the reference; time_ratio is reported only.
_CHECKED = ("ell0", "tau_final", "n_final", "tightness")


def check(ref: dict, exit_code, outcome: dict) -> list:
    """Departures of one job from its reference, as readable strings."""
    errors = []
    if exit_code != ref["exit"]:
        errors.append(f"exit code {exit_code}, reference {ref['exit']}")
    want = ref["outcome"]
    if set(want) != set(outcome):
        errors.append(f"outputs {sorted(outcome)}, reference {sorted(want)}")
        return errors
    for key in _CHECKED:
        if key in want:
            got, exp = outcome[key], want[key]
            if not abs(got - exp) <= REL_TOL * abs(exp):
                errors.append(f"{key} = {got!r}, reference {exp!r}")
    if "violations" in want and outcome["violations"] != 0:
        errors.append(f"{outcome['violations']} headline violations")
    if "checks" in want and outcome["checks"] != want["checks"]:
        errors.append(f"checks {outcome['checks']}, reference {want['checks']}")
    return errors
