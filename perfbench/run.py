"""Benchmark of the averbound command line, one workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 23 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 23 --trace 1

Each job is one ``averbound`` command line, called in this process through
``averbound.cli.main(argv)`` on a single thread.  A run repeats whole passes
over the workload's jobs (see ``workloads.py``): as many as fit in
``--seconds`` at the jobs' recorded reference times, and at least one.  The
count is fixed before timing starts, so it does not depend on how fast the
host runs.  Every job time is corrected for the host's speed while the job
ran (see ``hostspeed.py``), and the end-to-end metrics use each job's best
corrected time over the passes; the uncorrected wall-time metrics are
printed beside them.  Job outputs go to a temporary directory
inside the checkout and are read back and checked against the recorded
references outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
other job once untraced, then traced passes, and reports the per-layer
metrics and the tracing overhead (traced minus untraced seconds per job, on
the jobs run both ways).  The last line of
standard output is one JSON object; the lines before it are a readable
report.  A result file, with the trace spans when tracing, is written to
``.perfbench_out/`` in the checkout.

Exit codes: 0 all outputs match their references, 2 some job departs from its
reference (the JSON line is still printed), 1 the benchmark could not run.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The systems every set-up sample constructs.
_EXAMPLES = [("vdp", {}), ("action-freq", {"kappa": 1}),
             ("action-freq", {"kappa": -1}), ("resonant", {}),
             ("euler-top", {"mu": 1.0, "lambda1": 2.0, "lambda2": -1.0}),
             ("euler-top", {"mu": 1.0, "lambda1": 1.1, "lambda2": -1.0})]


def bootstrap():
    """Pin native thread pools to one thread, then import the CLI from
    ``src/`` of this checkout (never from an installed copy)."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    package = ROOT / "src" / "averbound"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from averbound import cli
    return cli


def scratch_dir() -> Path:
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(workload: str) -> int:
    """One set-up sample: import, example construction, one warm-up job.

    Runs in a fresh process, so the import is cold in the interpreter;
    prints the timings as one JSON line.
    """
    start = time.perf_counter()
    cli = bootstrap()
    from averbound.examples import make_example
    imported = time.perf_counter()
    for name, params in _EXAMPLES:
        make_example(name, params)
    built = time.perf_counter()
    tmp = scratch_dir()
    try:
        argv = wl.WARMUP[workload]
        wall, factor, code, _ = wl.run_job(cli.main, argv, wl.out_path(tmp, 0, argv))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # the warm-up job's host-speed factor corrects the whole sample
    print(json.dumps({"import_s": imported - start, "construct_s": built - imported,
                      "warmup_s": wall, "warmup_exit": code, "factor": factor,
                      "wall_s": built - start + wall,
                      "setup_s": (built - start + wall) * factor}))
    return 0


def measure_setup(workload: str) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if sample["warmup_exit"] != 0:
            raise SystemExit(f"error: warm-up job exited {sample['warmup_exit']}")
        samples.append(sample)
    return samples


# ---------------------------------------------------------------------------
# Timed passes


def planned_passes(jobs, refs, seconds) -> int:
    """Passes that fit in ``seconds`` at the recorded reference job times."""
    return max(1, int(seconds // wl.pass_seconds(jobs, refs)))


def run_passes(main, jobs, refs, tmp, passes, traced=False):
    """``passes`` whole passes over ``jobs``; one record per job run."""
    records = []
    for pass_no in range(passes):
        for index, argv in enumerate(jobs):
            path = wl.out_path(tmp, index, argv)
            wall, factor, code, text = wl.run_job(main, argv, path)
            try:
                outcome = wl.read_outcome(argv, path)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                outcome = {"unreadable": repr(exc)}
            ref = refs["jobs"].get(wl.job_key(argv))
            errors = wl.check(ref, code, outcome) if ref else ["no reference recorded"]
            records.append({"pass": pass_no, "index": index, "argv": argv,
                            "seconds": wall * factor, "wall_s": wall,
                            "factor": factor,
                            "exit": code, "traced": traced, "outcome": outcome,
                            "expected_exit": ref["exit"] if ref else None,
                            "errors": errors,
                            "tail": text.strip().splitlines()[-1:] if errors else []})
    return records


def quantile(values, percent: int):
    """Nearest-rank percentile: the same for a pass and for whole repeats of it."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)       # ceil, in integers
    return ordered[max(rank, 1) - 1]


def best_times(records, key="seconds") -> list:
    """Each job's fastest run over the passes, in job order."""
    best = {}
    for r in records:
        best[r["index"]] = min(best.get(r["index"], r[key]), r[key])
    return [best[index] for index in sorted(best)]


def end_to_end(records, setups, key="seconds") -> dict:
    """The end-to-end metrics, from host-speed-corrected times by default
    and from the uncorrected wall times with ``key="wall_s"``."""
    times = best_times(records, key)
    passes = 1 + max(r["pass"] for r in records)
    completed = sum(1 for r in records if r["exit"] == 0) / passes
    setup_key = "setup_s" if key == "seconds" else "wall_s"
    return {
        "jobs_per_s": (completed / sum(times), "1/s"),
        "job_s_p50": (quantile(times, 50), "s"),
        "job_s_p90": (quantile(times, 90), "s"),
        "setup_s": (statistics.median(s[setup_key] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    refs = wl.load_references()
    cli = bootstrap()
    stamp = host_stamp()
    setups = [] if args.trace else measure_setup(args.workload)
    jobs = wl.jobs_for(args.workload, args.seed, refs)[:args.max_jobs]
    passes = planned_passes(jobs, refs, args.seconds)
    tmp = scratch_dir()
    tracer = None
    try:
        warm = wl.WARMUP[args.workload]
        _, _, code, text = wl.run_job(cli.main, warm, wl.out_path(tmp, 0, warm))
        if code != 0:
            raise SystemExit(f"error: warm-up job exited {code}: {text}")
        if args.trace:
            # untraced reference: every other job, once
            records = run_passes(cli.main, jobs[::2], refs, tmp, 1)
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            main = tracer.span("job", cli.main)
            job_ids = itertools.count()

            def traced_main(argv):
                tracer.job = next(job_ids)
                return main(argv)

            records += run_passes(traced_main, jobs, refs, tmp, passes, traced=True)
        else:
            records = run_passes(cli.main, jobs, refs, tmp, passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in records if r["exit"] != 0]
    unexpected = [r for r in failed if r["expected_exit"] == 0]
    mismatched = [r for r in records if r["errors"]]

    print(f"# averbound benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"# {len(jobs)} jobs per pass x {passes} pass(es) = "
          f"{len(jobs) * passes} job samples{' traced' if args.trace else ''}")
    if not args.trace:
        print(f"# job times are each job's best of {passes}; percentiles are "
              f"nearest-rank over {len(jobs)} best times")
    if args.trace:
        plain = statistics.fmean(r["seconds"] for r in records if not r["traced"])
        paired = statistics.fmean(r["seconds"] for r in records if r["traced"]
                                  and r["pass"] == 0 and r["index"] % 2 == 0)
        per_job = sum(1 for r in records if r["traced"])
        metrics = tracer.layer_metrics(per_job)
        metrics["trace.overhead_s"] = (paired - plain, "s/job")
        metrics["trace.overhead_frac"] = ((paired - plain) / plain, "1")
        print("# spans, per traced job: calls, total and self seconds")
        for name, row in sorted(tracer.self_times().items()):
            print(f"#   {name:36s} {row['calls'] / per_job:10.1f} "
                  f"{row['total_s'] / per_job:9.4f} {row['self_s'] / per_job:9.4f}")
        print("# per-call boundaries, per traced job: calls and seconds")
        for name, row in sorted(tracer.per_call().items()):
            print(f"#   {name:36s} {row['calls'] / per_job:10.1f} "
                  f"{row['total_s'] / per_job:9.4f}")
    else:
        metrics = end_to_end(records, setups)
        wall = end_to_end(records, setups, key="wall_s")
        factors = sorted(r["factor"] for r in records)
        print(f"# host-speed factor over the jobs: median {statistics.median(factors):.3g}, "
              f"range {factors[0]:.3g}-{factors[-1]:.3g}")
        print("# uncorrected wall times: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items()
            if name != "peak_rss_mb"))
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    print(f"{'failed_frac':38s} {len(failed) / len(records):14.6g} 1"
          f"   ({len(failed)} of {len(records)} jobs, "
          f"{len(failed) - len(unexpected)} of them failing at the reference)")
    if args.workload == "validate":
        for r in records:
            if r["pass"] == 0 and not r["traced"] and "time_ratio" in r["outcome"]:
                print(f"#   {wl.job_key(r['argv']):24s} T_estimate/T_direct = "
                      f"{r['outcome']['time_ratio']:.4g} (reported, not gated)")
    for r in mismatched:
        print(f"OUTPUT CHECK FAILED: {wl.job_key(r['argv'])}: "
              f"{'; '.join(r['errors'])} {r['tail']}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    dump = {"args": vars(args), "host": stamp, "setup": setups,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failed_frac": len(failed) / len(records),
            "jobs": [{k: r[k] for k in ("pass", "argv", "seconds", "wall_s", "factor",
                                         "exit", "traced", "errors")} for r in records]}
    if tracer is not None:
        dump["self_times"] = tracer.self_times()
        dump["per_call"] = tracer.per_call()
        dump["counters"] = {"calls": dict(tracer.calls), "seconds": dict(tracer.secs)}
        dump["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(dump, fh)

    print(json.dumps({
        "correct": not mismatched, "attempted": len(records),
        "failed": len(unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 2 if mismatched else 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.max_jobs:
            cmd += ["--max-jobs", str(args.max_jobs)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 2) or not lines:
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="cut each pass to its first N jobs (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
