"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that a
deliberately wrong reference value fails the output check, and that the seed
changes the certify family but not the validate or audit jobs.
"""
from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys

import run
import workloads as wl

failures = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        failures.append(what)


def metrics_print_with_units(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--max-jobs", "2"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit code 0")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: last line has exactly the four keys")
            expect(result.get("correct") is True and result.get("attempted", 0) >= 1,
                   f"{where}: correct, at least one job attempted")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(got == wanted, f"{where}: every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result.get("metrics", {}).values()),
                   f"{where}: every value a finite number")
            missing = [name for name, unit in wanted.items()
                       if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                                  for line in lines[:-1])]
            expect(not missing, f"{where}: a report line per metric, missing {missing}")
            if workload == "audit":
                # the second audit job is the known failure at the reference
                counts = re.search(r"\((\d+) of \d+ jobs, (\d+) of them failing",
                                   proc.stdout)
                expect(bool(counts) and counts[1] == counts[2] != "0",
                       f"{where}: known failure counted in failed_frac")


def wrong_reference_fails() -> None:
    cli = run.bootstrap()
    refs = wl.load_references()
    tmp = run.scratch_dir()
    try:
        cases = [(["estimate", "--figure", "3e"], "ell0"),
                 (["compare", "--figure", "2a"], "tightness"),
                 (["verify", "--example", "resonant"], "checks")]
        for argv, key in cases:
            good = run.run_passes(cli.main, [argv], refs, tmp, 1)
            expect(good[0]["errors"] == [], f"{wl.job_key(argv)}: matches reference")
            bad = copy.deepcopy(refs)
            outcome = bad["jobs"][wl.job_key(argv)]["outcome"]
            if key == "checks":
                name = next(iter(outcome["checks"]))
                outcome["checks"][name] = not outcome["checks"][name]
            else:
                outcome[key] *= 1 + 1e-5
            records = run.run_passes(cli.main, [argv], bad, tmp, 1)
            expect(bool(records[0]["errors"]),
                   f"{wl.job_key(argv)}: wrong reference {key} fails the check")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def seeds() -> None:
    refs = wl.load_references()
    one, two = (wl.jobs_for("certify", s, refs) for s in (1, 2))
    expect(one != two, "two seeds give different certify families")
    expect(one == wl.jobs_for("certify", 1, refs), "one seed gives one family")
    for workload in ("validate", "audit"):
        expect(wl.jobs_for(workload, 1, refs) == wl.jobs_for(workload, 2, refs),
               f"two seeds give the same {workload} jobs")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seeds()
    wrong_reference_fails()
    metrics_print_with_units(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
