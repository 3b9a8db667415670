"""Record the reference outcome of every job the benchmark can run.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_references.py

It draws the certify pool, runs every pool instance, validate figure, audit
system and warm-up job once, and rewrites ``perfbench/references.json``.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    cli = run.bootstrap()
    pool = wl.draw_pool()
    argvs = [argv for jobs in pool.values() for argv in jobs]
    argvs += wl.jobs_for("validate", 0, {}) + wl.jobs_for("audit", 0, {})
    argvs += list(wl.WARMUP.values())
    jobs = {}
    tmp = run.scratch_dir()
    try:
        for index, argv in enumerate(argvs):
            path = wl.out_path(tmp, index, argv)
            wall, factor, code, _ = wl.run_job(cli.main, argv, path)
            secs = wall * factor
            jobs[wl.job_key(argv)] = {"exit": code,
                                      "outcome": wl.read_outcome(argv, path),
                                      "seconds": round(secs, 4)}
            print(f"{index + 1}/{len(argvs)} exit={code} {secs:.3f}s "
                  f"{wl.job_key(argv)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {"commit": run.git_commit(), "pool_seed": wl.POOL_SEED,
               "certify_pool": pool, "jobs": jobs}
    with open(wl.REFERENCES, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
