"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seed 3401 \
        --workload validate audit certify --out BENCH_34.json \
        --claim-metric validate.jobs_per_s --claim "validate jobs_per_s rises"

The parent is unpacked with ``git archive`` into a temporary directory,
and the working tree is copied into another: its tracked files and the
untracked ones git does not ignore, with no ``__pycache__``, so neither
side imports bytecode the other lacks.  For each workload, pair k runs
``perfbench/run.py --workload W --seed S+k --trace 0`` once in each
tree, at the benchmark's own run length, the parent first on odd seeds
and the change first on even ones, one run at a time.  The result file
has the layout of ``BENCH_31.json`` to ``BENCH_33.json``: the command
with the run length the runs report, the host, the order, the parent
commit, per workload and end-to-end metric the median and quartiles of
each side, the pairs the change is better and worse in and whether its
median stays within the metric's bound of ``BENCHMARK.json``, and every
run.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed N --trace 0"
# perfbench/run.py's first report line names the run length it ran at.
SECONDS = re.compile(r"^# averbound benchmark: .* seconds=(\S+) ", re.M)


def quartiles(values):
    """The 25th and 75th percentiles of ``values``, numpy's default
    interpolation."""
    return [float(q) for q in numpy.percentile(values, [25, 75])]


def summarize(runs, metrics):
    """Per workload and metric, the two sides' medians and quartiles, the
    relative change of the medians, the pairs in which the change is
    better and worse, and ``within_bound``: the change's median is not
    worse than the parent's by more than the bound.

    ``runs`` are records as :func:`run_once` makes them, each pair a
    parent and a change run of one workload and seed; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json`` (name, better, bound).
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        table = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            sides = {side: [r["metrics"][name] for r in mine
                            if r["side"] == side and name in r["metrics"]]
                     for side in ("parent", "change")}
            if not sides["parent"] or not sides["change"]:
                continue
            parent, change = (float(numpy.median(sides[s]))
                              for s in ("parent", "change"))
            rel = (change - parent) / parent if parent else 0.0
            better = sum((p["change"][name] > p["parent"][name]) == higher
                         and p["change"][name] != p["parent"][name]
                         for p in pairs)
            worse = sum(p["change"][name] != p["parent"][name]
                        for p in pairs) - better
            worsening = -rel if higher else rel
            table[name] = {
                "parent_median": parent,
                "parent_quartiles": quartiles(sides["parent"]),
                "change_median": change,
                "change_quartiles": quartiles(sides["change"]),
                "relative_change": rel,
                "pairs_change_better": better,
                "pairs_change_worse": worse,
                "within_bound": worsening <= metric["bound"],
            }
        out[workload] = table
    return out


def claim_result(summary, claim_metric):
    """A sentence on the claimed ``workload.metric``: the medians, the
    pairs better, and the median gain against the parent's interquartile
    distance."""
    workload, name = claim_metric.split(".", 1)
    row = summary[workload][name]
    pairs = row["pairs_change_better"] + row["pairs_change_worse"]
    gain = abs(row["change_median"] - row["parent_median"])
    iqr = row["parent_quartiles"][1] - row["parent_quartiles"][0]
    return (f"{workload} {name} {row['parent_median']:.4g} -> "
            f"{row['change_median']:.4g} ({100 * row['relative_change']:+.1f}%), "
            f"better in {row['pairs_change_better']} of {pairs} pairs; the "
            f"median moved by {gain:.4g} against the parent's interquartile "
            f"distance {iqr:.4g}")


def unpack(ref: str, into: Path) -> str:
    """Unpack ``ref`` of this repository into ``into`` with ``git archive``
    and return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--short", ref], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def copy_tree(root: Path, into: Path) -> None:
    """Copy the working tree of the repository at ``root`` into ``into``:
    the tracked files as they are on disk and the untracked files git does
    not ignore, leaving out deleted files and any ``__pycache__``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, check=True,
                            capture_output=True, text=True).stdout
    for name in dict.fromkeys(listed.split("\0")):
        source = root / name
        if (not name or "__pycache__" in Path(name).parts
                or not source.is_file()):
            continue
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, into / name)


def run_once(tree: Path, side: str, workload: str, seed: int, metrics) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, as a record of its exit
    code, the run length it reported, its outcome and its end-to-end
    metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    seconds = SECONDS.search(proc.stdout)
    record = {"workload": workload, "seed": seed, "side": side,
              "exit": proc.returncode,
              "seconds": float(seconds.group(1)) if seconds else None}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {**record, "correct": False, "metrics": {}}
    names = {m["name"] for m in metrics}
    return {**record, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()
                        if k in names}}


def host() -> str:
    return (f"{os.cpu_count()}-CPU {platform.machine()} host, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}; each "
            "side runs from its own copy of the tree in its own directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair k takes seed + k")
    parser.add_argument("--workload", nargs="+",
                        default=["validate", "audit", "certify"])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default="")
    parser.add_argument("--claim-metric", default=None,
                        help="workload.metric the claim is about")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                            "perfbench"], cwd=ROOT, capture_output=True,
                           text=True).stdout.strip()
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        parent = unpack(args.parent, trees["parent"])
        copy_tree(ROOT, trees["change"])
        for workload in args.workload:
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    record = run_once(trees[side], side, workload, seed,
                                      metrics)
                    runs.append(record)
                    print(json.dumps(record), flush=True)
    summary = summarize(runs, metrics)
    lengths = sorted({r["seconds"] for r in runs if r["seconds"] is not None})
    seeds = f"{args.seed}-{args.seed + args.pairs - 1}"
    doc = {
        "command": (f"{COMMAND}, at perfbench's default run length: "
                    + ", ".join(f"--seconds {s:g}" for s in lengths)),
        "host": host(),
        "order": ("pairs alternate which side runs first: parent first on odd "
                  f"seeds, change first on even seeds. Seeds {seeds} "
                  f"({args.pairs} pairs per workload), "
                  + ", then ".join(args.workload)),
        "quartiles": "linear interpolation at 25 and 75 over each side's runs "
                     "(numpy.percentile's default)",
        "parent_commit": parent,
        "change_commit": (f"the working tree at {head}"
                          + (", with uncommitted changes under src/ or "
                             "perfbench/" if dirty else "")),
        "claim": args.claim,
    }
    if args.claim_metric:
        doc["result"] = claim_result(summary, args.claim_metric)
    failed = [f"{r['workload']} seed {r['seed']} {r['side']}" for r in runs
              if r["exit"] != 0 or not r["correct"]]
    doc["notes"] = args.note + ([f"runs that failed or departed from the "
                                 f"references: {', '.join(failed)}"]
                                if failed else
                                ["No run failed a job on either side"])
    doc["summary"] = summary
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
