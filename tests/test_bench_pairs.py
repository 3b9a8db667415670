"""tools/bench_pairs.py: the summary of synthetic runs, and the copy of
the working tree it runs the change side from."""
import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _runs(workload, parent, change, setup_parent, setup_change):
    """Pairs of runs, one per seed, with the given metric values."""
    runs = []
    for seed, values in enumerate(zip(parent, change, setup_parent,
                                      setup_change), start=1):
        for side, rate, setup in (("parent", values[0], values[2]),
                                  ("change", values[1], values[3])):
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "exit": 0, "correct": True,
                         "metrics": {"jobs_per_s": rate, "setup_s": setup}})
    return runs


def test_summary_of_synthetic_pairs():
    parent = [3.0, 3.2, 2.9, 3.1, 3.3]
    change = [3.5, 3.1, 3.6, 3.7, 3.3]             # better, worse, ..., tie
    setup_parent = [0.10, 0.11, 0.12, 0.10, 0.11]
    setup_change = [0.14, 0.14, 0.15, 0.13, 0.14]  # 30% slower: out of bound
    runs = _runs("validate", parent, change, setup_parent, setup_change)
    runs += _runs("certify", [40.0] * 4, [41.0] * 4, [0.1] * 4, [0.1] * 4)
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["validate", "certify"]
    rate = summary["validate"]["jobs_per_s"]
    assert rate["parent_median"] == np.median(parent)
    assert rate["change_median"] == np.median(change)
    assert rate["parent_quartiles"] == pytest.approx(
        np.percentile(parent, [25, 75]).tolist(), rel=1e-15)
    assert rate["change_quartiles"] == pytest.approx(
        np.percentile(change, [25, 75]).tolist(), rel=1e-15)
    assert rate["relative_change"] == pytest.approx(3.5 / 3.1 - 1.0)
    assert (rate["pairs_change_better"], rate["pairs_change_worse"]) == (3, 1)
    assert rate["within_bound"]
    setup = summary["validate"]["setup_s"]
    assert (setup["pairs_change_better"], setup["pairs_change_worse"]) == (0, 5)
    assert setup["relative_change"] == pytest.approx(0.14 / 0.11 - 1.0)
    assert not setup["within_bound"]
    flat = summary["certify"]["setup_s"]
    assert (flat["pairs_change_better"], flat["pairs_change_worse"]) == (0, 0)
    assert flat["within_bound"] and flat["relative_change"] == 0.0
    text = bench_pairs.claim_result(summary, "validate.jobs_per_s")
    assert text.startswith("validate jobs_per_s 3.1 -> 3.5 (+12.9%), "
                           "better in 3 of 4 pairs")



def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c",
                    "user.email=bench@example.com", *args], cwd=root,
                   check=True, capture_output=True)


def test_the_change_side_is_a_copy_of_the_working_tree(tmp_path):
    # The copy carries an uncommitted edit and an untracked file, and
    # leaves out bytecode under src/, an ignored file and a deleted one.
    root, into = tmp_path / "repo", tmp_path / "copy"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    (root / "src" / "pkg" / "gone.py").write_text("")
    (root / ".gitignore").write_text("*.log\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "seed")
    (root / "src" / "pkg" / "mod.py").write_text("X = 2\n")
    (root / "src" / "pkg" / "new.py").write_text("Y = 3\n")
    (root / "src" / "pkg" / "gone.py").unlink()
    (root / "run.log").write_text("ignored\n")
    cache = root / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.pyc").write_bytes(b"\0")
    bench_pairs.copy_tree(root, into)
    files = sorted(p.relative_to(into).as_posix()
                   for p in into.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/pkg/mod.py", "src/pkg/new.py"]
    assert (into / "src" / "pkg" / "mod.py").read_text() == "X = 2\n"
