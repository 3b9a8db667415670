"""Table and sidecar writers: CSV/JSON with lossless float round-trip."""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["write_table", "read_table", "write_json"]

# CSV rows formatted per write: bounds the size of the temporary text.
_CSV_BLOCK_ROWS = 256


def write_table(path, columns: Sequence[str], rows: np.ndarray,
                fmt: str = "csv") -> Path:
    """Write a numeric table as CSV (one header line) or column-wise JSON."""
    path = Path(path)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(columns):
        raise ValueError(f"{rows.shape[1]} row fields vs {len(columns)} columns")
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        # 17 significant digits round-trip any IEEE double exactly.  The
        # bytes are those of np.savetxt(fmt="%.17g", delimiter=",",
        # newline="\r\n"), which skips an empty header line.
        header = ",".join(columns)
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            if header:
                fh.write(header + "\r\n")
            for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
                block = rows[start:start + _CSV_BLOCK_ROWS]
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
    elif fmt == "json":
        payload = {"columns": list(columns),
                   "data": {c: rows[:, k].tolist() for k, c in enumerate(columns)}}
        with open(path, "w") as fh:
            json.dump(payload, fh)
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    return path


def read_table(path) -> Dict[str, np.ndarray]:
    """Read back a table written by :func:`write_table` (format by suffix)."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        return {c: np.asarray(payload["data"][c], dtype=float)
                for c in payload["columns"]}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: List[List[float]] = [[] for _ in header]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} "
                                 f"fields, found {len(row)}")
            for k, cell in enumerate(row):
                cols[k].append(float(cell))
    return {name: np.asarray(vals, dtype=float) for name, vals in zip(header, cols)}


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
