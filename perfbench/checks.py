"""Output checks, computed from the files a run writes, not with soupstock's code.

Each check returns (problems, digest): an empty problem list means the
outputs are correct; the digest is the SHA-256 over every deterministic
output file, in a fixed order, so runs of one seed can be compared byte for
byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

from fixtures import read_checkpoint


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_merge_cell(cell: Path, shapes: dict[str, tuple[int, ...]], steps: int) -> list[str]:
    problems = []
    arrays = read_checkpoint(cell / "merged.safetensors")
    if {k: tuple(v.shape) for k, v in arrays.items()} != shapes:
        problems.append(f"{cell.name}: merged schema differs from the ingredients'")
    bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        problems.append(f"{cell.name}: non-finite values in {len(bad)} tensors, first {bad[0]!r}")
    header, rows = _rows(cell / "run.csv")
    if len(rows) != steps:
        problems.append(f"{cell.name}: run.csv has {len(rows)} step rows, expected {steps}")
    for column in ("eta", "grad_norm", "displacement"):
        j = header.index(column)
        if not all(math.isfinite(float(r[j])) for r in rows):
            problems.append(f"{cell.name}: non-finite {column} in run.csv")
    return problems


def check_merge(out: Path, shapes: dict[str, tuple[int, ...]], steps: int, cells: int) -> tuple[list[str], str]:
    """A single-cell run writes into `out`; a sweep writes one `cell-*` directory per cell."""
    if cells == 1:
        cell_dirs = [out]
        files = [out / "merged.safetensors", out / "run.csv"]
    else:
        cell_dirs = sorted(out.glob("cell-*"))
        if len(cell_dirs) != cells:
            return [f"expected {cells} sweep cells, found {len(cell_dirs)}"], ""
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        if len(manifest) != cells or any(e.get("status") != "ok" for e in manifest):
            return ["sweep_manifest.json does not list every cell as ok"], ""
        files = [out / "sweep_manifest.json"]
        files += [c / f for c in cell_dirs for f in ("merged.safetensors", "run.csv")]
    problems = []
    for cell in cell_dirs:
        problems += check_merge_cell(cell, shapes, steps)
    return problems, _digest(files)


def check_estimators(path: Path, trials: int) -> tuple[list[str], str]:
    header, rows = _rows(path)
    problems = []
    if len(rows) != trials:
        problems.append(f"{path.name}: {len(rows)} rows, expected {trials}")
    values = [[float(v) for v in r] for r in rows]
    if not all(math.isfinite(v) for r in values for v in r):
        problems.append(f"{path.name}: non-finite values")
    elif rows:
        soup = statistics.median(r[header.index("dist_soup")] for r in values)
        ame = statistics.median(r[header.index("dist_ame")] for r in values)
        if not ame < soup:
            problems.append(f"median dist_ame {ame!r} is not below median dist_soup {soup!r}")
    return problems, _digest([path])
