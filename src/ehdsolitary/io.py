"""Persistence: solution documents, branch records, and plot-ready columns.

Reals that must round-trip bit-exactly are serialized as hexadecimal float
strings with a decimal shadow for human readers.  All writes go through a
temp-file-plus-rename so partially written artifacts never appear under the
final name.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import BranchPoint, Grid, Params, WaveSolution, make_grid, make_params

FORMAT_VERSION = 1


def _hex_scalar(v: float) -> dict:
    v = float(v)
    return {"hex": v.hex(), "dec": repr(v)}


def _unhex_scalar(obj) -> float:
    if isinstance(obj, dict):
        return float.fromhex(obj["hex"])
    return float(obj)


def _hex_array(arr) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"hex": [v.hex() for v in arr.tolist()],
            "dec": [repr(v) for v in arr.tolist()]}


def _unhex_array(obj) -> np.ndarray:
    hexes = obj["hex"]
    if not isinstance(hexes, list):
        raise TypeError("hex entries must be a list of strings")
    try:
        return np.fromiter(map(float.fromhex, hexes), float, len(hexes))
    except TypeError:
        raise TypeError("hex entries must be strings") from None


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def params_to_json(p: Params) -> dict:
    return {"gamma": _hex_scalar(p.gamma), "eps1": _hex_scalar(p.eps1),
            "alpha": _hex_scalar(p.alpha)}


def params_from_json(obj) -> Params:
    return make_params(_unhex_scalar(obj["gamma"]), _unhex_scalar(obj["eps1"]),
                       _unhex_scalar(obj["alpha"]))


def grid_to_json(g: Grid) -> dict:
    return {"half_length": _hex_scalar(g.half_length), "n_points": g.n_points}


def grid_from_json(obj) -> Grid:
    return make_grid(_unhex_scalar(obj["half_length"]), int(obj["n_points"]))


def solution_document(sol: WaveSolution, run_config: dict,
                      diagnostics_summary: dict | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "wave_solution",
        "run_config": run_config,
        "params": params_to_json(sol.params),
        "grid": grid_to_json(sol.grid),
        "t1": _hex_array(sol.t1),
        "residual_norm": _hex_scalar(sol.residual_norm),
        "amplitude": _hex_scalar(sol.amplitude),
        "tail": _hex_scalar(sol.tail),
        "diagnostics": diagnostics_summary or {},
    }


def save_solution(path, sol: WaveSolution, run_config: dict,
                  diagnostics_summary: dict | None = None) -> None:
    doc = solution_document(sol, run_config, diagnostics_summary)
    atomic_write_text(path, json.dumps(doc, indent=1))


# The top-level entries load_solution reads, and how each is decoded.
_SOLUTION_ENTRIES = {"params": params_from_json, "grid": grid_from_json,
                     "t1": _unhex_array, "residual_norm": _unhex_scalar,
                     "amplitude": _unhex_scalar, "tail": _unhex_scalar}


def load_solution(path):
    """Read a solution document; returns (WaveSolution, run_config, diagnostics).

    The record is rebuilt verbatim, including the stored scalar diagnostics;
    re-validation is the diagnose command's job, so a corrupted file still
    loads and can be inspected.  A document that is not a wave solution, or
    misses or mangles an entry, raises ValueError naming the file and the
    entry.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "wave_solution":
        raise ValueError(f"{path} is not a wave-solution document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format_version')}")
    entries = {}
    for key, decode in _SOLUTION_ENTRIES.items():
        if key not in doc:
            raise ValueError(f"{path}: missing entry {key!r}")
        try:
            entries[key] = decode(doc[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed entry {key!r}: {exc!r}") from exc
    sol = WaveSolution(**entries)
    return sol, doc.get("run_config", {}), doc.get("diagnostics", {})


def branch_point_to_json(pt: BranchPoint) -> dict:
    return {"kind": "branch_point",
            **{f.name: _hex_scalar(getattr(pt, f.name)) for f in fields(BranchPoint)}}


def branch_point_from_json(obj) -> BranchPoint:
    return BranchPoint(**{f.name: _unhex_scalar(obj[f.name])
                          for f in fields(BranchPoint)})


def save_branch(path, branch, run_config: dict, sidecar_every: int = 10) -> list:
    """JSON-lines branch file: a header record, one record per accepted point,
    and a final stop record.  Every sidecar_every-th solution, and the last,
    is written as a full document in <stem>_solutions/ next to the branch
    file; sidecar_every = 0 writes none.  Returns the sidecar paths."""
    if sidecar_every < 0:
        raise ValueError(f"sidecar_every must be >= 0, got {sidecar_every}")
    path = Path(path)
    header = {
        "kind": "branch_header",
        "format_version": FORMAT_VERSION,
        "run_config": run_config,
        "thresholds": getattr(branch, "thresholds", {}),
    }
    lines = [json.dumps(header)]
    lines += [json.dumps(branch_point_to_json(pt)) for pt in branch.points]
    lines.append(json.dumps({
        "kind": "branch_end",
        "stop_reason": branch.stop_reason,
        "note": branch.note,
        "n_points": len(branch.points),
    }))
    atomic_write_text(path, "\n".join(lines) + "\n")

    written = []
    if sidecar_every and branch.solutions:
        sidecar_dir = path.parent / (path.stem + "_solutions")
        for i, sol in enumerate(branch.solutions):
            if i % sidecar_every == 0 or i == len(branch.solutions) - 1:
                sp = sidecar_dir / f"point_{i:05d}.json"
                save_solution(sp, sol, run_config)
                written.append(sp)
    return written


def load_branch(path):
    """Read a branch file; returns (points, stop_reason, note, header)."""
    points, stop_reason, note, header = [], None, "", {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("kind")
            if kind == "branch_header":
                header = obj
            elif kind == "branch_point":
                points.append(branch_point_from_json(obj))
            elif kind == "branch_end":
                stop_reason = obj.get("stop_reason")
                note = obj.get("note", "")
    return points, stop_reason, note, header


def write_plot_columns(path, columns, labels, run_config: dict) -> None:
    """Two-column (or more) whitespace-separated text, one point per row,
    gnuplot-compatible; metadata rides in comment lines."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("plot columns must share a length")
    out = [f"# format_version: {FORMAT_VERSION}",
           f"# run_config: {json.dumps(run_config)}",
           "# columns: " + " ".join(labels)]
    for row in zip(*columns):
        out.append(" ".join(f"{v:.17e}" for v in row))
    atomic_write_text(path, "\n".join(out) + "\n")
