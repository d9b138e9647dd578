"""Regenerate the benchmark's fixture states from the default branch.

Runs the acceptance branch (``gamma=0``, ``eps1=0.5``, ``ContinuationConfig()``)
to its end, writes the points in ``common.FIXTURE_POINTS`` as v1 solution
documents, the full ``(alpha, amplitude, N, L)`` sequence and stop reason as
``reference.json``, and a manifest with the source git SHA and a SHA-256 of
every file.  Takes about 2.5 minutes and 3 GB of memory on 2 CPUs.

    python3 bench/make_fixtures.py
"""
from __future__ import annotations

import json
import subprocess

import common


def _git_sha() -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def main() -> None:
    import numpy as np
    import scipy

    from ehdsolitary import io
    from ehdsolitary.continuation import ContinuationConfig, continue_branch

    base, grid = common.default_branch_inputs()
    branch = continue_branch(base, grid, ContinuationConfig())
    run_config = {"command": "continue", "gamma": base.gamma, "eps1": base.eps1,
                  "half_length": grid.half_length, "n_points": grid.n_points}

    common.FIXTURES.mkdir(exist_ok=True)
    names = []
    for i in common.FIXTURE_POINTS:
        path = common.state_path(i)
        io.save_solution(path, branch.solutions[i], {**run_config, "branch_index": i})
        names.append(path.name)

    reference = {
        "stop_reason": branch.stop_reason,
        "note": branch.note,
        "points": [
            {"alpha": sol.params.alpha.hex(), "amplitude": sol.amplitude.hex(),
             "n_points": sol.grid.n_points, "half_length": sol.grid.half_length.hex()}
            for sol in branch.solutions],
    }
    common.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    names.append(common.REFERENCE.name)

    manifest = {
        "source_git_sha": _git_sha(),
        "generator": "python3 bench/make_fixtures.py",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": {name: common.sha256_of(common.FIXTURES / name) for name in names},
    }
    common.MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(branch.solutions)} points, stop {branch.stop_reason}: {branch.note}")


if __name__ == "__main__":
    main()
