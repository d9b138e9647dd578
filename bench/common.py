"""Shared definitions of the benchmark: where the package and the fixture
states live, the default branch, and the fixture hash check.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the package of the checkout it
sits in, never an installed copy.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
MANIFEST = FIXTURES / "manifest.json"
REFERENCE = FIXTURES / "reference.json"
OUT_DIR = ROOT / ".bench_out"           # results, spans and scratch files

# Indices of the default-branch points kept as fixture states.  They span
# N = 256 .. 8192; 44 and beyond are the end-of-branch states.
FIXTURE_POINTS = (0, 20, 35, 44, 46, 50, 56)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
# Highest reported percentile of the operation times.
TAIL_Q = 0.75


class FixtureError(RuntimeError):
    """The checked-in fixture is missing, stale or edited."""


class TooFewSamples(ValueError):
    pass


def has_tail(n: int, q: float) -> bool:
    """True when n samples leave at least MIN_TAIL beyond the q-quantile."""
    return n * (1.0 - q) >= MIN_TAIL - 1e-9


def percentile(samples, q: float) -> float:
    """The q-quantile (0 < q < 1) of samples, interpolated linearly between
    order statistics.  Refused unless at least MIN_TAIL samples lie beyond it."""
    n = len(samples)
    if not has_tail(n, q):
        raise TooFewSamples(
            f"{n} samples leave fewer than {MIN_TAIL} beyond the {q:.2f}-quantile")
    xs = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def state_path(index: int) -> Path:
    return FIXTURES / f"point_{index:05d}.json"


def default_branch_inputs():
    """(BaseParams, Grid) of the acceptance fixture, as ``ehdsolitary continue``
    builds them with its defaults."""
    from ehdsolitary.cli import _auto_half_length
    from ehdsolitary.model import BaseParams, make_grid

    return BaseParams(0.0, 0.5), make_grid(_auto_half_length(1e-3, 0.5), 1024)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_fixtures() -> dict:
    """Verify every fixture file against the manifest; returns the manifest.

    Raises FixtureError on a missing file or a hash mismatch, so a stale or
    edited fixture stops the run instead of silently changing the workload.
    """
    if not MANIFEST.is_file():
        raise FixtureError(f"fixture manifest {MANIFEST} is missing")
    manifest = json.loads(MANIFEST.read_text())
    for name, digest in manifest["files"].items():
        path = FIXTURES / name
        if not path.is_file():
            raise FixtureError(f"fixture file {name} is missing")
        if sha256_of(path) != digest:
            raise FixtureError(
                f"fixture file {name} does not match its manifest hash; "
                "regenerate with bench/make_fixtures.py")
    return manifest
