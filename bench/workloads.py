"""The benchmark's two workloads.

Each workload does its set-up once, then runs rounds: one round is a fixed
unit of work on inputs generated from the seed.  A round returns the time of
every operation, the round's wall time, and the result of checking every
operation's output.  The package is called through its module attributes
(``continuation.continue_branch``, ...) so that the tracer's rebinding sees
every call.

- ``default-branch``: the acceptance branch, cut at ``DEFAULT_POINTS`` points,
  then written with sidecars.  The small-N dense path (points 0..38 at
  N <= 1024), then dense Jacobian assembly and LU up to N = 4096.
- ``verify``: load plus ``full_report`` on the fixture states; after the
  timed part of each round, the bore verdict over the A5 parameter cube and
  the Fig. 4 phase portrait.
"""
from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
from ehdsolitary import conjugate, continuation, diagnostics, io, newton, reduced_ode, system
from ehdsolitary.cli import FIG4_LAUNCHES
from ehdsolitary.continuation import ContinuationConfig
from ehdsolitary.model import make_params
from ehdsolitary.newton import NewtonConfig

TOL = NewtonConfig().tol
# Agreement required of a recomputed branch point with the reference run.
# Recomputation with another BLAS thread count moves the points by ~1e-14,
# so 1e3 * TOL passes solver noise and catches a moved branch.
MATCH_TOL = 1e3 * TOL

# The acceptance branch is cut after this many points: points 0..44 run on
# N <= 4096 (about 4 s); the uncut branch needs 150 s and 2.8 GB, more than
# one benchmark run may take.
DEFAULT_POINTS = 45

VERIFY_STATES = common.FIXTURE_POINTS
# Hard-invariant violations the package is known to commit on the fixture
# states: the far-field deviation of the under-resolved N >= 4096 states
# exceeds its budget.  They count as failed operations; any other failure
# makes the run incorrect.
KNOWN_VIOLATIONS = {44: {"asymptotic_fields"}, 46: {"asymptotic_fields"},
                    50: {"asymptotic_fields"}, 56: {"asymptotic_fields"}}
BORE_SAMPLES = 100
ODE_PARAMS = (0.0, 0.0)


@dataclass
class Round:
    """Result of one round.  wall is the round's timed part and duration the
    whole ``run`` call; op_seconds holds the timed operations (points,
    solves or reports); attempted and failed count every checked operation;
    unexpected lists failures outside KNOWN_VIOLATIONS."""

    wall: float = 0.0
    duration: float = 0.0
    op_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    points: int = 0
    max_n: int = 0

    def record(self, ok: bool, known: bool = False, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known:
                self.unexpected.append(detail)


class PointClock:
    """Times accepted branch points from outside the package.

    ``continue_branch`` calls ``nodal_check`` once on every converged
    candidate, right before accepting it, so the gaps between those calls
    are the wall time per point.  The hook adds one clock read per point.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stamps: list[float] = []

    def __enter__(self):
        self._original = continuation.nodal_check

        def stamped(*args, **kwargs):
            self.stamps.append(self.clock())
            return self._original(*args, **kwargs)

        continuation.nodal_check = stamped
        self.stamps.clear()
        return self

    def __exit__(self, *exc):
        continuation.nodal_check = self._original

    def point_seconds(self, start: float, n_points: int) -> list[float]:
        edges = [start] + self.stamps[:n_points]
        return [b - a for a, b in zip(edges, edges[1:])]


def check_point(sol, rnd: Round, label: str) -> None:
    """Re-verify an accepted point: residual <= TOL, lambda_min > 0 and
    alpha < alpha_cr."""
    p = sol.params
    rnorm = float(np.max(np.abs(system.residual(sol.t1, p, sol.grid))))
    lam = system.lambda_min(sol.t1, p, sol.grid)
    ok = rnorm <= TOL and lam > 0 and p.alpha < p.alpha_cr
    rnd.record(ok, detail=f"{label}: residual {rnorm:.2e}, lambda_min {lam:.2e}, "
                          f"alpha {p.alpha!r} vs alpha_cr {p.alpha_cr!r}")


def run_branch(base, grid, cfg, clock, rnd: Round, label: str):
    """One continue_branch call, timed per point; returns the branch or None
    when the call raised (counted as one failed operation)."""
    with PointClock(clock) as pc:
        start = clock()
        try:
            branch = continuation.continue_branch(base, grid, cfg)
        except newton.NewtonError as exc:
            rnd.record(False, detail=f"{label}: {exc}")
            return None
    rnd.op_seconds += pc.point_seconds(start, len(branch.points))
    rnd.points += len(branch.points)
    rnd.max_n = max([rnd.max_n] + [s.grid.n_points for s in branch.solutions])
    return branch


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Grid construction and fixture loading, timed as set-up."""

    def next_inputs(self):
        """The next round's inputs, drawn from the seeded generator."""
        return None

    def run(self, inputs, clock):
        """One timed round; returns (Round, outputs to check)."""
        raise NotImplementedError

    def check(self, rnd: Round, outputs) -> None:
        """Check the round's outputs, outside its timed region."""


class DefaultBranch(Workload):
    name = "default-branch"

    def setup(self):
        self.base, self.grid = common.default_branch_inputs()
        self.reference = json.loads(common.REFERENCE.read_text())
        self.cfg = ContinuationConfig(max_points=DEFAULT_POINTS)
        self.run_config = {"command": "continue", "gamma": self.base.gamma,
                           "eps1": self.base.eps1, "max_points": DEFAULT_POINTS,
                           "half_length": self.grid.half_length,
                           "n_points": self.grid.n_points}

    def run(self, inputs, clock):
        rnd = Round()
        start = clock()
        branch = run_branch(self.base, self.grid, self.cfg, clock, rnd, self.name)
        if branch is not None:
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                io.save_branch(Path(tmp) / "branch.jsonl", branch, self.run_config)
        rnd.wall = clock() - start
        return rnd, branch

    def check(self, rnd, branch):
        if branch is None:
            return
        for i, sol in enumerate(branch.solutions):
            check_point(sol, rnd, f"point {i}")
        rnd.record(*self._matches_reference(branch))

    def _matches_reference(self, branch):
        """Stop reason and the (alpha, amplitude, N) sequence against the
        reference run, on their common prefix."""
        ref = self.reference["points"]
        n = len(branch.solutions)
        expected_stop = ("BUDGET" if DEFAULT_POINTS < len(ref)
                         else self.reference["stop_reason"])
        if branch.stop_reason != expected_stop or n != min(DEFAULT_POINTS, len(ref)):
            return False, False, (f"stop {branch.stop_reason} after {n} points, "
                                  f"expected {expected_stop}")
        for i, (sol, r) in enumerate(zip(branch.solutions, ref)):
            d_alpha = abs(sol.params.alpha - float.fromhex(r["alpha"]))
            d_amp = abs(sol.amplitude - float.fromhex(r["amplitude"]))
            if max(d_alpha, d_amp) > MATCH_TOL or sol.grid.n_points != r["n_points"]:
                return False, False, (f"point {i} moved: alpha by {d_alpha:.2e}, "
                                      f"amplitude by {d_amp:.2e}, N "
                                      f"{sol.grid.n_points} vs {r['n_points']}")
        return True, False, ""


def a5_parameter_sample(rng, n: int):
    """n Params from the A5 cube: gamma in [-0.9, 0.9], eps1 in [0, 2],
    alpha in [0.05, 3], at least 0.02 away from alpha_cr."""
    out = []
    while len(out) < n:
        gamma, eps1, alpha = rng.uniform((-0.9, 0.0, 0.05), (0.9, 2.0, 3.0))
        p = make_params(gamma, eps1, alpha)
        if abs(alpha - p.alpha_cr) >= 0.02:
            out.append(p)
    return out


class Verify(Workload):
    name = "verify"

    def setup(self):
        self.paths = {i: common.state_path(i) for i in VERIFY_STATES}
        self.ode = reduced_ode.OdeParams(*ODE_PARAMS)

    def next_inputs(self):
        order = [VERIFY_STATES[k] for k in self.rng.permutation(len(VERIFY_STATES))]
        return order, a5_parameter_sample(self.rng, BORE_SAMPLES)

    def run(self, inputs, clock):
        order, cube = inputs
        rnd = Round()
        reports = []
        start = clock()
        for index in order:
            t0 = clock()
            sol, _, _ = io.load_solution(self.paths[index])
            report = diagnostics.full_report(sol)
            rnd.op_seconds.append(clock() - t0)
            reports.append((index, report))
        rnd.wall = clock() - start
        # Run in every round, so traced rounds measure conjugate and
        # reduced_ode, but left out of the round's wall time: on a busy shared
        # host this pure-Python root finding and RK4 slowed down up to twice as
        # much as the reports, and made verify's wall_s too unsteady to gate.
        verdicts = [conjugate.bore_verdict(p) for p in cube]
        orbits = reduced_ode.phase_portrait(self.ode, FIG4_LAUNCHES, dt=1e-3, x_max=25.0)
        return rnd, (reports, verdicts, orbits)

    def check(self, rnd, outputs):
        reports, verdicts, orbits = outputs
        for index, report in reports:
            bad = set(diagnostics.hard_violations(report))
            rnd.record(not bad, known=bad <= KNOWN_VIOLATIONS.get(index, set()),
                       detail=f"state {index}: {sorted(bad)}")
        excluded = sum(v.bore_excluded for v in verdicts)
        rnd.record(excluded == len(verdicts),
                   detail=f"bore excluded on {excluded} of {len(verdicts)} samples")
        # closed loop from the lowest launch, escape from the third onwards
        topology = not orbits[0].escaped and all(o.escaped for o in orbits[2:])
        rnd.record(topology, detail="phase-portrait launch topology changed")


WORKLOADS = {w.name: w for w in (DefaultBranch, Verify)}
