"""One benchmark process: set-up probe, workload run, or per-call microcosts.

``run.py`` starts this script in a fresh interpreter for every job, so each
workload's peak RSS is its own.  The last line of standard output is the
job's result as JSON.

    python3 bench/worker.py setup --workload verify --seed 1
    python3 bench/worker.py run --workload verify --seed 1 --seconds 55 --trace 0
    python3 bench/worker.py micro --seed 1
"""
from __future__ import annotations

import time

T_START = time.perf_counter()   # before any heavy import: set-up includes imports

import argparse
import dataclasses
import json
import resource
import sys
import warnings

import numpy as np

import common

HARD_LIMIT_S = 150.0            # a run must end well inside 180 s
MIN_ROUNDS = 3
MICRO_STATES = (35, 44, 56)     # N = 1024, 4096, 8192


def do_setup(args):
    """Imports, fixture hash check and workload set-up; returns the workload
    and the set-up seconds since interpreter start of this script."""
    common.check_fixtures()
    import workloads

    common.OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, common.OUT_DIR)
    wl.setup()
    return wl, time.perf_counter() - T_START


def run_rounds(wl, seconds: float, tracer):
    """Run rounds for `seconds`: a round starts only if it should end in time,
    once MIN_ROUNDS rounds ran and the op-time tail has enough samples, or
    no untraced round timed an operation at all (every one failed).
    With a tracer, rounds alternate untraced / traced, starting untraced."""
    rounds = []
    clock = time.perf_counter
    t0 = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        inputs = wl.next_inputs()
        if tracer is not None:
            tracer.enabled = traced
        round_start = clock()
        rnd, outputs = wl.run(inputs, clock)
        rnd.duration = clock() - round_start
        if tracer is not None:
            tracer.enabled = False
        wl.check(rnd, outputs)
        rounds.append((traced, rnd))
        elapsed = clock() - t0
        n_ops = sum(len(r.op_seconds) for t, r in rounds if not t)
        if (len(rounds) >= MIN_ROUNDS and elapsed + rnd.duration > seconds
                and (n_ops == 0 or common.has_tail(n_ops, common.TAIL_Q))):
            return rounds
        if elapsed > HARD_LIMIT_S:
            raise RuntimeError(f"run exceeded {HARD_LIMIT_S} s before it had enough samples")


def job_run(args) -> dict:
    wl, setup_s = do_setup(args)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = run_rounds(wl, args.seconds, tracer)
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": [{"traced": t, **dataclasses.asdict(r)} for t, r in rounds],
    }
    if tracer is not None:
        from spans import aggregate
        out["aggregate"] = aggregate(tracer.spans)
        spans_path = common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))
    return out


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _best_traced(fn, reps: int):
    """Fastest of reps traced calls: (seconds, per-name span aggregate)."""
    from spans import Tracer, aggregate

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    best, best_spans = float("inf"), []
    try:
        for _ in range(reps):
            tracer.spans.clear()
            t = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t
            if elapsed < best:
                best, best_spans = elapsed, list(tracer.spans)
    finally:
        tracer.uninstall()
    return best, aggregate(best_spans)["names"]


def smooth_even_perturbation(sol, rng, rel: float) -> np.ndarray:
    """The state's trace times 1 + rel cos(kappa pi x / L), kappa drawn from
    [1, 3]: smooth, even, and exactly rel at the crest, where the end-of-branch
    states are stiffest, so the Newton iteration count depends on rel and
    not on the random shape."""
    g = sol.grid
    kappa = rng.uniform(1.0, 3.0)
    return sol.t1 * (1.0 + rel * np.cos(kappa * np.pi * g.x / g.half_length))


def job_micro(args) -> dict:
    """Per-call costs of the strip operators, the residual, its
    linearization, lambda_min, and one dense and one Krylov Newton step, on
    fixture states at N = 1024, 4096 and 8192.  Minimum over repeats."""
    common.check_fixtures()
    from ehdsolitary import io, newton, spectral, system

    rng = np.random.default_rng(args.seed)
    out = {}
    for index in MICRO_STATES:
        sol, _, _ = io.load_solution(common.state_path(index))
        p, g = sol.params, sol.grid
        n = g.n_points
        t1 = smooth_even_perturbation(sol, rng, 1e-3)
        r = system.residual(t1, p, g)
        out[f"spectral.dtn.us_N{n}"] = 1e6 * _best(lambda: spectral.dtn(t1, g), 20)
        out[f"spectral.eval_interior.us_N{n}"] = 1e6 * _best(
            lambda: spectral.eval_interior(t1, g, 0.5), 20)
        out[f"system.residual.ms_N{n}"] = 1e3 * _best(lambda: system.residual(t1, p, g), 20)
        out[f"system.jacobian_apply.ms_N{n}"] = 1e3 * _best(
            lambda: system.jacobian_apply(t1, sol.t1, p, g), 20)
        out[f"system.lambda_min.ms_N{n}"] = 1e3 * _best(
            lambda: system.lambda_min(t1, p, g), 20)

        dense = newton.NewtonConfig(linear_solver="dense")
        seconds, names = _best_traced(
            lambda: newton.solve_newton_step(t1, r, p, g, dense), 1 if n >= 8192 else 3)
        out[f"newton.dense_step.s_N{n}"] = seconds
        out[f"newton.dense_jacobian.s_N{n}"] = names["newton.dense_jacobian"]["s"]

        krylov = newton.NewtonConfig(linear_solver="krylov")
        seconds, names = _best_traced(
            lambda: newton.solve_newton_step(t1, r, p, g, krylov), 3)
        out[f"newton.krylov_step.s_N{n}"] = seconds
        # operator applications: GMRES inner iterations plus one residual
        # evaluation per restart cycle
        out[f"newton.krylov_step.iters_N{n}"] = float(
            names["system.jacobian_apply"]["calls"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("job", choices=("setup", "run", "micro"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.job == "setup":
        result = {"setup_s": do_setup(args)[1]}
    elif args.job == "run":
        result = job_run(args)
    else:
        result = job_micro(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
