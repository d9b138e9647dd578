"""The ehdsolitary benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload default-branch --seed 1 --seconds 55 --trace 0

Every job runs in a fresh interpreter (``worker.py``), so peak RSS is the
workload's own, with BLAS pinned to one thread.  Set-up is timed in three
processes and reported as their median.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run, both as
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the environment, the sample counts and the per-operation time
percentiles; ``.bench_out/`` keeps the full result and, for traced runs,
the spans.

An operation is an accepted branch point (``default-branch``) or a solution
load plus ``full_report`` (``verify``, which also checks the bore verdict and
the phase portrait once per round, outside the round's timed part).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import common
from common import TAIL_Q, has_tail, percentile

# Names of workloads.WORKLOADS, repeated so that this process never imports
# the package: a checkout without it must fail before any job starts.
WORKLOADS = ("default-branch", "verify")
# Layers each workload must bypass, as upper limits on per-layer metrics of
# its traced run.  A breach makes the run incorrect.
BYPASS = {
    "verify": (("newton.newton_solve.calls", 0),),
}
SETUP_PROBES = 2                # extra set-up-only processes besides the run
# One BLAS thread: on a small shared machine it measured a little steadier
# than two, and it fixes the order of BLAS reductions, so iteration counts
# repeat exactly.
BLAS_THREADS = 1
JOB_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, cpu_count()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def job(*args: str) -> dict:
    """Run one worker job to completion; returns its JSON result."""
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=common.ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    sha = None
    if (common.ROOT / ".git").exists():    # a plain checkout records no SHA
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True)
    manifest = json.loads(common.MANIFEST.read_text())
    return {"nproc": cpu_count(), "blas_threads": min(BLAS_THREADS, cpu_count()),
            "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else None,
            "fixture_git_sha": manifest["source_git_sha"]}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: dict, setup: list) -> tuple[dict, dict]:
    """End-to-end metrics, plus a record of sample counts and the per-op
    time percentiles.  The percentiles are recorded, not reported as
    metrics: on a shared 2-CPU host their run-to-run spread reached 0.35
    of the median, more than any bound may allow.

    ops_per_s is operations per second of operation time; it is 0 when no
    operation succeeded."""
    rounds = run["rounds"]
    ops = [t for r in rounds for t in r["op_seconds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    rates = [len(r["op_seconds"]) / sum(r["op_seconds"])
             for r in rounds if r["op_seconds"]]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(r["wall"] for r in rounds), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "ops_ok_ratio": metric(1.0 - failed / attempted, "ratio"),
        "ops_per_s": metric(statistics.median(rates) if rates else 0.0, "1/s"),
    }
    record = {"setup_s": len(setup), "wall_s": len(rounds), "op_s": len(ops)}
    for q in (0.50, TAIL_Q):
        if has_tail(len(ops), q):
            record[f"op_s.p{round(100 * q)}"] = percentile(ops, q)
    return metrics, record


def per_layer(run: dict, micro: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, plus the microcosts."""
    traced = [r for r in run["rounds"] if r["traced"]]
    plain = [r for r in run["rounds"] if not r["traced"]]
    k = len(traced)
    names = run["aggregate"]["names"]
    layer_self = run["aggregate"]["layer_self_s"]

    def get(name, field):
        return names.get(name, {}).get(field, 0) / k

    out = {}

    def put(key, value, unit):
        out[key] = metric(value, unit)

    for name, fields in (
            ("model.symmetrize", ("calls", "s")),
            ("spectral.cosine_basis", ("calls", "s")),
            ("system.residual", ("calls", "s")),
            ("system.jacobian_apply", ("calls", "s")),
            ("system.lambda_min", ("calls", "s")),
            ("newton.dense_jacobian", ("calls", "s")),
            ("newton.gmres", ("calls", "s")),
            ("newton.newton_solve", ("calls", "s")),
            ("continuation.lu_factor", ("calls", "s")),
            ("diagnostics.full_report", ("calls", "s")),
            ("diagnostics.flow_force_profile", ("calls", "s")),
            ("diagnostics.nodal_check", ("calls", "s")),
            ("io.load_solution", ("s",)),
            ("io.save_branch", ("s",)),
            ("conjugate.bore_verdict", ("s",)),
            ("reduced_ode.phase_portrait", ("s",))):
        for field in fields:
            put(f"{name}.{field}", get(name, field), "count" if field == "calls" else "s")
    put("system.jacobian_apply.columns", get("system.jacobian_apply", "rows"), "count")
    put("newton.dense_jacobian.bytes_computed", get("newton.dense_jacobian", "info"), "B")
    put("newton.matvecs", run["aggregate"]["matvecs"] / k, "count")
    put("newton.newton_solve.iters", get("newton.newton_solve", "info"), "count")
    put("newton.newton_solve.failed", get("newton.newton_solve", "raised"), "count")
    put("spectral.s", layer_self.get("spectral", 0.0) / k, "s")
    put("spectral.transforms", sum(v["rows"] for n, v in names.items()
                                   if n.startswith("spectral.")) / k, "count")
    for layer in ("model", "system", "newton", "continuation", "diagnostics",
                  "io", "conjugate", "reduced_ode"):
        put(f"{layer}.self_s", layer_self.get(layer, 0.0) / k, "s")
    points = sum(r["points"] for r in traced) / k
    put("continuation.points_accepted", points, "count")
    put("continuation.max_n", max(r["max_n"] for r in traced), "count")
    for op, fn in (("refine", "refine_grid"), ("widen", "widen_grid"),
                   ("shrink", "shrink_grid")):
        put(f"continuation.{op}.calls", get(f"continuation.{fn}", "calls"), "count")
    solves = run["aggregate"]["solves_under_continuation"] / k
    put("continuation.accept_ratio", points / solves if solves else 0.0, "ratio")
    put("io.load_solution.bytes", get("io.load_solution", "info"), "B")
    put("io.save_branch.bytes", get("io.save_branch", "info"), "B")
    put("reduced_ode.rk4_steps", get("reduced_ode.phase_portrait", "info"), "count")

    put("trace.overhead_s", statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain), "s")
    # traced round time outside every span: the benchmark's own code
    put("trace.bench_s", sum(r["duration"] for r in traced) / k
        - sum(layer_self.values()) / k, "s")
    for key, value in micro.items():
        unit = key.rsplit(".", 1)[1].split("_", 1)[0]
        put(key, value, "count" if unit == "iters" else unit)
    return out, {"traced_rounds": k, "untraced_rounds": len(plain)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ehdsolitary benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (common.SRC / "ehdsolitary").is_dir():
        print(f"no ehdsolitary package under {common.SRC}", file=sys.stderr)
        return 1
    ident = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run = job("run", *ident, "--seconds", str(args.seconds),
                  "--trace", str(args.trace))
        if args.trace:
            micro = job("micro", "--seed", str(args.seed))
            metrics, detail = per_layer(run, micro)
        else:
            setup = [run["setup_s"]] + [job("setup", *ident)["setup_s"]
                                        for _ in range(SETUP_PROBES)]
            metrics, detail = end_to_end(run, setup)
        env = environment()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = run["rounds"]
    unexpected = [u for r in rounds for u in r["unexpected"]]
    if args.trace:
        unexpected += [f"bypass broken: {name} = {metrics[name]['value']} > {limit}"
                       for name, limit in BYPASS.get(args.workload, ())
                       if metrics[name]["value"] > limit]
    result = {"correct": not unexpected,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "detail": detail, "unexpected": unexpected[:20]}
    common.OUT_DIR.mkdir(exist_ok=True)
    (common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result, "rounds": rounds}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
