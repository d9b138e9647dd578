"""Command-line interface.

Subcommands: dispersion, solve, continue, diagnose, conjugate, ode.
Exit codes: 0 success, 1 validation error, 2 invariant violation,
3 convergence failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .conjugate import bore_verdict
from .continuation import (
    ContinuationConfig,
    classify_stop,
    continue_branch,
    init_small,
    initializer_decay,
)
from .diagnostics import full_report, hard_violations, physical_profile
from .io import (
    FORMAT_VERSION,
    atomic_write_text,
    save_branch,
    save_solution,
    load_solution,
    write_plot_columns,
)
from .model import BaseParams, ValidationError, make_grid, make_params
from .newton import NewtonConfig, NewtonError, NoConvergence, newton_solve
from .reduced_ode import OdeParams, phase_portrait
from .system import dispersion_root, linear_multiplier

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_NO_CONVERGENCE = 3

FIG4_LAUNCHES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def _auto_half_length(eps: float, eps1: float) -> float:
    """Box half-length comfortably holding the localized initializer."""
    required = initializer_decay(eps, BaseParams(0.0, eps1))[1]
    return float(np.ceil(required * 1.25 / 32.0) * 32.0)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValidationError("config", "configuration file must hold a JSON object")
    return obj


def _resolve(args, config, key, default):
    """Precedence: explicit flag > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _write_report(out_dir, name, payload, fmt, run_config):
    out_dir = Path(out_dir)
    payload = dict(payload)
    payload["format_version"] = FORMAT_VERSION
    payload["run_config"] = run_config
    if fmt == "csv":
        rows = [k for k in payload if isinstance(payload[k], (int, float, str, bool))]
        text = "key,value\n" + "\n".join(f"{k},{payload[k]}" for k in rows) + "\n"
        atomic_write_text(out_dir / f"{name}.csv", text)
    else:
        atomic_write_text(out_dir / f"{name}.json", json.dumps(payload, indent=1))


def cmd_dispersion(args) -> int:
    config = _load_config(args.config)
    gamma = _resolve(args, config, "gamma", 0.0)
    eps1 = _resolve(args, config, "eps1", 0.5)
    alpha = _resolve(args, config, "alpha", None)
    if alpha is None:
        print("dispersion: --alpha is required", file=sys.stderr)
        return EXIT_VALIDATION
    p = make_params(gamma, eps1, alpha)
    run_config = {"command": "dispersion", "gamma": gamma, "eps1": eps1,
                  "alpha": alpha}

    ks = np.linspace(0.0, 5.0, 26)
    ms = linear_multiplier(ks, p)
    print(f"linearization multiplier m(k), gamma={gamma} eps1={eps1} alpha={alpha}")
    print(f"{'k':>8}  {'m(k)':>14}")
    for k, m in zip(ks, ms):
        print(f"{k:8.3f}  {m:14.6e}")

    root = dispersion_root(p)
    if root is not None:
        print(f"root: k ≈ {root:.6f}")
    elif abs(p.alpha - p.alpha_cr) < 1e-12:
        print(f"no real root; alpha = alpha_cr = {p.alpha_cr} boundary case k = 0")
    else:
        print(f"no real root (alpha < alpha_cr = {p.alpha_cr})")

    if args.out:
        write_plot_columns(Path(args.out) / "dispersion.dat", [ks, ms],
                           ["k", "m"], run_config)
        _write_report(args.out, "dispersion",
                      {"root": root, "alpha_cr": p.alpha_cr}, args.format,
                      run_config)
    return EXIT_OK


def _solve_common(args, config):
    gamma = _resolve(args, config, "gamma", 0.0)
    eps1 = _resolve(args, config, "eps1", 0.5)
    alpha = _resolve(args, config, "alpha", None)
    eps = _resolve(args, config, "eps", None)
    base = BaseParams(gamma, eps1)
    if (alpha is None) == (eps is None):
        raise ValidationError("alpha", "pass exactly one of --alpha or --eps")
    if eps is None:
        eps = base.alpha_cr - alpha
        if eps <= 0:
            raise ValidationError("alpha", "alpha must lie below alpha_cr")
    half_length = _resolve(args, config, "half_length", None)
    if half_length is None:
        half_length = _auto_half_length(eps, eps1)
    n_points = int(_resolve(args, config, "n_points", 1024))
    tol = float(_resolve(args, config, "tol", 1e-11))
    g = make_grid(half_length, n_points)
    return base, float(eps), g, tol


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    base, eps, g, tol = _solve_common(args, config)
    run_config = {"command": "solve", "gamma": base.gamma, "eps1": base.eps1,
                  "eps": eps, "alpha": base.alpha_cr - eps,
                  "half_length": g.half_length, "n_points": g.n_points,
                  "tol": tol}
    t_init, p = init_small(eps, base, g)
    ncfg = NewtonConfig(tol=tol)
    sol = newton_solve(t_init, p, g, ncfg)
    print(f"converged: alpha={p.alpha:.12g} amplitude={sol.amplitude:.10e} "
          f"residual={sol.residual_norm:.3e} tail={sol.tail:.3e} "
          f"iterations={len(sol.norm_history) - 1}")
    if args.out:
        out = Path(args.out)
        report = full_report(sol)
        save_solution(out / "solution.json", sol, run_config, report)
        prof = physical_profile(sol)
        write_plot_columns(out / "profile.dat",
                           [[pt.X for pt in prof.points],
                            [pt.Y for pt in prof.points]],
                           ["X", "Y"], run_config)
        print(f"wrote {out / 'solution.json'} and {out / 'profile.dat'}")
    return EXIT_OK


def cmd_continue(args) -> int:
    config = _load_config(args.config)
    gamma = _resolve(args, config, "gamma", 0.0)
    eps1 = _resolve(args, config, "eps1", 0.5)
    eps_start = float(_resolve(args, config, "eps_start", 1e-3))
    max_points = int(_resolve(args, config, "max_points", 500))
    half_length = _resolve(args, config, "half_length", None)
    if half_length is None:
        half_length = _auto_half_length(eps_start, eps1)
    n_points = int(_resolve(args, config, "n_points", 1024))
    tol = float(_resolve(args, config, "tol", 1e-11))
    store_every = int(_resolve(args, config, "store_every", 10))

    base = BaseParams(gamma, eps1)
    g = make_grid(half_length, n_points)
    # any further continuation knob may ride in the config file by field name
    tunable = {f.name for f in dataclasses.fields(ContinuationConfig)} \
        - {"eps_start", "max_points", "newton"}
    extra = {k: config[k] for k in config if k in tunable}
    cfg = ContinuationConfig(eps_start=eps_start, max_points=max_points,
                             newton=NewtonConfig(tol=tol), **extra)
    run_config = {"command": "continue", "gamma": gamma, "eps1": eps1,
                  "eps_start": eps_start, "max_points": max_points,
                  "half_length": half_length, "n_points": n_points,
                  "tol": tol, "store_every": store_every, **extra}

    branch = continue_branch(base, g, cfg)
    report = classify_stop(branch, base.with_alpha(branch.points[-1].alpha))
    print(f"branch: {len(branch.points)} accepted points, "
          f"stop_reason={branch.stop_reason}")
    print(f"classification [{report.gamma_case}]: {report.explanation}")
    if report.discrepancy:
        print("WARNING: trigger outside the admissible limit set", file=sys.stderr)

    if args.out:
        out = Path(args.out)
        save_branch(out / "branch.jsonl", branch, run_config,
                    sidecar_every=store_every)
        pts = branch.points
        write_plot_columns(out / "branch_amplitude.dat",
                           [[pt.alpha for pt in pts],
                            [pt.amplitude for pt in pts]],
                           ["alpha", "amplitude"], run_config)
        write_plot_columns(out / "branch_monitors.dat",
                           [[pt.s for pt in pts],
                            [pt.monitor_m1 for pt in pts],
                            [pt.monitor_m2 for pt in pts],
                            [pt.monitor_m3 for pt in pts],
                            [pt.froude for pt in pts]],
                           ["s", "m1", "m2", "m3", "froude"], run_config)
        _write_report(args.out, "stop_report",
                      {"stop_reason": report.stop_reason,
                       "gamma_case": report.gamma_case,
                       "admissible": report.admissible,
                       "discrepancy": report.discrepancy,
                       "explanation": report.explanation,
                       "note": branch.note}, args.format, run_config)
        print(f"wrote {out / 'branch.jsonl'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = _load_config(args.config)
    if args.input is None:
        print("diagnose: --input FILE is required", file=sys.stderr)
        return EXIT_VALIDATION
    sol, run_config, _ = load_solution(args.input)
    report = full_report(sol)
    bad = hard_violations(report)
    print(f"diagnose {args.input}:")
    print(f"  residual_norm       = {report['residual_norm']:.3e} "
          f"({'ok' if report['residual_ok'] else 'VIOLATED'})")
    print(f"  bernoulli (fields)  = {report['bernoulli_fields']:.3e} "
          f"({'ok' if report['bernoulli_ok'] else 'VIOLATED'})")
    print(f"  kinematic           = {report['kinematic']:.3e} "
          f"({'ok' if report['kinematic_ok'] else 'VIOLATED'})")
    print(f"  symmetry            = {report['symmetry_error']:.3e} "
          f"({'ok' if report['symmetry_ok'] else 'VIOLATED'})")
    print(f"  flow-force spread   = {report['flow_force']['relative_spread']:.3e} "
          f"({'ok' if report['flow_force']['ok'] else 'VIOLATED'})")
    print(f"  flux identity gap   = {report['flux_identity']['rel_gap']:.3e} "
          f"({'ok' if report['flux_identity']['ok'] else 'VIOLATED'})")
    print(f"  froude bound        = "
          f"{'ok' if report['froude_bound_ok'] else 'VIOLATED'}")
    print(f"  nodal               = "
          f"{'pass' if report['nodal']['passed'] else 'violations: ' + str(report['nodal']['violation_count'])}")
    for c in report["stream_potential_bounds"]:
        print(f"  bound {c['name']:<22} {c['status']}")
    if args.out:
        _write_report(args.out, "diagnose_report", {"violations": bad},
                      args.format, {"command": "diagnose", "input": str(args.input)})
        atomic_write_text(Path(args.out) / "diagnose_full.json",
                          json.dumps({"format_version": FORMAT_VERSION,
                                      "run_config": run_config,
                                      "report": report}, indent=1, default=str))
    if bad:
        print(f"hard invariant violation(s): {', '.join(bad)}", file=sys.stderr)
        return EXIT_INVARIANT
    print("all hard invariants hold")
    return EXIT_OK


def cmd_conjugate(args) -> int:
    config = _load_config(args.config)
    gamma = _resolve(args, config, "gamma", 0.0)
    eps1 = _resolve(args, config, "eps1", 0.5)
    alpha = _resolve(args, config, "alpha", None)
    if alpha is None:
        print("conjugate: --alpha is required", file=sys.stderr)
        return EXIT_VALIDATION
    p = make_params(gamma, eps1, alpha)
    rep = bore_verdict(p)
    run_config = {"command": "conjugate", "gamma": gamma, "eps1": eps1,
                  "alpha": alpha}
    print(f"critical depth      d_cr   = {rep.d_cr:.12g}")
    print(f"conjugate depth     d_star = "
          f"{'none' if rep.d_star is None else f'{rep.d_star:.12g}'}")
    print(f"bernoulli at d=1           = {rep.qhat_at_1:.12g}")
    print(f"flow force at d=1          = {rep.shat_at_1:.12g}")
    if rep.shat_at_star is not None:
        print(f"flow force at d_star       = {rep.shat_at_star:.12g}")
    print(f"bore excluded: {rep.bore_excluded} ({rep.reason})")
    if args.out:
        _write_report(args.out, "conjugate",
                      {"d_cr": rep.d_cr, "d_star": rep.d_star,
                       "qhat_at_1": rep.qhat_at_1, "shat_at_1": rep.shat_at_1,
                       "shat_at_star": rep.shat_at_star,
                       "bore_excluded": rep.bore_excluded,
                       "sign_consistent": rep.sign_consistent,
                       "reason": rep.reason}, args.format, run_config)
    return EXIT_OK


def cmd_ode(args) -> int:
    config = _load_config(args.config)
    gamma = _resolve(args, config, "gamma", 0.0)
    eps1 = _resolve(args, config, "eps1", 0.0)
    eps = float(_resolve(args, config, "eps", 0.0))
    dt = float(_resolve(args, config, "dt", 1e-3))
    x_max = float(_resolve(args, config, "x_max", 20.0))
    if args.q0_list:
        launches = [float(v) for v in args.q0_list.split(",")]
    else:
        launches = list(FIG4_LAUNCHES)
    p = OdeParams(gamma=gamma, eps1=eps1, eps=eps)
    run_config = {"command": "ode", "gamma": gamma, "eps1": eps1, "eps": eps,
                  "dt": dt, "x_max": x_max, "q0_list": launches}
    orbits = phase_portrait(p, launches, dt=dt, x_max=x_max)
    print(f"separatrix crest q0 = {p.q0:.12g}; quadratic coefficient = {p.c2:.12g}")
    for q0, orb in zip(launches, orbits):
        print(f"orbit from ({q0}, 0): {len(orb.q)} samples, "
              f"energy drift {orb.energy_drift:.2e}"
              f"{', escaped' if orb.escaped else ''}"
              f"{', STEP-SIZE WARNING' if orb.step_warning else ''}")
    if args.out:
        out = Path(args.out)
        for i, (q0, orb) in enumerate(zip(launches, orbits)):
            write_plot_columns(out / f"orbit_{i:02d}.dat", [orb.q, orb.p],
                               ["Q", "P"], {**run_config, "q0": q0})
        print(f"wrote {len(orbits)} orbit files to {out}")
    return EXIT_OK


def _add_common(sp, *, alpha=False, eps=False, grid=False):
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--eps1", type=float, default=None)
    if alpha:
        sp.add_argument("--alpha", type=float, default=None)
    if eps:
        sp.add_argument("--eps", type=float, default=None)
    if grid:
        sp.add_argument("--half-length", dest="half_length", type=float, default=None)
        sp.add_argument("--n-points", dest="n_points", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ehdsolitary",
        description=("Solitary electrohydrodynamic water waves with constant "
                     "vorticity: spectral solver, branch continuation, and "
                     "identity checks"))
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dispersion", help="linearization multiplier table and root")
    _add_common(sp, alpha=True)
    sp.set_defaults(func=cmd_dispersion)

    sp = sub.add_parser("solve", help="one Newton solve from the asymptotic initializer")
    _add_common(sp, alpha=True, eps=True, grid=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("continue", help="follow the solitary branch")
    _add_common(sp, eps=True, grid=True)
    sp.add_argument("--eps-start", dest="eps_start", type=float, default=None)
    sp.add_argument("--max-points", dest="max_points", type=int, default=None)
    sp.add_argument("--store-every", dest="store_every", type=int, default=None)
    sp.set_defaults(func=cmd_continue)

    sp = sub.add_parser("diagnose", help="re-run all checks on a stored solution")
    sp.add_argument("--input", type=str, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("conjugate", help="laminar conjugate-flow report")
    _add_common(sp, alpha=True)
    sp.set_defaults(func=cmd_conjugate)

    sp = sub.add_parser("ode", help="reduced planar dynamics phase portrait")
    _add_common(sp, eps=True)
    sp.add_argument("--q0-list", dest="q0_list", type=str, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--x-max", dest="x_max", type=float, default=None)
    sp.set_defaults(func=cmd_ode)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoConvergence as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except NewtonError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
