"""Command-line interface.

Subcommands: dispersion, solve, continue, diagnose, conjugate, ode.
Exit codes: 0 success, 1 validation error, 2 invariant violation,
3 convergence failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from io import StringIO
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


# Each subcommand's numeric settings, dest -> (type, default); the command
# derives a None default.  This one table gives the flags (--dest, its
# underscores written as dashes), the keys a --config file may set and the
# type each value is read with, the defaults, and the resolved values each
# run records as its run_config.  tol, eps_start and max_points default to
# the library's NewtonConfig and ContinuationConfig.
_PARAMS = {"gamma": (float, 0.0), "eps1": (float, 0.5)}
_GRID = {"half_length": (float, None), "n_points": (int, 1024),
         "tol": (float, NewtonConfig.tol)}
SETTINGS = {
    "dispersion": {**_PARAMS, "alpha": (float, None)},
    "solve": {**_PARAMS, "eps": (float, None), "alpha": (float, None), **_GRID},
    "continue": {**_PARAMS, "eps_start": (float, ContinuationConfig.eps_start),
                 "max_points": (int, ContinuationConfig.max_points),
                 **_GRID, "store_every": (int, 10)},
    "diagnose": {},
    "conjugate": {**_PARAMS, "alpha": (float, None)},
    "ode": {"gamma": (float, 0.0), "eps1": (float, 0.0), "dt": (float, 1e-3),
            "x_max": (float, 20.0)},
}
# besides its flags, a continue config may set the stop thresholds
CONTINUE_THRESHOLDS = tuple(f.name for f in dataclasses.fields(ContinuationConfig)
                            if f.name not in ("eps_start", "max_points", "newton"))


def _auto_half_length(eps: float, eps1: float) -> float:
    """Box half-length comfortably holding the localized initializer."""
    required = initializer_decay(eps, BaseParams(0.0, eps1))[1]
    return float(np.ceil(required * 1.25 / 32.0) * 32.0)


def _settings(args, extra=()):
    """The subcommand's run_config: its command and its SETTINGS, each as
    the flag gives it, else as the --config file sets it, else the default.
    The file holds a JSON object whose keys are the subcommand's settings,
    each value read by its type from its text as on the command line, and
    extra, read as floats; any other key (a typo or a retired setting) or
    unreadable value is a validation error."""
    table = SETTINGS[args.command]
    run_config = {"command": args.command,
                  **{key: default for key, (_, default) in table.items()}}
    if args.config is not None:
        with open(args.config) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValidationError("config", "configuration file must hold a JSON object")
        types = {**{key: type_ for key, (type_, _) in table.items()},
                 **dict.fromkeys(extra, float)}
        unknown = sorted(set(obj) - set(types))
        if unknown:
            raise ValidationError("config", f"unknown key(s) {', '.join(unknown)} "
                                  f"for {args.command}")
        for key, value in obj.items():
            try:
                run_config[key] = types[key](str(value))
            except ValueError:
                raise ValidationError(key, f"config value {value!r} cannot be "
                                      f"read as {types[key].__name__}") from None
    run_config.update((key, getattr(args, key)) for key in table
                      if getattr(args, key) is not None)
    return run_config


def _write_report(out_dir, name, payload, fmt, run_config):
    out_dir = Path(out_dir)
    payload = dict(payload)
    payload["format_version"] = FORMAT_VERSION
    payload["run_config"] = run_config
    if fmt == "csv":
        # one key,value row per entry: None is an empty cell, a dict or list
        # (run_config, violations) one JSON cell
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            writer.writerow([key, "" if value is None else value])
        atomic_write_text(out_dir / f"{name}.csv", buf.getvalue())
    else:
        atomic_write_text(out_dir / f"{name}.json", json.dumps(payload, indent=1))


def cmd_dispersion(args) -> int:
    run_config = _settings(args)
    gamma, eps1, alpha = (run_config[k] for k in ("gamma", "eps1", "alpha"))
    if alpha is None:
        raise ValidationError("alpha", "--alpha is required")
    p = make_params(gamma, eps1, alpha)

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


def cmd_solve(args) -> int:
    run_config = _settings(args)
    base = BaseParams(run_config["gamma"], run_config["eps1"])
    alpha, eps = run_config["alpha"], run_config["eps"]
    if (alpha is None) == (eps is None):
        raise ValidationError("alpha", "pass exactly one of --alpha or --eps")
    if eps is None:
        eps = base.alpha_cr - alpha
        if eps <= 0:
            raise ValidationError("alpha", "alpha must lie below alpha_cr")
    if run_config["half_length"] is None:
        run_config["half_length"] = _auto_half_length(eps, base.eps1)
    g = make_grid(run_config["half_length"], run_config["n_points"])
    run_config.update(eps=eps, alpha=base.alpha_cr - eps)
    t_init, p = init_small(eps, base, g)
    sol = newton_solve(t_init, p, g, NewtonConfig(tol=run_config["tol"]))
    print(f"converged: alpha={p.alpha:.12g} amplitude={sol.amplitude:.10e} "
          f"residual={sol.residual_norm:.3e} tail={sol.tail:.3e} "
          f"iterations={len(sol.norm_history) - 1}")
    if args.out:
        out = Path(args.out)
        report = full_report(sol)
        save_solution(out / "solution.json", sol, run_config, report)
        prof = physical_profile(sol)
        write_plot_columns(out / "profile.dat", [prof.X, prof.Y],
                           ["X", "Y"], run_config)
        print(f"wrote {out / 'solution.json'} and {out / 'profile.dat'}")
    return EXIT_OK


def cmd_continue(args) -> int:
    run_config = _settings(args, CONTINUE_THRESHOLDS)
    if run_config["store_every"] < 0:
        raise ValidationError("store_every", "must be >= 0 (0 writes no sidecars)")
    if run_config["half_length"] is None:
        run_config["half_length"] = _auto_half_length(run_config["eps_start"],
                                                      run_config["eps1"])
    base = BaseParams(run_config["gamma"], run_config["eps1"])
    g = make_grid(run_config["half_length"], run_config["n_points"])
    cfg = ContinuationConfig(
        eps_start=run_config["eps_start"], max_points=run_config["max_points"],
        newton=NewtonConfig(tol=run_config["tol"]),
        **{k: run_config[k] for k in CONTINUE_THRESHOLDS if k in run_config})

    branch = continue_branch(base, g, cfg)
    report = classify_stop(branch, base)
    print(f"branch: {len(branch.points)} accepted points, "
          f"stop_reason={branch.stop_reason}")
    print(f"classification [{report.gamma_case}]: {report.explanation}")
    if report.discrepancy:
        print("WARNING: trigger outside the admissible limit set", file=sys.stderr)

    if args.out:
        out = Path(args.out)
        save_branch(out / "branch.jsonl", branch, run_config,
                    sidecar_every=run_config["store_every"])
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
                      {**dataclasses.asdict(report), "note": branch.note},
                      args.format, run_config)
        print(f"wrote {out / 'branch.jsonl'}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.input is None:
        raise ValidationError("input", "--input FILE is required")
    sol, run_config, _ = load_solution(args.input)
    report = full_report(sol)
    bad = hard_violations(report)
    ff, flux = report["flow_force"], report["flux_identity"]
    print(f"diagnose {args.input}:")
    for label, value, ok in (
            ("residual_norm", report["residual_norm"], report["residual_ok"]),
            ("bernoulli (fields)", report["bernoulli_fields"], report["bernoulli_ok"]),
            ("kinematic", report["kinematic"], report["kinematic_ok"]),
            ("symmetry", report["symmetry_error"], report["symmetry_ok"]),
            ("flow-force spread", ff["relative_spread"], ff["ok"]),
            ("flux identity gap", flux["rel_gap"], flux["ok"])):
        print(f"  {label:<20}= {value:.3e} ({'ok' if ok else 'VIOLATED'})")
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
    run_config = _settings(args)
    gamma, eps1, alpha = (run_config[k] for k in ("gamma", "eps1", "alpha"))
    if alpha is None:
        raise ValidationError("alpha", "--alpha is required")
    p = make_params(gamma, eps1, alpha)
    rep = bore_verdict(p)
    print(f"critical depth      d_cr   = {rep.d_cr:.12g}")
    print(f"conjugate depth     d_star = "
          f"{'none' if rep.d_star is None else f'{rep.d_star:.12g}'}")
    print(f"bernoulli at d=1           = {rep.qhat_at_1:.12g}")
    print(f"flow force at d=1          = {rep.shat_at_1:.12g}")
    if rep.shat_at_star is not None:
        print(f"flow force at d_star       = {rep.shat_at_star:.12g}")
    print(f"bore excluded: {rep.bore_excluded} ({rep.reason})")
    if args.out:
        _write_report(args.out, "conjugate", dataclasses.asdict(rep),
                      args.format, run_config)
    return EXIT_OK


def cmd_ode(args) -> int:
    run_config = _settings(args)
    if args.q0_list:
        launches = [float(v) for v in args.q0_list.split(",")]
    else:
        launches = list(FIG4_LAUNCHES)
    run_config["q0_list"] = launches
    p = OdeParams(gamma=run_config["gamma"], eps1=run_config["eps1"])
    orbits = phase_portrait(p, launches, dt=run_config["dt"],
                            x_max=run_config["x_max"])
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


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command.  It takes --config and a flag per setting
    when SETTINGS lists any, and --out; abbreviated flags are refused, so no
    prefix is silently read as another setting."""
    ap = argparse.ArgumentParser(
        prog="ehdsolitary",
        description=("Solitary electrohydrodynamic water waves with constant "
                     "vorticity: spectral solver, branch continuation, and "
                     "identity checks"))
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, report, help_ in (
            ("dispersion", cmd_dispersion, True,
             "linearization multiplier table and root"),
            ("solve", cmd_solve, False,
             "one Newton solve from the asymptotic initializer"),
            ("continue", cmd_continue, True, "follow the solitary branch"),
            ("diagnose", cmd_diagnose, True, "re-run all checks on a stored solution"),
            ("conjugate", cmd_conjugate, True, "laminar conjugate-flow report"),
            ("ode", cmd_ode, False, "reduced planar dynamics phase portrait")):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        if SETTINGS[name]:
            sp.add_argument("--config", type=str)
        for dest, (type_, _) in SETTINGS[name].items():
            sp.add_argument("--" + dest.replace("_", "-"), type=type_)
        sp.add_argument("--out", type=str)
        if report:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.set_defaults(func=func)
    sub.choices["diagnose"].add_argument("--input", type=str)
    sub.choices["ode"].add_argument("--q0-list", type=str)
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
