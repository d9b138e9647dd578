"""The package names the traced benchmark (bench/spans.py, bench/worker.py
micro, bench/workloads.py) reaches through.

The tracer rebinds module attributes, so a layer it times must be called
through its module global; these tests fail when a call bypasses the global
or a name the bench imports goes away.  The tier-1 suite never runs the
bench itself.
"""
import json

import numpy as np
import pytest

from ehdsolitary import BaseParams, NewtonConfig, continuation, init_small, make_grid, newton
from ehdsolitary.cli import _auto_half_length
from ehdsolitary.continuation import ContinuationConfig
from ehdsolitary.io import save_branch
from ehdsolitary.system import residual


@pytest.fixture(scope="module")
def problem():
    """A perturbed small wave at N = 512: (t1, r, p, g)."""
    g = make_grid(256.0, 512)
    t0, p = init_small(0.02, BaseParams(0.0, 0.5), g)
    t1 = t0 * (1.0 + 1e-3 * np.cos(2.0 * np.pi * g.x / g.half_length))
    return t1, residual(t1, p, g), p, g


def counting(monkeypatch, module, name):
    """Rebind module.name to a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("solver", ["dense", "krylov"])
def test_linear_solver_option_accepted(solver):
    assert NewtonConfig(linear_solver=solver).linear_solver == solver


def test_dense_step_goes_through_dense_jacobian(problem, monkeypatch):
    t1, r, p, g = problem
    calls = counting(monkeypatch, newton, "dense_jacobian")
    dt = newton.solve_newton_step(t1, r, p, g, NewtonConfig(linear_solver="dense"))
    assert len(calls) == 1
    assert dt.shape == t1.shape


def test_krylov_step_goes_through_jacobian_apply(problem, monkeypatch):
    t1, r, p, g = problem
    calls = counting(monkeypatch, newton, "jacobian_apply")
    dense = counting(monkeypatch, newton, "dense_jacobian")
    dt = newton.solve_newton_step(t1, r, p, g, NewtonConfig(linear_solver="krylov"))
    assert len(calls) > 1 and not dense
    assert dt.shape == t1.shape


def test_continuation_binds_lu_factor():
    assert callable(continuation.lu_factor)


def test_nodal_check_once_per_accepted_point(monkeypatch):
    calls = counting(monkeypatch, continuation, "nodal_check")
    g = make_grid(_auto_half_length(1e-3, 0.5), 512)
    branch = continuation.continue_branch(BaseParams(0.0, 0.5), g,
                                          ContinuationConfig(max_points=4))
    assert branch.stop_reason == "BUDGET"
    assert len(calls) == len(branch.points) == 4


@pytest.mark.parametrize("grid, cfg, helpers", [
    # the default start at N = 128: refines and halvings
    (make_grid(_auto_half_length(1e-3, 0.5), 128), ContinuationConfig(max_points=6),
     ("refine_grid", "shrink_grid")),
    # a tail tolerance the initializer's box misses: a widening
    (make_grid(80.0, 256), ContinuationConfig(eps_start=0.05, tail_tol=1e-12, max_points=2),
     ("widen_grid",)),
], ids=["refine-shrink", "widen"])
def test_regrids_go_through_module_globals(monkeypatch, grid, cfg, helpers):
    # the traced continuation.{refine,widen,shrink}.calls count these calls
    calls = {name: counting(monkeypatch, continuation, name) for name in helpers}
    branch = continuation.continue_branch(BaseParams(0.0, 0.5), grid, cfg)
    assert branch.stop_reason == "BUDGET"
    for name in helpers:
        assert calls[name], name


@pytest.mark.parametrize("kwargs", [{"max_points": 45}, {}],
                         ids=["workloads", "make_fixtures"])
def test_continuation_config_the_bench_builds(kwargs):
    # bench/workloads.py cuts the default branch at 45 points;
    # bench/make_fixtures.py runs it with the defaults
    assert ContinuationConfig(**kwargs).max_points == kwargs.get("max_points", 500)


def test_branch_header_threshold_keys(tmp_path):
    # the saved header, and with it io.save_branch.bytes, keeps these keys
    # in this order
    g = make_grid(_auto_half_length(1e-3, 0.5), 512)
    branch = continuation.continue_branch(BaseParams(0.0, 0.5), g,
                                          ContinuationConfig(max_points=1))
    save_branch(tmp_path / "branch.jsonl", branch, {})
    with open(tmp_path / "branch.jsonl") as fh:
        header = json.loads(fh.readline())
    assert list(header["thresholds"]) == [
        "m1_tol", "m2_tol", "m3_cap", "f_cap", "tail_tol", "eps_start",
        "max_points"]
