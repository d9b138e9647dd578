"""Tests of the benchmark's own code (not of the package):

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 7]
    s = [spans.Span("x.a", 0.0, 10.0, -1), spans.Span("x.b", 1.0, 4.0, 0),
         spans.Span("x.d", 2.0, 3.0, 1), spans.Span("x.c", 5.0, 7.0, 0)]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    # the self times of a tree add up to its root's duration
    assert sum(spans.self_times(s)) == pytest.approx(10.0)


def test_tracer_records_nested_calls_and_layer_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.span("spectral.inner", lambda t: t)

    def outer_fn(t):
        inner(t)
        return inner(t)

    outer = tracer.span("system.outer", outer_fn)
    tracer.enabled = True
    outer(np.zeros((3, 8)))
    # clock reads: outer 0, inner 1..2, inner 3..4, outer end 5
    agg = spans.aggregate(tracer.spans)
    assert agg["names"]["system.outer"]["s"] == 5.0
    assert agg["names"]["spectral.inner"]["calls"] == 2
    assert agg["layer_self_s"] == {"system": 3.0, "spectral": 2.0}


def test_tracer_marks_raised_calls_and_restores_bindings():
    from ehdsolitary import newton

    original = newton.newton_solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert newton.newton_solve is not original
        tracer.enabled = True
        with pytest.raises(newton.NewtonError):
            from ehdsolitary.model import make_grid, make_params
            newton.newton_solve(np.zeros(16), make_params(0.0, 0.0, 2.0),
                                make_grid(8.0, 16))
    finally:
        tracer.uninstall()
    assert newton.newton_solve is original
    agg = spans.aggregate(tracer.spans)
    assert agg["names"]["newton.newton_solve"]["raised"] == 1


@pytest.mark.parametrize("q, needed", [(0.5, 20), (0.75, 40), (0.9, 100)])
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    samples = list(range(needed))
    assert common.has_tail(needed, q)
    common.percentile(samples, q)
    with pytest.raises(common.TooFewSamples):
        common.percentile(samples[:-1], q)


def test_percentile_interpolates_order_statistics():
    xs = list(range(41))
    assert common.percentile(xs[::-1], 0.75) == pytest.approx(30.0)
    assert common.percentile(xs, 0.5) == pytest.approx(20.0)


def input_bytes(inputs) -> bytes:
    """Canonical bytes of generated inputs."""
    if isinstance(inputs, np.ndarray):
        return inputs.tobytes()
    if isinstance(inputs, (list, tuple)):
        return b"|".join(input_bytes(v) for v in inputs)
    return repr(inputs).encode()


def _inputs(name, seed, rounds=2):
    wl = workloads.WORKLOADS[name](seed, Path("."))
    wl.setup()
    return b"#".join(input_bytes(wl.next_inputs()) for _ in range(rounds))


def test_same_seed_gives_identical_inputs():
    assert _inputs("verify", 7) == _inputs("verify", 7)
    assert _inputs("verify", 7) != _inputs("verify", 8)


def test_forced_failure_counts_in_ops_ok_ratio():
    from ehdsolitary.model import make_grid, make_params

    # a constant trace is no solution: its residual is far above TOL
    bad = SimpleNamespace(t1=np.ones(64), grid=make_grid(8.0, 64),
                          params=make_params(0.0, 0.5, 1.0))
    rnd = workloads.Round(op_seconds=[0.1] * 40)
    workloads.check_point(bad, rnd, "forced failure")
    rnd.record(True)
    assert (rnd.attempted, rnd.failed) == (2, 1)
    assert len(rnd.unexpected) == 1

    run_record = {"peak_rss_mb": 1.0,
                  "rounds": [{"wall": 1.0, "op_seconds": rnd.op_seconds,
                              "attempted": rnd.attempted, "failed": rnd.failed}]}
    metrics, _ = run.end_to_end(run_record, [0.5])
    assert metrics["ops_ok_ratio"]["value"] == pytest.approx(0.5)


def test_branch_that_always_raises_ends_the_run_and_counts_as_failed(monkeypatch):
    from ehdsolitary import continuation
    from ehdsolitary.newton import NoConvergence

    def fail(*args, **kwargs):
        raise NoConvergence("forced failure")

    monkeypatch.setattr(continuation, "continue_branch", fail)
    wl = workloads.DefaultBranch(0, Path("."))
    wl.setup()
    rounds = worker.run_rounds(wl, 0.2, None)
    assert len(rounds) >= worker.MIN_ROUNDS
    assert all(r.attempted == r.failed == 1 and not r.op_seconds for _, r in rounds)

    run_record = {"peak_rss_mb": 1.0,
                  "rounds": [dataclasses.asdict(r) for _, r in rounds]}
    metrics, record = run.end_to_end(run_record, [0.5])
    assert metrics["ops_ok_ratio"]["value"] == 0.0
    assert metrics["ops_per_s"]["value"] == 0.0
    assert "op_s.p50" not in record


def test_known_violation_fails_the_operation_but_not_the_run():
    wl = workloads.Verify(0, Path("."))
    wl.setup()
    report = {"residual_ok": True, "symmetry_ok": True, "lambda_ok": True,
              "froude_bound_ok": True, "bernoulli_ok": True, "kinematic_ok": True,
              "flow_force": {"ok": True}, "flux_identity": {"ok": True},
              "asymptotic_fields": {"ok": False}}
    orbits = [SimpleNamespace(escaped=e) for e in (False, False) + (True,) * 6]
    rnd = workloads.Round()
    wl.check(rnd, ([(56, report), (35, report)], [], orbits))
    assert (rnd.attempted, rnd.failed) == (4, 2)
    # state 56 is in the known-defect ledger, state 35 is not
    assert len(rnd.unexpected) == 1 and "state 35" in rnd.unexpected[0]


def test_fixture_hash_check_rejects_an_edited_state(tmp_path, monkeypatch):
    common.check_fixtures()
    state = tmp_path / "point_00000.json"
    state.write_bytes(common.state_path(0).read_bytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"files": {state.name: common.sha256_of(state)}}))
    monkeypatch.setattr(common, "FIXTURES", tmp_path)
    monkeypatch.setattr(common, "MANIFEST", manifest)
    common.check_fixtures()
    state.write_bytes(state.read_bytes().replace(b"0x1", b"0x2", 1))
    with pytest.raises(common.FixtureError, match="point_00000.json"):
        common.check_fixtures()
