import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ehdsolitary import (BaseParams, ContinuationConfig, NewtonConfig, init_small,
                         make_grid, make_params, newton_solve)
from ehdsolitary import cli
from ehdsolitary.cli import SETTINGS, main
from ehdsolitary.io import (
    FORMAT_VERSION,
    load_branch,
    load_solution,
    save_branch,
    save_solution,
    write_plot_columns,
)
from ehdsolitary.model import ValidationError, WaveSolution

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


@pytest.fixture(scope="module")
def wave(tmp_path_factory):
    base = BaseParams(0.0, 0.5)
    g = make_grid(224.0, 512)
    t0, p = init_small(0.01, base, g)
    return newton_solve(t0, p, g, NewtonConfig())


class TestSolutionRoundTrip:
    def test_bit_exact_trace(self, wave, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(path, wave, {"command": "test"})
        loaded, run_config, _ = load_solution(path)
        assert np.array_equal(loaded.t1, wave.t1)
        assert loaded.residual_norm == wave.residual_norm
        assert loaded.amplitude == wave.amplitude
        assert loaded.tail == wave.tail
        assert loaded.params == wave.params
        assert loaded.grid.half_length == wave.grid.half_length
        assert run_config == {"command": "test"}

    def test_derived_fields_reproducible(self, wave, tmp_path):
        from ehdsolitary.model import amplitude_of, tail_of
        path = tmp_path / "sol.json"
        save_solution(path, wave, {})
        loaded, _, _ = load_solution(path)
        assert abs(amplitude_of(loaded.t1, loaded.grid) - wave.amplitude) < 1e-14
        assert abs(tail_of(loaded.t1, loaded.grid) - wave.tail) < 1e-14
        assert abs(loaded.params.froude - wave.params.froude) < 1e-14

    def test_version_field_embedded(self, wave, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(path, wave, {"half_length": 224.0})
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["kind"] == "wave_solution"
        assert doc["run_config"]["half_length"] == 224.0

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "other", "format_version": 1}))
        with pytest.raises(ValueError, match="wave-solution"):
            load_solution(path)


class TestMalformedSolution:
    @pytest.mark.parametrize("key,mangle", [
        ("grid", lambda doc: doc.pop("grid")),
        ("t1", lambda doc: doc["t1"].update(hex=[1] * len(doc["t1"]["hex"]))),
    ])
    def test_diagnose_names_file_and_entry(self, wave, tmp_path, capsys, key, mangle):
        # a missing entry, or hex entries that are not strings, is a
        # validation error (exit 1), not a traceback
        path = tmp_path / "sol.json"
        save_solution(path, wave, {})
        doc = json.loads(path.read_text())
        mangle(doc)
        path.write_text(json.dumps(doc))
        assert main(["diagnose", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err


class TestBranchPersistence:
    def test_round_trip(self, tmp_path):
        from ehdsolitary import BranchPoint
        from ehdsolitary.continuation import Branch
        pts = [BranchPoint(s=float(i), alpha=1.4 - 0.01 * i, amplitude=0.01 * i,
                           monitor_m1=1.4, monitor_m2=1.0, monitor_m3=1.0 + 1e-3 * i,
                           froude=1.0, lambda_min=8.0, residual_norm=1e-12)
               for i in range(5)]
        br = Branch(points=pts, solutions=[], stop_reason="BUDGET", note="n")
        path = tmp_path / "branch.jsonl"
        save_branch(path, br, {"command": "continue"}, sidecar_every=0)
        loaded, stop, note, header = load_branch(path)
        assert stop == "BUDGET"
        assert note == "n"
        assert header["format_version"] == FORMAT_VERSION
        assert len(loaded) == 5
        assert loaded[3].alpha == pts[3].alpha
        assert loaded[3].s == pts[3].s

    def test_sidecars_written(self, wave, tmp_path):
        from ehdsolitary.continuation import Branch
        from ehdsolitary import BranchPoint
        pts = [BranchPoint(s=float(i), alpha=1.4, amplitude=0.01,
                           monitor_m1=1.4, monitor_m2=1.0, monitor_m3=1.0,
                           froude=1.0, lambda_min=8.0, residual_norm=1e-12)
               for i in range(7)]
        br = Branch(points=pts, solutions=[wave] * 7, stop_reason="BUDGET")
        path = tmp_path / "branch.jsonl"
        written = save_branch(path, br, {}, sidecar_every=3)
        # every 3rd point plus the final one
        assert [p.name for p in written] == \
            ["point_00000.json", "point_00003.json", "point_00006.json"]
        for p in written:
            sol, _, _ = load_solution(p)
            assert np.array_equal(sol.t1, wave.t1)

    @pytest.mark.parametrize("sidecar_every", [-1, -2])
    def test_negative_sidecar_every_refused_before_writing(self, wave, tmp_path,
                                                           sidecar_every):
        from ehdsolitary.continuation import Branch
        br = Branch(points=[], solutions=[wave] * 5, stop_reason="BUDGET")
        with pytest.raises(ValueError, match="sidecar_every"):
            save_branch(tmp_path / "branch.jsonl", br, {}, sidecar_every=sidecar_every)
        assert list(tmp_path.iterdir()) == []


class TestPlotColumns:
    def test_format(self, tmp_path):
        path = tmp_path / "curve.dat"
        write_plot_columns(path, [[1.0, 2.0], [3.0, 4.0]], ["a", "b"], {"c": 1})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# format_version:")
        assert lines[1].startswith("# run_config:")
        assert lines[2] == "# columns: a b"
        row = [float(v) for v in lines[3].split()]
        assert row == [1.0, 3.0]

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_plot_columns(tmp_path / "x.dat", [[1.0], [1.0, 2.0]], ["a", "b"], {})


class TestCliDispersion:
    def test_subcritical_no_root(self, capsys):
        assert main(["dispersion", "--gamma", "0", "--eps1", "0.5",
                     "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "no real root" in out
        assert "1.5" in out

    def test_root_reported(self, capsys):
        assert main(["dispersion", "--gamma", "0.2", "--eps1", "0.3",
                     "--alpha", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "root: k" in out
        root = float(out.split("root: k")[1].strip().lstrip("≈").strip())
        assert root == pytest.approx(0.69, abs=5e-3)

    def test_boundary_case(self, capsys):
        assert main(["dispersion", "--gamma", "0", "--eps1", "0",
                     "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "boundary case" in out

    def test_missing_alpha_is_validation_error(self, capsys):
        assert main(["dispersion", "--gamma", "0"]) == 1

    def test_invalid_params_exit_nonzero(self):
        assert main(["dispersion", "--gamma", "0", "--eps1", "-1",
                     "--alpha", "1.0"]) == 1

    def test_output_files(self, tmp_path):
        assert main(["dispersion", "--gamma", "0", "--eps1", "0.5",
                     "--alpha", "1.0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "dispersion.dat").exists()
        assert (tmp_path / "dispersion.json").exists()


class TestCliSolveAndDiagnose:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        rc = main(["solve", "--gamma", "0", "--eps1", "0.5", "--eps", "0.01",
                   "--half-length", "224", "--n-points", "512",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "solution.json").exists()
        assert (tmp_path / "profile.dat").exists()
        out = capsys.readouterr().out
        assert "converged" in out

    def test_solve_by_alpha(self, tmp_path):
        rc = main(["solve", "--gamma", "0", "--eps1", "0.5", "--alpha", "1.49",
                   "--half-length", "224", "--n-points", "512",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_solve_requires_exactly_one_speed_parameter(self):
        assert main(["solve", "--gamma", "0", "--eps1", "0.5"]) == 1
        assert main(["solve", "--gamma", "0", "--eps1", "0.5",
                     "--alpha", "1.0", "--eps", "0.01"]) == 1

    def test_diagnose_clean_solution(self, tmp_path, capsys):
        main(["solve", "--gamma", "0", "--eps1", "0.5", "--eps", "0.01",
              "--half-length", "224", "--n-points", "512",
              "--out", str(tmp_path)])
        rc = main(["diagnose", "--input", str(tmp_path / "solution.json")])
        assert rc == 0
        assert "all hard invariants hold" in capsys.readouterr().out

    def test_diagnose_corrupted_solution_exits_2(self, wave, tmp_path, capsys):
        t1 = wave.t1.copy()
        t1 += 1e-3 * np.cos(wave.grid.wavenumbers[2] * wave.grid.x)
        bad = WaveSolution(params=wave.params, grid=wave.grid, t1=t1,
                           residual_norm=wave.residual_norm,
                           amplitude=wave.amplitude, tail=wave.tail)
        path = tmp_path / "bad.json"
        save_solution(path, bad, {})
        rc = main(["diagnose", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        # the Bernoulli residual is named in the report
        assert "residual" in captured.out + captured.err

    def test_diagnose_requires_input(self):
        assert main(["diagnose"]) == 1


class TestCliConjugate:
    def test_report(self, capsys, tmp_path):
        rc = main(["conjugate", "--gamma", "0", "--eps1", "0.5",
                   "--alpha", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bore excluded: True" in out
        assert (tmp_path / "conjugate.json").exists()
        doc = json.loads((tmp_path / "conjugate.json").read_text())
        assert doc["bore_excluded"] is True
        assert doc["d_star"] == pytest.approx(1.31873, abs=1e-4)
        assert doc["format_version"] == FORMAT_VERSION

    def test_csv_format(self, tmp_path):
        cells = self._csv_matches_json(tmp_path, "1.0")
        assert cells["bore_excluded"] == "True"
        assert float(cells["d_star"]) == pytest.approx(1.31873, abs=1e-4)

    def test_csv_none_is_an_empty_cell(self, tmp_path):
        cells = self._csv_matches_json(tmp_path, "1.5")      # alpha_cr
        assert cells["d_star"] == cells["shat_at_star"] == ""

    @staticmethod
    def _csv_matches_json(tmp_path, alpha):
        """The CSV report holds every key of the JSON report in order: None
        as an empty cell, run_config as one JSON cell.  Returns its cells."""
        args = ["conjugate", "--gamma", "0", "--eps1", "0.5", "--alpha", alpha]
        assert main(args + ["--out", str(tmp_path / "csv"), "--format", "csv"]) == 0
        assert main(args + ["--out", str(tmp_path / "json")]) == 0
        with open(tmp_path / "csv" / "conjugate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        doc = json.loads((tmp_path / "json" / "conjugate.json").read_text())
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        cells = dict(rows[1:])
        assert list(cells) == list(doc)
        assert json.loads(cells["run_config"]) == doc["run_config"]
        for key, value in doc.items():
            if key != "run_config":
                assert cells[key] == ("" if value is None else str(value)), key
        return cells

    def test_csv_quotes_separators(self, tmp_path):
        cli._write_report(tmp_path, "r", {"reason": 'a, "b"', "violations": ["x", "y"]},
                          "csv", {"command": "c"})
        with open(tmp_path / "r.csv", newline="") as fh:
            cells = dict(list(csv.reader(fh))[1:])
        assert cells["reason"] == 'a, "b"'
        assert json.loads(cells["violations"]) == ["x", "y"]

    def test_no_critical_depth_is_a_validation_error(self, capsys):
        rc = main(["conjugate", "--gamma", "2", "--eps1", "0", "--alpha", "1"])
        assert rc == 1
        assert "no critical depth" in capsys.readouterr().err


class TestCliOde:
    def test_default_launches_write_eight_orbits(self, tmp_path, capsys):
        rc = main(["ode", "--gamma", "0", "--eps1", "0", "--out", str(tmp_path),
                   "--x-max", "5.0"])
        assert rc == 0
        files = sorted(tmp_path.glob("orbit_*.dat"))
        assert len(files) == 8
        out = capsys.readouterr().out
        assert "separatrix crest q0 = 1" in out

    def test_custom_launch_list(self, tmp_path):
        rc = main(["ode", "--q0-list", "0.5,1.0", "--out", str(tmp_path),
                   "--x-max", "3.0"])
        assert rc == 0
        assert len(list(tmp_path.glob("orbit_*.dat"))) == 2


@pytest.mark.parametrize("argv,field", [
    (["ode", "--dt", "0"], "dt"),
    (["ode", "--dt=-1e-3"], "dt"),
    (["ode", "--dt", "nan"], "dt"),
    (["ode", "--x-max", "nan"], "x_max"),
    (["ode", "--x-max", "-1"], "x_max"),
    (["ode", "--x-max", "inf"], "x_max"),
    (["continue", "--max-points", "0", "--n-points", "256"], "max_points"),
    (["continue", "--max-points=-2", "--n-points", "256"], "max_points"),
    (["continue", "--eps-start", "0", "--n-points", "256"], "eps"),
    (["solve", "--eps", "0", "--n-points", "256"], "eps"),
    (["continue", "--store-every=-1", "--n-points", "256"], "store_every"),
    (["continue", "--store-every=-2", "--n-points", "256"], "store_every"),
    (["solve", "--eps", "0.01", "--tol", "inf", "--n-points", "256",
      "--half-length", "200"], "tol"),
    (["continue", "--tol", "inf", "--max-points", "2", "--n-points", "256"], "tol")])
def test_out_of_range_settings_are_validation_errors(argv, field, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"validation error: {field}: ")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["dispersion", "--gamma", "0"], "alpha: --alpha is required"),
    (["conjugate", "--gamma", "0"], "alpha: --alpha is required"),
    (["diagnose"], "input: --input FILE is required")])
def test_missing_required_setting_is_a_validation_error(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {message}\n"
    assert captured.out == ""


def test_cli_defaults_are_the_library_defaults():
    assert SETTINGS["continue"]["eps_start"][1] == ContinuationConfig().eps_start
    assert SETTINGS["continue"]["max_points"][1] == ContinuationConfig().max_points
    for command in ("solve", "continue"):
        assert SETTINGS[command]["tol"][1] == NewtonConfig().tol


class TestCliContinue:
    def test_short_branch_run(self, tmp_path, capsys):
        rc = main(["continue", "--gamma", "0", "--eps1", "0.5",
                   "--eps-start", "0.01", "--max-points", "6",
                   "--n-points", "512", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 accepted points" in out
        pts, stop, note, header = load_branch(tmp_path / "branch.jsonl")
        assert len(pts) == 6
        assert stop == "BUDGET"
        assert (tmp_path / "branch_amplitude.dat").exists()
        assert (tmp_path / "branch_monitors.dat").exists()
        assert (tmp_path / "stop_report.json").exists()
        sidecars = list((tmp_path / "branch_solutions").glob("*.json"))
        assert sidecars

    def test_store_every_zero_writes_no_sidecars(self, tmp_path):
        rc = main(["continue", "--eps-start", "0.01", "--max-points", "2",
                   "--n-points", "512", "--store-every", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert len(load_branch(tmp_path / "branch.jsonl")[0]) == 2
        assert not (tmp_path / "branch_solutions").exists()

    def test_box_too_narrow_for_eps_start_exits_1(self, tmp_path, capsys):
        rc = main(["continue", "--gamma", "0", "--eps1", "0.5",
                   "--half-length", "32", "--n-points", "64",
                   "--max-points", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert "grid too narrow" in capsys.readouterr().err
        assert not (tmp_path / "branch.jsonl").exists()

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 0.0, "eps1": 0.5,
                                   "eps_start": 0.01, "max_points": 4,
                                   "n_points": 512}))
        out = tmp_path / "out"
        rc = main(["continue", "--config", str(cfg), "--max-points", "3",
                   "--out", str(out)])
        assert rc == 0
        pts, stop, _, header = load_branch(out / "branch.jsonl")
        assert len(pts) == 3          # flag wins over config
        assert header["run_config"]["eps_start"] == 0.01   # config wins over default


class TestReportLayout:
    """The printed and written reports keep their layout: the diagnose lines
    of a clean bench state, and the key order of the conjugate and stop
    reports in both formats."""

    DIAGNOSE = """\
diagnose {path}:
  residual_norm       = {residual_norm:.3e} (ok)
  bernoulli (fields)  = {bernoulli_fields:.3e} (ok)
  kinematic           = {kinematic:.3e} (ok)
  symmetry            = {symmetry_error:.3e} (ok)
  flow-force spread   = {spread:.3e} (ok)
  flux identity gap   = {rel_gap:.3e} (ok)
  froude bound        = ok
  nodal               = pass
  bound theta_y vs 1           degenerate-equality
  bound psi_y upper (gamma<=0) degenerate-equality
  bound psi_y lower (gamma>=0) pass
all hard invariants hold
"""

    def test_diagnose_lines(self, capsys):
        from ehdsolitary.diagnostics import full_report
        path = FIXTURES / "point_00020.json"
        rep = full_report(load_solution(path)[0])
        assert main(["diagnose", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == self.DIAGNOSE.format(
            path=path, spread=rep["flow_force"]["relative_spread"],
            rel_gap=rep["flux_identity"]["rel_gap"], **rep)

    @staticmethod
    def _reports(tmp_path, argv, name):
        """The report name written by argv in json and in csv, as ordered
        (key, value) pairs, the run_config left out."""
        out = {}
        for fmt in ("json", "csv"):
            assert main(argv + ["--out", str(tmp_path / fmt), "--format", fmt]) == 0
            if fmt == "json":
                doc = json.loads((tmp_path / fmt / f"{name}.json").read_text())
            else:
                with open(tmp_path / fmt / f"{name}.csv", newline="") as fh:
                    doc = dict(list(csv.reader(fh))[1:])
            out[fmt] = [(k, v) for k, v in doc.items() if k != "run_config"]
        return out

    def test_conjugate_keys(self, tmp_path):
        reports = self._reports(tmp_path, ["conjugate", "--gamma", "0", "--eps1", "0.5",
                                           "--alpha", "1.0"], "conjugate")
        keys = ["d_cr", "d_star", "qhat_at_1", "shat_at_1", "shat_at_star",
                "bore_excluded", "sign_consistent", "reason", "format_version"]
        assert [k for k, _ in reports["json"]] == keys
        assert [k for k, _ in reports["csv"]] == keys

    def test_stop_report(self, tmp_path):
        reports = self._reports(tmp_path, ["continue", "--n-points", "256",
                                           "--max-points", "1"], "stop_report")
        explanation = ("point budget exhausted before any limit indicator "
                       "triggered (point budget exhausted)")
        assert reports["json"] == [
            ("stop_reason", "BUDGET"), ("gamma_case", "gamma=0"),
            ("admissible", None), ("discrepancy", False),
            ("explanation", explanation), ("note", "point budget exhausted"),
            ("format_version", FORMAT_VERSION)]
        assert reports["csv"] == [
            ("stop_reason", "BUDGET"), ("gamma_case", "gamma=0"),
            ("admissible", ""), ("discrepancy", "False"),
            ("explanation", explanation), ("note", "point budget exhausted"),
            ("format_version", str(FORMAT_VERSION))]


class TestHexRoundTrip:
    def test_scalar_hex_exact_for_awkward_floats(self):
        from ehdsolitary.io import _hex_scalar, _unhex_scalar
        for v in (0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308,
                  0.1 + 0.2, np.pi, -np.e, 2.0 ** -1074):
            assert _unhex_scalar(_hex_scalar(v)) == v

    def test_array_round_trip_random(self):
        from hypothesis import given, strategies as st

        @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                  width=64), min_size=1, max_size=64))
        def run(values):
            from ehdsolitary.io import _hex_array, _unhex_array
            arr = np.array(values, dtype=float)
            assert np.array_equal(_unhex_array(_hex_array(arr)), arr)

        run()

    def test_array_decoding_matches_per_element_oracle(self):
        from ehdsolitary.io import _hex_array, _unhex_array
        fixture = json.loads((FIXTURES / "point_00020.json").read_text())["t1"]
        special = _hex_array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                              -1.7976931348623157e308, np.inf, -np.inf, np.nan])
        for obj in (fixture, special):
            oracle = np.array([float.fromhex(h) for h in obj["hex"]], dtype=float)
            decoded = _unhex_array(obj)
            assert decoded.dtype == oracle.dtype
            assert decoded.tobytes() == oracle.tobytes()


def test_solve_convergence_failure_maps_to_exit_3(monkeypatch, tmp_path):
    import ehdsolitary.cli as cli
    from ehdsolitary.newton import NoConvergence

    def boom(*args, **kwargs):
        raise NoConvergence("iteration budget exhausted at residual 1.0e-02")

    monkeypatch.setattr(cli, "newton_solve", boom)
    rc = cli.main(["solve", "--gamma", "0", "--eps1", "0.5", "--eps", "0.01",
                   "--half-length", "224", "--n-points", "512"])
    assert rc == 3


def test_continue_config_tunes_thresholds(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.0, "eps1": 0.5, "eps_start": 0.01,
                               "max_points": 3, "n_points": 512,
                               "m2_tol": 0.005, "tail_tol": 1e-8}))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    from ehdsolitary.io import load_branch
    _, _, _, header = load_branch(out / "branch.jsonl")
    assert header["thresholds"]["m2_tol"] == 0.005
    assert header["thresholds"]["tail_tol"] == 1e-8



@pytest.mark.parametrize("field,value", [
    ("tail_tol", -1), ("tail_tol", 0), ("m2_tol", "nan"), ("m1_tol", -0.01),
    ("m3_cap", "inf"), ("f_cap", 0)])
def test_continue_config_refuses_bad_thresholds(tmp_path, capsys, field, value):
    # a threshold that is not finite and > 0 would stall the box adaptation
    # (tail_tol) or silently switch a monitor off and put NaN in the header
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps_start": 0.01, "max_points": 2,
                               "n_points": 512, field: value}))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"validation error: {field}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_continue_with_no_accepted_point(monkeypatch, tmp_path, capsys):
    # the first converged point fails the nodal check, so the branch ends
    # before any point is accepted
    from ehdsolitary import continuation
    from ehdsolitary.diagnostics import NodalReport
    monkeypatch.setattr(continuation, "nodal_check", lambda *args, **kwargs:
                        NodalReport(passed=False, x_tail=1.0, violations=[(1.0, 0.5)]))
    rc = main(["continue", "--eps-start", "0.01", "--max-points", "2",
               "--n-points", "512", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    assert "0 accepted points" in captured.out and "STEP_FAILURE" in captured.out
    records = [json.loads(line)
               for line in (tmp_path / "branch.jsonl").read_text().splitlines()]
    assert [r["kind"] for r in records] == ["branch_header", "branch_end"]
    assert records[-1]["n_points"] == 0

def test_continue_config_rejects_unknown_keys(tmp_path, capsys):
    # step control is not configuration; a config that still sets it fails
    # instead of silently losing its effect
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.0, "eps1": 0.5, "eps_start": 0.01,
                               "max_points": 3, "n_points": 512,
                               "ds_shrink": 0.5}))
    assert main(["continue", "--config", str(cfg)]) == 1
    assert "ds_shrink" in capsys.readouterr().err


def test_config_with_retired_step_control_exits_at_once(tmp_path, capsys):
    # with ds_shrink = 1 a failed corrector step would be retried forever
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.9, "eps1": 0, "eps_start": 0.05,
                               "eps_growth": 3, "ds_max": 1, "ds_shrink": 1.0,
                               "max_points": 2, "n_points": 256}))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(k in err for k in ("ds_max", "ds_shrink", "eps_growth"))
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["dispersion", "--alpha", "1.0"], "alpah"),
    (["ode", "--q0-list", "1.0"], "q0_list"),
    (["conjugate", "--alpha", "1.0"], "max_points"),
], ids=["dispersion-typo", "ode-q0-list", "conjugate-continue-key"])
def test_config_keys_are_the_subcommand_flags(tmp_path, capsys, argv, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.0, key: 1.0}))
    assert main(argv + ["--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv,config,key", [
    (["dispersion"], {"gamma": True, "alpha": 1.0}, "gamma"),
    (["dispersion"], {"gamma": None, "alpha": 1.0}, "gamma"),
    (["solve"], {"n_points": 100.5, "eps": 0.01}, "n_points"),
], ids=["bool-for-float", "null-for-float", "fraction-for-int"])
def test_config_values_are_read_by_their_flag_type(tmp_path, capsys, argv,
                                                   config, key):
    # a config value is read as its flag's text would be on the command line
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["continue", "--eps", "0.01"],
    ["diagnose", "--input", "solution.json", "--gamma", "0"],
    ["diagnose", "--input", "solution.json", "--eps1", "0.5"],
    ["diagnose", "--input", "solution.json", "--config", "run.json"],
    ["solve", "--eps", "0.01", "--format", "csv"],
    ["ode", "--format", "json"],
    ["ode", "--eps", "0.01"],
    ["dispersion", "--alpha", "1.0", "--eps", "0.01"],
    ["solve", "--eps", "0.01", "--n-p", "512"],
], ids=["continue-eps", "diagnose-gamma", "diagnose-eps1", "diagnose-config",
        "solve-format", "ode-format", "ode-eps", "dispersion-eps-prefix",
        "solve-n-points-prefix"])
def test_unread_flags_are_rejected(argv, capsys):
    # a subcommand accepts only the flags it reads, spelled in full; argparse
    # exits with 2 (a prefix such as --eps is not read as --eps1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and argv[-2] in err


# --- the settings table ------------------------------------------------------

THRESHOLDS = {"m1_tol", "m2_tol", "m3_cap", "f_cap", "tail_tol"}
NON_NUMERIC = {"config", "out", "format", "input", "q0_list"}


def numeric_flags(command, capsys):
    """{flag: type} of the numeric flags the command's parser accepts, found
    from its help text and typed by what the parser makes of "3"."""
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
    flags -= {"--" + dest.replace("_", "-") for dest in NON_NUMERIC}
    return {flag: type(getattr(parser.parse_args([command, flag, "3"]),
                               flag[2:].replace("-", "_")))
            for flag in flags}


def config_keys(command, tmp_path):
    """{key: type} of the keys a --config file of the command may set, each
    typed by what the command reads from "3"."""
    candidates = set().union(*SETTINGS.values(), THRESHOLDS, NON_NUMERIC, {"eps_typo"})
    accepted = {}
    for key in sorted(candidates):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: "3"}))
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        try:
            accepted[key] = type(cli._settings(args, cli.CONTINUE_THRESHOLDS
                                               if command == "continue" else ())[key])
        except ValidationError as exc:
            assert "unknown key" in str(exc)
    return accepted


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_flags_config_keys_and_table_agree(command, tmp_path, capsys):
    table = {key: type_ for key, (type_, _) in SETTINGS[command].items()}
    assert numeric_flags(command, capsys) == {"--" + key.replace("_", "-"): type_
                                      for key, type_ in table.items()}
    if command == "diagnose":
        assert table == {}            # and diagnose takes no --config
        return
    extra = dict.fromkeys(THRESHOLDS, float) if command == "continue" else {}
    assert config_keys(command, tmp_path) == {**table, **extra}


def written_run_configs(out):
    """{file name: run_config} of every file a run wrote to out."""
    found = {}
    for path in sorted(out.rglob("*")):
        if path.suffix == ".dat":
            line = next(l for l in path.read_text().splitlines()
                        if l.startswith("# run_config:"))
            found[path.name] = json.loads(line.split(":", 1)[1])
        elif path.suffix == ".jsonl":
            found[path.name] = json.loads(path.read_text().splitlines()[0])["run_config"]
        elif path.suffix == ".json":
            found[path.name] = json.loads(path.read_text())["run_config"]
    return found


@pytest.mark.parametrize("argv,config,expected", [
    (["dispersion", "--gamma", "0.2", "--eps1", "0.3", "--alpha", "1.3"], None,
     {"command": "dispersion", "gamma": 0.2, "eps1": 0.3, "alpha": 1.3}),
    (["dispersion", "--alpha", "1.0"], None,
     {"command": "dispersion", "gamma": 0.0, "eps1": 0.5, "alpha": 1.0}),
    # the derived eps and alpha, and the box sized from eps
    (["solve", "--alpha", "1.49", "--n-points", "512"], None,
     {"command": "solve", "gamma": 0.0, "eps1": 0.5, "eps": 0.010000000000000009,
      "alpha": 1.49, "half_length": 224.0, "n_points": 512, "tol": 1e-11}),
    (["solve", "--alpha", "1.47"],
     {"eps1": 0.5, "n_points": 512, "half_length": 224, "tol": "1e-10"},
     {"command": "solve", "gamma": 0.0, "eps1": 0.5, "eps": 0.030000000000000027,
      "alpha": 1.47, "half_length": 224.0, "n_points": 512, "tol": 1e-10}),
    # flag over config over default; the config's thresholds are recorded
    (["continue", "--max-points", "2"],
     {"gamma": 0.0, "eps_start": 0.01, "max_points": 4, "n_points": 512,
      "m2_tol": 0.005, "tail_tol": 1e-8},
     {"command": "continue", "gamma": 0.0, "eps1": 0.5, "eps_start": 0.01,
      "max_points": 2, "half_length": 224.0, "n_points": 512, "tol": 1e-11,
      "store_every": 10, "m2_tol": 0.005, "tail_tol": 1e-8}),
    (["conjugate", "--gamma", "0.1", "--alpha", "1.0"], None,
     {"command": "conjugate", "gamma": 0.1, "eps1": 0.5, "alpha": 1.0}),
    (["ode", "--q0-list", "0.5,1.0", "--x-max", "2"], {"dt": 0.002},
     {"command": "ode", "gamma": 0.0, "eps1": 0.0, "dt": 0.002, "x_max": 2.0,
      "q0_list": [0.5, 1.0]}),
], ids=["dispersion", "dispersion-defaults", "solve-by-alpha", "solve-config",
        "continue-config", "conjugate", "ode"])
def test_run_config_records_the_resolved_settings(tmp_path, capsys, argv,
                                                  config, expected):
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    records = written_run_configs(out)
    assert records
    for name, record in records.items():
        if name.startswith("orbit_"):       # each orbit also records its launch
            assert record.pop("q0") == expected["q0_list"][int(name[6:8])]
        assert record == expected, name
