"""End-to-end tests of the command line interface.

Most tests run ``cli.main`` in-process and read its output with ``capsys``;
the entry point, the exit codes of a whole process and byte-identical reruns
are tested on fresh ``python -m serrin.cli`` processes.
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import serrin.solver as solver_module
from serrin import CSV_COLUMNS, DomainSpec, FourierCurve, cli, read_field

MODEL_A = {"model_params": {"L": 0.0, "M": 4.0, "r_i": 1.0, "r_o": 1.5}}
UNCOVERED = {"boundary_data": {"a": 1.0, "b": 0.0, "alpha": 0.5, "beta": -0.5}}
INADMISSIBLE = {"boundary_data": {"a": 0.0, "b": 0.0, "alpha": 0.0, "beta": 0.0}}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "serrin.cli", *args], capture_output=True, text=True,
    )


@pytest.fixture
def run_main(capsys):
    """``cli.main`` in this process, returning what ``run_cli`` would."""
    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)
    return run


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFit:
    def test_model_data(self, tmp_path, run_main):
        cfg = write_cfg(tmp_path, "a.json", MODEL_A)
        proc = run_main("fit", cfg)
        assert proc.returncode == 0
        assert "Increasing" in proc.stdout
        assert "M" in proc.stdout

    def test_uncovered_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, "u.json", UNCOVERED)
        proc = run_cli("fit", cfg)
        assert proc.returncode == 3

    def test_inadmissible_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "i.json", INADMISSIBLE)
        proc = run_cli("fit", cfg)
        assert proc.returncode == 2

    def test_overflowing_slope_square_exits_4(self, tmp_path, run_main):
        # no root bracket, not invalid input: alpha^2 overflows
        data = {"boundary_data": {"a": 0.0, "b": 1.0, "alpha": -1e200, "beta": 1.0}}
        proc = run_main("fit", write_cfg(tmp_path, "o.json", data))
        assert proc.returncode == 4
        assert "bracket [0, inf] is not finite" in proc.stderr

    def test_bracket_ceiling_exits_4(self, tmp_path, run_main):
        data = {"boundary_data": {"a": 0.9380813986872819, "b": 1931.2271964517008,
                                  "alpha": -87.87011224580067, "beta": 0.012879315087262862}}
        proc = run_main("fit", write_cfg(tmp_path, "c.json", data))
        assert proc.returncode == 4
        assert "bracket ceiling" in proc.stderr

    def test_bisection_tolerance_exits_4(self, tmp_path, run_main):
        data = {"boundary_data": {"a": -0.10769446358911439, "b": 0.03788047661527064,
                                  "alpha": -0.7870687366811493, "beta": 0.1904905026954071}}
        proc = run_main("fit", write_cfg(tmp_path, "b.json", data))
        assert proc.returncode == 4
        assert "bisection left" in proc.stderr

    def test_missing_config_exits_2(self, run_main):
        proc = run_main("fit", "/nonexistent/cfg.json")
        assert proc.returncode == 2

    @pytest.mark.parametrize("extra", [
        {"bogus": 1},
        {"solver": {"tol": "1e-11"}},
        {"resolution": {"ns": "x"}},
        {"solver": {"method": "iterative"}},
        {"solver": {"method": "auto"}},
        {"solver": {"max_iter": 2000}},
        {"domain": {"inner": {"c0": "abc"}, "outer": {"c0": 1.5}}},
        {"domain": {"inner": {"c0": None}, "outer": {"c0": 1.5}}},
        {"domain": {"inner": {"c0": "1.0"}, "outer": {"c0": 1.5}}},
        {"domain": {"inner": {"c0": 1.0, "cos": 5}, "outer": {"c0": 1.5}}},
        {"domain": {"inner": {"c0": 1.0, "cos": "ab"}, "outer": {"c0": 1.5}}},
        {"domain": {"inner": {"c0": 1.0}, "outer": {"c0": 1.5, "sin": [-10**400]}}},
        {"output": {"csv": 7}},
        {"output": {"field": 7}},
        {"output": {"csv": ""}},
        {"output": {"report": "a\u0000b"}},
        {"perturbation": {"target": "inner", "harmonic": 17, "kind": "cos", "amplitude": 0.0}},
        {"perturbation": {"target": "inner", "harmonic": 10**9, "kind": "cos",
                          "amplitude": 0.0}},
        {"resolution": {"ns": 10**400}},
        {"solver": {"tol": 10**400}},
        {"sweep": {"parameter": "eps", "values": [0.0], "bogus": 1}},
        {"mms": {"sizes": "x"}},
        {"perturbation": {"target": "inner", "harmonic": 3, "kind": "cos",
                          "amplitude": float("nan")}},
        {"perturbation": {"target": "inner", "harmonic": 3, "kind": "cos",
                          "amplitude": float("inf")}},
        {"perturbation": {"target": "inner", "harmonic": 3, "kind": "cos",
                          "amplitude": -10**400}},
        {"perturbation": {"target": "inner", "harmonic": 3, "kind": "tan", "amplitude": 0.0}},
        {"perturbation": {"target": 3, "harmonic": 3, "kind": "cos", "amplitude": 0.0}},
        {"sweep": {"parameter": "L", "values": [0.0]}},
        {"sweep": {"parameter": "ns", "values": 3}},
        {"mms": {"exact": 3}},
        {"mms": {"sizes": [17.5, 33]}},
        {"resolution": {"ns": True}},
        {"resolution": [65, 64]},
        {"solver": None},
        {"perturbation": {}},
        {"sweep": {}},
        {"output": {"csv": ["rows.csv"]}},
    ], ids=["unknown_key", "string_tol", "string_ns", "iterative_method",
            "auto_method", "max_iter", "string_c0", "null_c0", "numeric_string_c0",
            "scalar_cos", "string_cos", "huge_sin", "int_csv_path", "int_field_path",
            "empty_csv_path", "nul_report_path",
            "harmonic_17", "harmonic_huge", "huge_ns", "huge_tol",
            "sweep_unknown_key", "mms_string_sizes",
            "nan_amplitude", "infinite_amplitude", "huge_amplitude",
            "tan_kind", "numeric_target", "sweep_parameter_L", "scalar_sweep_values",
            "numeric_mms_exact", "fractional_mms_size", "bool_ns", "list_resolution",
            "null_solver", "empty_perturbation", "empty_sweep", "list_csv_path"])
    def test_bad_key_exits_2(self, tmp_path, extra, run_main):
        cfg = write_cfg(tmp_path, "bad.json", {**MODEL_A, **extra})
        proc = run_main("fit", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("domain, key", [
        ({"inner": {"c0": "abc"}, "outer": {"c0": 1.5}}, "domain.inner.c0"),
        ({"inner": {"c0": 1.0}, "outer": {"c0": 1.5, "sin": [-10**400]}}, "domain.outer.sin"),
        ({"inner": {"c0": 1.0, "cos": [0.1, "ab"]}, "outer": {"c0": 1.5}}, "domain.inner.cos"),
        ({"inner": {"c0": 1.0, "tan": [0.1]}, "outer": {"c0": 1.5}}, "domain.inner.tan"),
        ({"inner": {"c0": 1.0}, "outer": {"cos": [0.1]}}, "domain.outer.c0"),
        ({"inner": {"c0": 1.0}}, "domain.outer"),
    ], ids=["string_c0", "huge_sin", "string_cos_item", "unknown_curve_key", "missing_c0",
            "missing_side"])
    def test_domain_error_names_its_key(self, tmp_path, domain, key, run_main):
        proc = run_main("fit", write_cfg(tmp_path, "d.json", {**MODEL_A, "domain": domain}))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {key} ")

    @pytest.mark.parametrize("payload", [[MODEL_A], 3, "model_params"],
                             ids=["array", "number", "string"])
    def test_config_not_an_object_exits_2(self, tmp_path, payload, run_main):
        proc = run_main("fit", write_cfg(tmp_path, "cfg.json", payload))
        assert proc.returncode == 2
        assert "JSON object" in proc.stderr

    def test_both_sources_rejected(self, tmp_path, run_main):
        cfg = write_cfg(tmp_path, "both.json", {**MODEL_A, **UNCOVERED})
        proc = run_main("fit", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("content", [
        b'{"model_params": "\xff"}',
        b"[" * 100_000,
        b'{"solver": {"tol": ' + b"1" * 5000 + b"}}",
        None,
    ], ids=["bad_utf8", "deep_nesting", "overlong_integer", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, content, run_main):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        proc = run_main("fit", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestSolve:
    def test_writes_field_file(self, tmp_path, run_main):
        out = tmp_path / "u.dat"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 32},
            "solver": {"tol": 1e-11},
            "output": {"field": str(out)},
        }
        cfg = write_cfg(tmp_path, "solve.json", payload)
        proc = run_main("solve", cfg)
        assert proc.returncode == 0
        assert "iterations: 0\n" in proc.stdout  # circles: the start is the solution
        lines = out.read_text().splitlines()
        assert lines[1].split()[:2] == ["17", "32"]
        assert len(lines) == 3 + 17 * 32

    def test_zero_amplitude_keeps_padded_domain_hash(self, tmp_path, run_main):
        # a perturbation block applies even at amplitude 0: the inner curve
        # gets zero cos coefficients up to the harmonic, and so its own hash
        out = tmp_path / "u.dat"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 32},
            "perturbation": {"target": "inner", "harmonic": 3,
                             "kind": "cos", "amplitude": 0.0},
            "output": {"field": str(out)},
        }
        cfg = write_cfg(tmp_path, "solve.json", payload)
        assert run_main("solve", cfg).returncode == 0
        padded = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0,) * 3),
                            outer=FourierCurve(c0=1.5))
        meta, _ = read_field(str(out))
        assert meta["domain_hash"] == padded.spec_hash()
        assert padded.spec_hash() != DomainSpec.circles(1.0, 1.5).spec_hash()

    def test_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "u.dat"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 32},
            "output": {"field": str(out)},
        }
        cfg = write_cfg(tmp_path, "solve.json", payload)
        assert run_cli("solve", cfg).returncode == 0
        first = out.read_bytes()
        assert run_cli("solve", cfg).returncode == 0
        assert out.read_bytes() == first

    def test_resolution_override(self, tmp_path, run_main):
        out = tmp_path / "u.dat"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 32},
            "output": {"field": str(out)},
        }
        cfg = write_cfg(tmp_path, "solve.json", payload)
        proc = run_main("solve", cfg, "--ns", "25")
        assert proc.returncode == 0
        assert out.read_text().splitlines()[1].split()[:2] == ["25", "32"]


class TestVerify:
    def test_model_passes(self, tmp_path, run_main):
        report = tmp_path / "report.json"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 49, "ntheta": 48},
            "output": {"report": str(report)},
        }
        cfg = write_cfg(tmp_path, "verify.json", payload)
        proc = run_main("verify", cfg)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        tree = json.loads(report.read_text())
        assert tree["case"] == "Increasing"
        assert "divergence_identity" in tree

    def test_perturbed_fails_then_waived(self, tmp_path):
        payload = {
            **MODEL_A,
            "resolution": {"ns": 49, "ntheta": 48},
            "perturbation": {
                "target": "outer", "harmonic": 2,
                "kind": "cos", "amplitude": 0.1,
            },
        }
        cfg = write_cfg(tmp_path, "verify.json", payload)
        proc = run_cli("verify", cfg)
        assert proc.returncode == 1
        proc = run_cli("verify", cfg, "--expect-asymmetric")
        assert proc.returncode == 0

    def test_uncovered_exits_3(self, tmp_path, run_main):
        cfg = write_cfg(
            tmp_path, "verify.json",
            {
                **UNCOVERED,
                "domain": {"inner": {"c0": 1.0}, "outer": {"c0": 2.0}},
                "resolution": {"ns": 33, "ntheta": 32},
            },
        )
        proc = run_main("verify", cfg)
        assert proc.returncode == 3

    @pytest.mark.parametrize("domain", [
        {"inner": {"c0": 1.5e308, "cos": [0.5e308]}, "outer": {"c0": 1.6e308, "cos": [0.5e308]}},
        {"inner": {"c0": 1e200}, "outer": {"c0": 2e200}},
        # the Jacobian stays finite here, but the speed and the stencil square r
        {"inner": {"c0": 1e155}, "outer": {"c0": 1.00001e155}},
    ])
    def test_overflowing_domain_exits_2(self, tmp_path, domain, run_main):
        cfg = write_cfg(tmp_path, "verify.json", {
            **MODEL_A, "domain": domain, "resolution": {"ns": 9, "ntheta": 16},
        })
        proc = run_main("verify", cfg)  # an overflow warning would raise here
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_overflowing_residual_norm_exits_4(self, tmp_path, run_main):
        # The data are finite, but the residual norm squares them past the
        # float range: a failed solve, not an overflow warning.
        cfg = write_cfg(tmp_path, "verify.json", {
            "model_params": {"L": 1e152, "M": 4.0, "r_i": 1.0, "r_o": 1.5},
            "resolution": {"ns": 17, "ntheta": 16},
        })
        proc = run_main("verify", cfg)
        assert proc.returncode == 4
        assert "relative residual nan" in proc.stderr

    def test_overflowing_dirichlet_data_exit_4(self, tmp_path, run_main):
        # the stencil products of the data overflow before any norm is taken
        cfg = write_cfg(tmp_path, "verify.json", {
            "boundary_data": {"a": 1e308, "b": -1e308, "alpha": 0.5, "beta": -0.5},
            "domain": {"inner": {"c0": 1.0}, "outer": {"c0": 2.0}},
            "resolution": {"ns": 17, "ntheta": 16},
        })
        proc = run_main("verify", cfg)
        assert proc.returncode == 4
        assert "relative residual nan" in proc.stderr

    def test_large_constant_is_no_numerical_failure(self, tmp_path, run_main):
        # k is K(r_i), which does not read L; the verdict itself is not pinned
        cfg = write_cfg(tmp_path, "verify.json", {
            "model_params": {"L": 1e7, "M": 1.0, "r_i": 1.2, "r_o": 2.0},
        })
        assert run_main("verify", cfg).returncode in (0, 1)

    def test_timings_flag(self, tmp_path, run_main):
        out = tmp_path / "row.csv"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 16},
            "output": {"csv": str(out)},
        }
        cfg = write_cfg(tmp_path, "verify.json", payload)
        plain = run_main("verify", cfg)
        first = out.read_bytes()
        timed = run_main("verify", cfg, "--timings")
        assert timed.returncode == plain.returncode in (0, 1)  # 17x16 is coarse
        assert out.read_bytes() == first
        lines = timed.stdout.splitlines()
        extra = [line for line in lines if line.startswith(("time ", "solver: "))]
        # the timing lines sit between the check lines and the csv line
        at = lines.index(extra[0])
        assert lines[at:at + len(extra)] == extra
        assert lines[:at] + lines[at + len(extra):] == plain.stdout.splitlines()
        assert lines[at + len(extra)].startswith("csv: ")
        stages = [line.split()[1].rstrip(":") for line in extra[:-1]]
        assert stages[:3] == ["fit", "grid", "solve"] and stages[-1] == "expansion"
        solver = dict(item.split("=") for item in extra[-1].split()[1:])
        assert set(solver) == {"iterations", "assemble_s", "setup_s", "solve_s"}
        assert solver["iterations"] == "0"  # circles

    @pytest.mark.parametrize("data, blocks, stages", [
        ({"model_params": {"L": 0.0, "M": 1.0, "r_i": 1.2, "r_o": 2.0}},
         {"model", "fit_residual", "gradient_bound", "area_margins", "refined_identity"},
         ["fit", "grid", "solve", "traces", "pohozaev", "gradient_bound", "area_margins",
          "refined_identity", "expansion"]),
        ({**UNCOVERED, "domain": {"inner": {"c0": 1.0}, "outer": {"c0": 2.0}}},
         set(), ["grid", "solve", "traces", "pohozaev", "expansion"]),
        ({**INADMISSIBLE, "domain": {"inner": {"c0": 1.0}, "outer": {"c0": 2.0}}},
         set(), ["grid", "solve", "traces", "pohozaev", "expansion"]),
    ], ids=["covered_decreasing", "unproven", "inadmissible"])
    def test_timings_stages_of_each_regime(self, tmp_path, run_main, data, blocks, stages):
        report = tmp_path / "report.json"
        cfg = write_cfg(tmp_path, "verify.json", {
            **data, "resolution": {"ns": 17, "ntheta": 16},
            "output": {"report": str(report)},
        })
        proc = run_main("verify", cfg, "--timings")
        printed = [line.split()[1].rstrip(":") for line in proc.stdout.splitlines()
                   if line.startswith("time ")]
        assert printed == stages
        written = json.loads(report.read_text())  # keys sorted
        assert sorted(written["timings"]) == sorted(stages)
        assert set(written) == blocks | {
            "case", "resolution", "regime_note", "diagnostic_only", "neumann",
            "pohozaev_residual", "tolerances", "solver", "timings"}

    def test_csv_single_row(self, tmp_path, run_main):
        out = tmp_path / "row.csv"
        payload = {
            **MODEL_A,
            "resolution": {"ns": 33, "ntheta": 32},
            "output": {"csv": str(out)},
        }
        cfg = write_cfg(tmp_path, "verify.json", payload)
        assert run_main("verify", cfg).returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "case"
        assert lines[1].split(",")[0] == "Increasing"


class TestSweep:
    def payload(self, tmp_path):
        return {
            **MODEL_A,
            "resolution": {"ns": 33, "ntheta": 32},
            "sweep": {"parameter": "eps", "values": [0.0, 0.05]},
            "perturbation": {
                "target": "outer", "harmonic": 2,
                "kind": "cos", "amplitude": 0.0,
            },
            "output": {"csv": str(tmp_path / "sweep.csv")},
        }

    def test_rows_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep.json", self.payload(tmp_path))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", cfg).returncode == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "case"
        assert run_cli("sweep", cfg).returncode == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("sweep", [
        {"parameter": "eps", "values": []},
        {"parameter": "ns", "values": [33.7, 40.2]},
    ], ids=["empty", "fractional_ns"])
    def test_empty_values_exit_2(self, tmp_path, sweep, run_main):
        payload = self.payload(tmp_path)
        payload["sweep"] = sweep
        cfg = write_cfg(tmp_path, "sweep.json", payload)
        assert run_main("sweep", cfg).returncode == 2

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_bad_perturbation_target_exits_2(self, tmp_path, command, run_main):
        payload = self.payload(tmp_path)
        payload["perturbation"]["target"] = "middle"
        cfg = write_cfg(tmp_path, "sweep.json", payload)
        assert run_main(command, cfg).returncode == 2

    @pytest.mark.parametrize("sweep, error", [
        ({"parameter": "ns", "values": [33, 5]}, "InvalidInputError: "),
        ({"parameter": "eps", "values": [0.05, 0.9]}, "InvalidDomainError: "),
    ], ids=["ns", "eps"])
    def test_error_rows_reported(self, tmp_path, sweep, error, run_main):
        # an ns below the grid minimum, or an amplitude at which the curves
        # cross, lands in its own row's error column; the sweep still exits 0
        payload = self.payload(tmp_path)
        payload["sweep"] = sweep
        cfg = write_cfg(tmp_path, "sweep.json", payload)
        assert run_main("sweep", cfg).returncode == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        assert rows[1][-1] == ""
        assert rows[2][-1].startswith(error)

    def test_missing_block_exits_2(self, tmp_path, run_main):
        proc = run_main("sweep", write_cfg(tmp_path, "sweep.json", MODEL_A))
        assert proc.returncode == 2
        assert "'sweep' config block" in proc.stderr

    def test_program_error_is_not_a_row(self, tmp_path, monkeypatch):
        # only a SerrinError of one point lands in its row; a bug propagates
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a property of the sweep point")

        monkeypatch.setattr(cli, "full_report", broken)
        cfg = write_cfg(tmp_path, "sweep.json", self.payload(tmp_path))
        with pytest.raises(TypeError, match="a bug"):
            cli.main(["sweep", cfg])
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("case", ["harmonic_17", "no_domain", "crossing_ns",
                                      "infinite_eps"])
    def test_config_error_exits_before_rows(self, tmp_path, case, run_main):
        payload = self.payload(tmp_path)
        if case == "harmonic_17":
            payload["perturbation"]["harmonic"] = 17
        elif case == "infinite_eps":
            payload["sweep"]["values"] = [0.0, float("inf")]
        elif case == "crossing_ns":
            # the config amplitude makes the curves cross in every row
            payload["perturbation"]["amplitude"] = 0.9
            payload["sweep"] = {"parameter": "ns", "values": [17, 33]}
        else:
            del payload["model_params"]
            payload["boundary_data"] = {"a": -0.0, "b": 0.5, "alpha": 3.0, "beta": 1.4}
        cfg = write_cfg(tmp_path, "sweep.json", payload)
        proc = run_main("sweep", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not (tmp_path / "sweep.csv").exists()


class TestEpsFlag:
    """``--eps`` passes the number check of the config amplitude it overrides."""

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "mms"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_exits_2(self, tmp_path, command, value, run_main):
        out = tmp_path / "out.csv"
        payload = {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
                   "perturbation": {"target": "inner", "harmonic": 3, "kind": "cos",
                                    "amplitude": 0.0},
                   "sweep": {"parameter": "ns", "values": [17]},
                   "mms": {"sizes": [17, 33]}, "output": {"csv": str(out)}}
        proc = run_main(command, write_cfg(tmp_path, "eps.json", payload), "--eps", value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--eps" in proc.stderr
        assert not out.exists()


class TestAmplitudeWithoutPerturbation:
    """A nonzero amplitude with no 'perturbation' block to apply it to is a
    config error: it exits 2 before any solve or row."""

    def test_eps_flag_exits_2(self, tmp_path, run_main):
        cfg = write_cfg(tmp_path, "v.json", {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16}})
        proc = run_main("verify", cfg, "--eps", "0.05")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "perturbation" in proc.stderr

    @pytest.mark.parametrize("values, code", [([0.0, 0.05], 2), ([0.0], 0)],
                             ids=["nonzero", "zero"])
    def test_eps_sweep(self, tmp_path, values, code, run_main):
        out = tmp_path / "sweep.csv"
        payload = {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
                   "sweep": {"parameter": "eps", "values": values},
                   "output": {"csv": str(out)}}
        proc = run_main("sweep", write_cfg(tmp_path, "sweep.json", payload))
        assert proc.returncode == code
        if code:
            assert proc.stdout == ""
            assert not out.exists()
        else:
            assert len(out.read_text().splitlines()) == 2


class TestGridSizes:
    """Grid sizes below build_grid's minimums (ns 9, ntheta 16) exit 2 from
    every subcommand before any solve, each error naming its key, except the
    values of an ns or ntheta sweep, which fail in their own rows."""

    @pytest.mark.parametrize("extra, key", [
        ({"mms": {"sizes": [9, 12]}}, "mms.sizes"),
        ({"mms": {"sizes": [17, -5]}}, "mms.sizes"),
        ({"resolution": {"ns": 3, "ntheta": 8}}, "resolution.ns"),
        ({"resolution": {"ns": 17, "ntheta": 8}}, "resolution.ntheta"),
    ], ids=["mms_small", "mms_negative", "resolution", "resolution_ntheta"])
    def test_fit_exits_2(self, tmp_path, extra, key, run_main):
        proc = run_main("fit", write_cfg(tmp_path, "g.json", {**MODEL_A, **extra}))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {key} ")

    def test_override_is_named(self, tmp_path, run_main):
        cfg = write_cfg(tmp_path, "g.json", {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16}})
        proc = run_main("verify", cfg, "--ntheta", "8")
        assert proc.returncode == 2
        assert proc.stderr == "error: --ntheta must be at least 16, got 8\n"

    def test_eps_sweep_writes_no_csv(self, tmp_path, run_main):
        out = tmp_path / "sweep.csv"
        payload = {**MODEL_A, "resolution": {"ns": 3, "ntheta": 8},
                   "sweep": {"parameter": "eps", "values": [0.0]}, "output": {"csv": str(out)}}
        proc = run_main("sweep", write_cfg(tmp_path, "g.json", payload))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not out.exists()

    def test_swept_dimension_is_not_checked(self, tmp_path, run_main):
        # the sweep replaces the configured ns, so only its own values count
        out = tmp_path / "sweep.csv"
        payload = {**MODEL_A, "resolution": {"ns": 3, "ntheta": 16},
                   "sweep": {"parameter": "ns", "values": [17]}, "output": {"csv": str(out)}}
        assert run_main("sweep", write_cfg(tmp_path, "g.json", payload)).returncode == 0
        rows = list(csv.reader(out.open(newline="")))
        assert [row[CSV_COLUMNS.index("error")] for row in rows[1:]] == [""]

    def test_mms_makes_no_solve(self, tmp_path, run_main, monkeypatch):
        solves = []
        monkeypatch.setattr(solver_module, "solve_dirichlet", lambda *a, **k: solves.append(a))
        payload = {**MODEL_A, "mms": {"sizes": [17, -5]}}
        proc = run_main("mms", write_cfg(tmp_path, "g.json", payload))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert solves == []


class TestMms:
    def test_prints_order(self, tmp_path, run_main):
        payload = {
            **MODEL_A,
            "mms": {"sizes": [17, 33], "exact": "model"},
        }
        cfg = write_cfg(tmp_path, "mms.json", payload)
        proc = run_main("mms", cfg)
        assert proc.returncode == 0
        assert "order" in proc.stdout

    def test_csv_output(self, tmp_path, run_main):
        out = tmp_path / "mms.csv"
        payload = {
            **MODEL_A,
            "mms": {"sizes": [17, 33], "exact": "constant"},
            "output": {"csv": str(out)},
        }
        cfg = write_cfg(tmp_path, "mms.json", payload)
        assert run_main("mms", cfg).returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,h,linf,l2"
        assert len(lines) == 3

    def test_missing_block_exits_2(self, tmp_path, run_main):
        cfg = write_cfg(tmp_path, "mms.json", MODEL_A)
        assert run_main("mms", cfg).returncode == 2

    @pytest.mark.parametrize("command", ["fit", "solve", "verify", "sweep"])
    @pytest.mark.parametrize("mms", [{"sizes": [17, 17]}, {"sizes": [17, 33], "exact": "cubic"}],
                             ids=["one_size", "unknown_exact"])
    def test_every_subcommand_checks_the_block(self, tmp_path, command, mms, run_main):
        # the block that `serrin mms` rejects stops the other subcommands too
        payload = {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
                   "sweep": {"parameter": "ns", "values": [17]}, "mms": mms,
                   "output": {key: str(tmp_path / key) for key in ("report", "csv", "field")}}
        proc = run_main(command, write_cfg(tmp_path, "mms.json", payload))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert os.listdir(tmp_path) == ["mms.json"]


class TestEntryPoint:
    def test_no_subcommand_errors(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("fit", "solve", "verify", "sweep", "mms"):
            assert sub in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["fit", "--ns", "3", "--ntheta", "2"],  # sizes below build_grid's minimum
        ["mms", "--ns", "17"],  # mms reads its sizes from the config
    ], ids=["fit", "mms"])
    def test_unread_override_exits_2(self, tmp_path, argv, capsys):
        cfg = write_cfg(tmp_path, "a.json", {**MODEL_A, "mms": {"sizes": [17, 33]}})
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], cfg, *argv[1:]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err
        assert f"usage: serrin {argv[0]}" in err

    @pytest.mark.parametrize("command, key", [
        ("solve", "field"), ("verify", "report"), ("sweep", "csv"), ("mms", "csv"),
    ])
    def test_unwritable_output_exits_2(self, tmp_path, command, key):
        payload = {
            **MODEL_A,
            "resolution": {"ns": 17, "ntheta": 16},
            "sweep": {"parameter": "eps", "values": [0.0]},
            "mms": {"sizes": [17, 33]},
            "output": {key: str(tmp_path / "missing" / "out")},
        }
        proc = run_cli(command, write_cfg(tmp_path, "out.json", payload))
        assert proc.returncode == 2
        assert proc.stdout == ""  # rejected before any solve
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_output_path_is_a_directory_exits_2(self, tmp_path):
        # the directory exists, so only the write itself fails (an OSError)
        payload = {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
                   "output": {"field": str(tmp_path)}}
        proc = run_cli("solve", write_cfg(tmp_path, "out.json", payload))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
    def test_grid_too_large_for_memory_exits_2(self, tmp_path, command, monkeypatch, run_main):
        # The grid allocation is faked: under overcommit a huge request can succeed.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "build_grid", no_memory)
        monkeypatch.setattr(cli, "full_report", no_memory)
        payload = {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
                   "sweep": {"parameter": "eps", "values": [0.0]},
                   "output": {"field": str(tmp_path / "field.dat"),
                              "csv": str(tmp_path / "out.csv")}}
        proc = run_main(command, write_cfg(tmp_path, "big.json", payload))
        assert proc.returncode == 2
        assert proc.stderr == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert [p.name for p in tmp_path.iterdir()] == ["big.json"]  # no field, no CSV

    def test_verify_imports_no_scipy(self, tmp_path):
        # The solver is numpy-only: a whole verify run loads no SciPy module.
        cfg = write_cfg(tmp_path, "v.json", {**MODEL_A, "resolution": {"ns": 17, "ntheta": 16}})
        code = ("import sys; from serrin import cli; "
                f"assert cli.main(['verify', {cfg!r}]) in (0, 1); "
                "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_private_numpy_imports(self):
        # numpy.core and numpy._* are numpy's internals, renamed between releases.
        imported = []
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported += [(path.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported += [(path.name, f"{node.module}.{a.name}") for a in node.names]
        private = [(f, name) for f, name in imported
                   if name == "numpy.core" or name.startswith(("numpy.core.", "numpy._"))]
        assert imported and private == []


# Words of the config schema, so that fuzzed objects often reach past the key checks.
_CONFIG_WORDS = ["L", "M", "r_i", "r_o", "ns", "ntheta", "tol", "inner", "outer", "c0",
                 "cos", "sin", "target", "harmonic", "kind", "amplitude", "report", "csv",
                 "field", "parameter", "values", "eps", "sizes", "exact", "model"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(10**400)
    | st.text(max_size=6) | st.sampled_from(_CONFIG_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_CONFIG_WORDS) | st.text(max_size=6), inner, max_size=5),
    max_leaves=12,
)
_FUZZ_BASE = {
    **MODEL_A,
    "resolution": {"ns": 17, "ntheta": 16},
    "solver": {"tol": 1e-10},
    "domain": {"inner": {"c0": 1.0}, "outer": {"c0": 1.5, "cos": [0.0, 0.1]}},
    "perturbation": {"target": "inner", "harmonic": 3, "kind": "cos", "amplitude": 0.05},
    "sweep": {"parameter": "eps", "values": [0.0, 0.05]},
    "mms": {"sizes": [17, 33], "exact": "model"},
    "output": {"csv": "sweep.csv"},
}


def _one_entry_replaced(block):
    return st.sampled_from(sorted(block)).flatmap(lambda k: _JSON.map(lambda v: {**block, k: v}))


# (key, value): one top-level key replaced by random JSON or by its valid
# block with one entry replaced.
_FUZZED_KEY = st.sampled_from(sorted(_FUZZ_BASE)).flatmap(
    lambda key: st.tuples(st.just(key), _JSON | _one_entry_replaced(_FUZZ_BASE[key])))


def _large_grid_sizes(cfg):
    """Grid sizes above 129 that a config asks for past the ``--ns``/``--ntheta``
    overrides: the values of an ``ns`` or ``ntheta`` sweep and the mms sizes."""
    sizes = []
    sweep, mms = cfg.get("sweep"), cfg.get("mms")
    if isinstance(sweep, dict) and sweep.get("parameter") in ("ns", "ntheta"):
        sizes.append(sweep.get("values"))
    if isinstance(mms, dict):
        sizes.append(mms.get("sizes", [129]))
    return [v for vs in sizes if isinstance(vs, list) for v in vs
            if isinstance(v, (int, float)) and not isinstance(v, bool) and v > 129]


def _run_fuzzed(tmp_path_factory, command, key_value, *flags):
    """``cli.main`` on the base config with one key fuzzed, in a work directory.

    Output paths are relative to the working directory; examples that point
    them outside it, or that ask for a grid above 129 nodes a side, are
    skipped."""
    key, value = key_value
    cfg = {**_FUZZ_BASE, key: value}
    paths = value.values() if key == "output" and isinstance(value, dict) else ()
    assume(not any(isinstance(p, str) and (os.path.isabs(p) or ".." in p) for p in paths))
    assume(not _large_grid_sizes(cfg))
    work = tmp_path_factory.getbasetemp() / f"{command}-fuzz"
    work.mkdir(exist_ok=True)
    path = work / "fuzz.json"
    path.write_text(json.dumps(cfg))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return cli.main([command, str(path), *flags])
    finally:
        os.chdir(cwd)


class TestConfigFuzz:
    """Random JSON in one key of a valid config never escapes as a traceback.

    Runs each subcommand in-process: ``fit``, which reads the whole config but
    builds no grid, and ``solve``, ``verify``, ``sweep`` and ``mms`` on the
    17x16 base config.  Only ``verify`` gates checks, so only it may exit 1.
    """

    @settings(max_examples=300, deadline=None)
    @given(key_value=_FUZZED_KEY)
    def test_fit_exits_with_a_code(self, tmp_path_factory, key_value):
        key, value = key_value
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps({**_FUZZ_BASE, key: value}))
        assert cli.main(["fit", str(path)]) in (0, 2, 3, 4)

    @settings(max_examples=200, deadline=None)
    @given(key_value=_FUZZED_KEY)
    def test_verify_exits_with_a_code(self, tmp_path_factory, key_value):
        code = _run_fuzzed(tmp_path_factory, "verify", key_value, "--ns", "17", "--ntheta", "16")
        assert code in (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--ns", "17", "--ntheta", "16"]),
        ("sweep", ["--ns", "17", "--ntheta", "16"]),
        ("mms", []),  # its sizes come from the config's mms block
    ], ids=["solve", "sweep", "mms"])
    @settings(max_examples=100, deadline=None)
    @given(key_value=_FUZZED_KEY)
    def test_exits_with_a_code(self, tmp_path_factory, command, flags, key_value):
        assert _run_fuzzed(tmp_path_factory, command, key_value, *flags) in (0, 2, 3, 4)
