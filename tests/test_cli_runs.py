"""``tools/cli_runs.py`` on hand-written dumps and reports: no CLI process is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_runs.py"


@pytest.fixture
def cli_runs():
    spec = importlib.util.spec_from_file_location("cli_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(code=0, stdout=(), stderr="", files=None, report=None):
    return {"code": code, "stdout": list(stdout), "stderr": stderr,
            "files": files or {}, "report": report}


def write_dump(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def dumps(tmp_path, extra_b=None):
    a = write_dump(tmp_path / "a.json", {
        "fit model": run(stdout=["case: Increasing"]),
        "verify model": run(1, ["verification: FAIL (1 checks)"], files={"rows.csv": "ab"},
                            report={"case": "Increasing"}),
        "fit bad_tol": run(2, stderr="error: solver.tol must be a number\n"),
        "solve bad_tol": run(2, stderr="error: solver.tol must be a number\n"),
        "sweep no_block": run(2, stderr="error: sweep command needs a 'sweep' config block\n"),
    })
    b = write_dump(tmp_path / "b.json", {
        "fit model": run(stdout=["case: Increasing"]),
        "verify model": run(1, ["verification: FAIL (1 checks)"], files={"rows.csv": "cd"},
                            report={"case": "Decreasing"}),
        "fit bad_tol": run(2, stderr="error: solver.tol must be a number, got '1'\n"),
        "solve bad_tol": run(2, stderr="error: solver.tol must be a number, got '1'\n"),
        "sweep no_block": run(4, stderr="error: sweep command needs a 'sweep' config block\n"),
        **(extra_b or {}),
    })
    return a, b


def test_diff_counts_differing_runs_and_stderr_changes(tmp_path, cli_runs, capsys):
    cli_runs.diff(*dumps(tmp_path))
    assert capsys.readouterr().out.splitlines() == [
        "runs that differ in code, stdout, files, report: 2 of 5",
        "  verify model: files, report",
        "  sweep no_block: code",
        "runs that differ in stderr: 2 of 5, 1 distinct changes",
        "  2 runs, first fit bad_tol:",
        "    'error: solver.tol must be a number'",
        " -> \"error: solver.tol must be a number, got '1'\"",
    ]


def test_diff_rejects_dumps_with_different_runs(tmp_path, cli_runs):
    with pytest.raises(SystemExit, match="different runs"):
        cli_runs.diff(*dumps(tmp_path, extra_b={"mms model": run()}))


def test_report_drops_the_timings(tmp_path, cli_runs):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "case": "Increasing", "timings": {"solve": 0.1},
        "solver": {"iterations": 3, "unknowns": 240, "seconds": 0.2, "assemble_s": 0.05,
                   "setup_s": 0.05, "solve_s": 0.1},
    }))
    assert cli_runs._report(path) == {"case": "Increasing",
                                      "solver": {"iterations": 3, "unknowns": 240}}


def test_runs_cover_each_variant_and_command_once(cli_runs):
    runs = cli_runs._runs()
    labels = [label for label, *_ in runs]
    assert len(labels) == len(set(labels)) == 9 * len(cli_runs.variants())
    assert sum(command == "fit" for _, command, _, _ in runs) == len(cli_runs.variants())
