"""``tools/csv_cells.py diff`` on two hand-written dumps: no report is run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_cells.py"
COLUMNS = ["case", "Ns", "neumann_sd_outer", "div_identity_res", "error"]


@pytest.fixture
def csv_cells(monkeypatch):
    # The tool puts perfbench/ on sys.path and stops bytecode writes; undo both.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("csv_cells", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_dump(path, rows, iterations, verdicts, columns=COLUMNS):
    reports = {label: {"row": rows[label], "iterations": iterations[label],
                       "verdicts": verdicts[label]} for label in rows}
    path.write_text(json.dumps({"columns": columns, "reports": reports}))
    return str(path)


def dumps(tmp_path, columns_b=COLUMNS):
    a = write_dump(tmp_path / "a.json", {
        "pool circle": ["Increasing", "257", "1e-14", "0.001", ""],
        "pool cos3": ["Increasing", "257", "0.5", "-0.002", ""],
        "reference A": ["Increasing", "65", "2e-14", "0.01", ""],
    }, {"pool circle": 0, "pool cos3": 6, "reference A": 0}, {
        "pool circle": {"div_identity": "PASS"},
        "pool cos3": {"div_identity": "PASS", "neumann_outer": "FAIL"},
        "reference A": {"div_identity": "PASS"},
    })
    b = write_dump(tmp_path / "b.json", {
        "pool circle": ["Increasing", "257", "3e-14", "0.001", ""],
        "pool cos3": ["Increasing", "257", "0.5", "-0.0021", ""],
        "reference A": ["Increasing", "65", "1e-14", "0.01", "SolverFailureError: x"],
    }, {"pool circle": 0, "pool cos3": 7, "reference A": 0}, {
        "pool circle": {"div_identity": "PASS"},
        "pool cos3": {"div_identity": "FAIL", "neumann_outer": "FAIL"},
        "reference A": {"div_identity": "PASS"},
    }, columns_b)
    return a, b


def test_diff_reports_moved_cells_against_the_oracle_slack(tmp_path, csv_cells, capsys):
    csv_cells.diff(*dumps(tmp_path))
    # Slack RTOL |a| + ATOL = 1e-4 |a| + 1e-6: 2e-14 is 2e-8 of it at a = 1e-14,
    # and 1e-4 is 83 times it at a = -0.002; a text cell moves by inf.
    assert capsys.readouterr().out.splitlines() == [
        "cells moved: 4 of 15",
        "  neumann_sd_outer          2  worst change 2.00e-14, 2.00e-08 of the slack",
        "  div_identity_res          1  worst change 1.00e-04, 8.33e+01 of the slack",
        "  error                     1  worst change inf, inf of the slack",
        "verdicts flipped: 1",
        "  pool cos3 div_identity: PASS -> FAIL",
        "GMRES iterations, pool: 6 -> 7",
        "GMRES iterations, reference: 0 -> 0",
    ]


def test_diff_rejects_dumps_with_different_columns(tmp_path, csv_cells):
    with pytest.raises(SystemExit, match="different columns or reports"):
        csv_cells.diff(*dumps(tmp_path, columns_b=COLUMNS[::-1]))
