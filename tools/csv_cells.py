"""Count the CSV cells, check verdicts and GMRES iterations a change moves.

    PYTHONPATH=src python tools/csv_cells.py dump OUT.json
    PYTHONPATH=src python tools/csv_cells.py diff A.json B.json

``dump`` runs ``full_report`` on every input the benchmark checks, the 101
``sweep_pool()`` domains at 257^2 and the six ``reference_sets()`` at 65 x 64
(about 6 s with one BLAS thread), and writes each report's CSV row, GMRES
iteration count and gated-check verdicts to ``OUT.json``.  Dump the tree
before a change and after it, with the same BLAS thread count (the
Gram-Schmidt sums split across threads), and ``diff`` the two: per CSV
column it prints the cells moved, the largest absolute change and the
largest change as a fraction of the benchmark oracle's slack ``RTOL * |a| +
ATOL`` (``a`` the cell of ``A.json``; a fraction above 1 fails the oracle),
then the checks whose verdict flipped and the iteration totals.

The inputs come from ``perfbench/workloads.py`` and the slack from
``perfbench/oracle.py``, both imported read-only.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    """The module ``perfbench/<name>.py``, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def dump(out):
    workloads = _perfbench("workloads")
    from serrin import CSV_COLUMNS, boundary_data_of, evaluate_checks, full_report

    runs = [(f"pool {key}", spec, boundary_data_of(workloads.MODEL_A),
             workloads.SWEEP_N, workloads.SWEEP_N)
            for key, spec in workloads.sweep_pool().items()]
    runs += [(f"reference {key}", spec, data, workloads.REF_NS, workloads.REF_NT)
             for key, (spec, data) in workloads.reference_sets().items()]
    reports = {}
    for label, spec, data, ns, nt in runs:
        report = full_report(spec, data, ns, nt)
        checks, _ = evaluate_checks(report)
        reports[label] = {
            "row": report.csv_row(),
            "iterations": report.solver["iterations"],
            "verdicts": {c.name: "PASS" if c.passed else "FAIL" if c.failed else "DIAG"
                         for c in checks},
        }
    Path(out).write_text(json.dumps({"columns": CSV_COLUMNS, "reports": reports}, indent=1))


def _change(a, b, oracle):
    """``(|b - a|, |b - a| / (RTOL |a| + ATOL))`` for the cells ``a`` and ``b``;
    both are inf for a text cell, or a number against an empty cell."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf"), float("inf")
    return abs(y - x), abs(y - x) / (oracle.RTOL * abs(x) + oracle.ATOL)


def diff(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["columns"] != b["columns"] or a["reports"].keys() != b["reports"].keys():
        raise SystemExit("the two dumps hold different columns or reports")
    oracle = _perfbench("oracle")
    moved, flipped, total = {}, [], 0
    for label, ra in a["reports"].items():
        rb = b["reports"][label]
        for column, ca, cb in zip(a["columns"], ra["row"], rb["row"]):
            total += 1
            if ca != cb:
                count, *worst = moved.get(column, (0, 0.0, 0.0))
                moved[column] = (count + 1, *map(max, worst, _change(ca, cb, oracle)))
        flipped += [f"{label} {name}: {verdict} -> {rb['verdicts'].get(name)}"
                    for name, verdict in ra["verdicts"].items()
                    if rb["verdicts"].get(name) != verdict]
        flipped += [f"{label} {name}: None -> {verdict}"
                    for name, verdict in rb["verdicts"].items() if name not in ra["verdicts"]]
    print(f"cells moved: {sum(n for n, _, _ in moved.values())} of {total}")
    for column, (count, change, slack) in moved.items():
        print(f"  {column:<22} {count:4d}  worst change {change:.2e}, {slack:.2e} of the slack")
    print(f"verdicts flipped: {len(flipped)}")
    for line in flipped:
        print(f"  {line}")
    for group in ("pool", "reference"):
        its = [sum(r["iterations"] for label, r in dump_["reports"].items()
                   if label.startswith(group)) for dump_ in (a, b)]
        print(f"GMRES iterations, {group}: {its[0]} -> {its[1]}")


if __name__ == "__main__":
    commands = {"dump": (dump, 1), "diff": (diff, 2)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands \
            or len(sys.argv) != 2 + commands[sys.argv[1]][1]:
        raise SystemExit(__doc__)
    command, _ = commands[sys.argv[1]]
    command(*sys.argv[2:])
