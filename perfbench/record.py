"""Record the reference outputs the oracle compares against.

Run from the repository root:

    python3 perfbench/record.py

It evaluates every report of the sweep pool (257^2) and of the reference
sets (65 x 64), and every CLI scenario in-process, then writes
``perfbench/references.json``.  Rerun it only when a change is meant to
alter the outputs, and say so in that change.  Takes about four minutes on
two cores.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from serrin import boundary_data_of, evaluate_checks, full_report  # noqa: E402
from serrin import cli  # noqa: E402

import oracle  # noqa: E402
import workloads as w  # noqa: E402

# A gated check closer than this share of its limit could flip its verdict
# under a solver change the oracle's tolerance admits; no reference may sit
# that close.
MIN_MARGIN = 0.05


def report_ref(report):
    checks, verified = evaluate_checks(report)
    for c in checks:
        edge = abs(c.value) if c.kind == "abs_le" else c.value
        if c.gated and abs(edge - c.limit) < MIN_MARGIN * abs(c.limit):
            raise SystemExit(f"{c.name} = {c.value:.6g} sits at its limit {c.limit:g}")
    return {"case": report.case, "verified": verified,
            "diagnostic_only": report.diagnostic_only, "row": report.csv_row()}


def cli_ref(k, kind, amp, tmp):
    key = w.cli_key(k, kind, amp)
    spec = w.perturbed(k, kind, amp)
    report = full_report(spec, boundary_data_of(w.MODEL_A), w.CLI_NS, w.CLI_NT)
    ref = report_ref(report)
    ref["row"] = report.csv_row(eps=amp)
    _, verified = evaluate_checks(report, expect_asymmetric=True)
    ref["verify_exit"] = 0 if verified else 1
    cfg = {"model_params": {"L": 0.0, "M": 4.0, "r_i": 1.0, "r_o": 1.5},
           "perturbation": {"target": "inner", "harmonic": k, "kind": kind, "amplitude": amp},
           "mms": {"sizes": w.MMS_SIZES, "exact": "model"}}
    path = Path(tmp) / f"{key}.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with redirect_stdout(out):
        if cli.main(["mms", str(path)]) != 0:
            raise SystemExit(f"mms failed on {key}")
    m = re.search(r"order_linf=(\S+) order_l2=(\S+)", out.getvalue())
    ref["mms_orders"] = [float(m.group(1)), float(m.group(2))]
    return key, ref


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    refs = {"commit": commit(), "rtol": oracle.RTOL, "atol": oracle.ATOL}
    refs["verify_reference_65"] = {
        key: report_ref(full_report(spec, data, w.REF_NS, w.REF_NT))
        for key, (spec, data) in w.reference_sets().items()
    }
    data = boundary_data_of(w.MODEL_A)
    refs["sweep_perturbed_257"] = {}
    for key, spec in w.sweep_pool().items():
        refs["sweep_perturbed_257"][key] = report_ref(
            full_report(spec, data, w.SWEEP_N, w.SWEEP_N))
        print(key, refs["sweep_perturbed_257"][key]["row"][4:6], flush=True)
    (HERE / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_out") as tmp:
        refs["cli_session"] = dict(cli_ref(*s, tmp) for s in w.cli_pool())
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
