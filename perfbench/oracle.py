"""Correctness checks for every benchmark operation.

Reports and CLI outputs are compared with reference outputs recorded by
``record.py``; fits are checked by round trip against the generating model.
Each check returns ``None`` when the output is correct and a one-line
description of the mismatch otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from serrin import ProblemCase, compatibility, evaluate_checks

# CSV-row numbers must satisfy |x - ref| <= RTOL * |ref| + ATOL.  The slack
# admits any solver that meets the residual contract (tol = 1e-11): the
# direct and the BiCGSTAB paths differ by at most 5e-8 on these numbers at
# 129^2.
RTOL = 1e-4
ATOL = 1e-6

# Criterion 1 of the acceptance tests.
FIT_RTOL = 1e-6
FIT_FTOL = 1e-10

_UNFITTED = (str(ProblemCase.DECREASING_UNCOVERED), str(ProblemCase.INADMISSIBLE))


def compare_row(row, ref):
    """First mismatch between a CSV row and its reference, or None."""
    if len(row) != len(ref):
        return f"row has {len(row)} columns, reference {len(ref)}"
    for i, (got, want) in enumerate(zip(row, ref)):
        if i < 4 or i == len(ref) - 1:  # case, Ns, Ntheta, eps, error: exact
            if got != want:
                return f"column {i}: {got!r} != {want!r}"
            continue
        if (got == "") != (want == ""):
            return f"column {i}: {got!r} != {want!r}"
        if got and not abs(float(got) - float(want)) <= RTOL * abs(float(want)) + ATOL:
            return f"column {i}: {got} differs from {want}"
    return None


def check_report(report, ref):
    """Case, gated verdict, diagnostic flag and CSV row of a full report."""
    if report.case != ref["case"]:
        return f"case {report.case} != {ref['case']}"
    _, verified = evaluate_checks(report)
    if verified != ref["verified"]:
        return f"verdict {verified} != {ref['verified']}"
    if report.diagnostic_only != ref["diagnostic_only"]:
        return f"diagnostic_only {report.diagnostic_only} != {ref['diagnostic_only']}"
    if report.case in _UNFITTED:
        model_based = (report.model, report.grad_margin, report.area_margin_in,
                       report.divergence, report.refined)
        if any(v is not None for v in model_based):
            return f"{report.case} report carries model-based checks"
        if verified:
            return f"{report.case} report came back verified"
    return compare_row(report.csv_row(), ref["row"])


def check_fit(params, data, case, fitted):
    """Round trip at criterion 1's tolerances; the case must match the model."""
    if case is not params.case:
        return f"classified {case}, model is {params.case}"
    f = abs(compatibility(data, fitted.M))
    if not f <= FIT_FTOL:
        return f"|F(M)| = {f:.3e} > {FIT_FTOL:g}"
    for name in ("L", "M", "r_i", "r_o"):
        x, y = getattr(params, name), getattr(fitted, name)
        if not abs(x - y) <= FIT_RTOL * max(1e-12, abs(x)):
            return f"{name}: fitted {y!r}, model {x!r}"
    return None


def check_cli_fit(result, params):
    if result.returncode != 0:
        return f"fit exit code {result.returncode}, expected 0"
    if f"case: {params.case}" not in result.stdout:
        return "fit printed the wrong case"
    for name in ("L", "M", "r_i", "r_o"):
        m = re.search(rf"^{name} = (\S+)$", result.stdout, re.M)
        want = getattr(params, name)
        # printed to 12 digits, so a parameter that is 0 reads back as ~1e-16
        if m is None or not math.isclose(float(m.group(1)), want, rel_tol=FIT_RTOL,
                                         abs_tol=1e-12):
            return f"fit printed a wrong {name}"
    return None


def check_field(meta, values, spec, expected, tol, identical):
    """The field read back from disk against the in-process solve."""
    if (meta["ns"], meta["ntheta"]) != expected.shape:
        return f"field shape {(meta['ns'], meta['ntheta'])} != {expected.shape}"
    if meta["domain_hash"] != spec.spec_hash():
        return "field file carries the wrong domain hash"
    err = float(np.max(np.abs(values - expected)))
    if not err <= tol * float(np.max(np.abs(expected))):
        return f"field differs from the in-process solve by {err:.3e}"
    if not identical:
        return "rerun of the same solve wrote different bytes"
    return None


def check_cli_verify(result, cfg, ref):
    if result.returncode != ref["verify_exit"]:
        return f"verify exit code {result.returncode}, expected {ref['verify_exit']}"
    with open(cfg["output"]["report"]) as fh:
        tree = json.load(fh)
    if tree["case"] != ref["case"] or tree["diagnostic_only"] != ref["diagnostic_only"]:
        return "verify report has the wrong case or diagnostic flag"
    with open(cfg["output"]["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2:
        return f"verify CSV has {len(rows)} lines, expected 2"
    return compare_row(rows[1], ref["row"])


def check_cli_mms(result, ref):
    if result.returncode != 0:
        return f"mms exit code {result.returncode}, expected 0"
    m = re.search(r"order_linf=(\S+) order_l2=(\S+)", result.stdout)
    if m is None:
        return "mms printed no convergence orders"
    for got, want in zip(m.groups(), ref["mms_orders"]):
        if not abs(float(got) - want) <= 2e-3:  # printed to three decimals
            return f"mms order {got} differs from {want}"
    return None
