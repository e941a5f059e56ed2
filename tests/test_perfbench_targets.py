"""The benchmark uses only names and report fields that the package still has,
and the package's reports still pass the benchmark's own output check."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import serrin
from serrin import VerificationReport, boundary_data_of, full_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))}


def test_tracer_targets_exist():
    # a traced benchmark run fails on the first (module, name) it cannot find
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(module, name) for module, name, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_imported_names_exist():
    # every benchmark run imports these first, traced or not
    imported = [(file, alias.name) for file, tree in _trees().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "serrin"
                and node.level == 0
                for alias in node.names]
    assert len({file for file, _ in imported}) >= 4  # oracle, record, selfcheck, workloads
    missing = [(file, name) for file, name in imported
               if not hasattr(serrin, name)
               and importlib.util.find_spec(f"serrin.{name}") is None]
    assert missing == []


def test_report_attributes_read_by_the_oracle_exist():
    # the oracle judges each report by these; a dropped field fails every run
    tree = _trees()["oracle.py"]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "report"}
    assert {"case", "diagnostic_only", "model", "csv_row"} <= read
    fields = {f.name for f in dataclasses.fields(VerificationReport)}
    methods = {name for name in read if callable(getattr(VerificationReport, name, None))}
    assert read - methods <= fields


def test_selfcheck_can_assign_report_fields():
    # the self-check falsifies a report by assigning a wrong pohozaev_res
    assert not VerificationReport.__dataclass_params__.frozen
    assert "pohozaev_res" in {f.name for f in dataclasses.fields(VerificationReport)}


def test_reports_pass_the_benchmark_oracle(monkeypatch):
    # a report the benchmark would reject as a wrong output fails here first:
    # the six reference sets at 65 x 64 and every 10th 257^2 sweep domain,
    # judged by oracle.check_report against the recorded references
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import, write nothing
    workloads = importlib.import_module("workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text())
    runs = [(f"reference {key}", spec, data, workloads.REF_NS, workloads.REF_NT,
             refs["verify_reference_65"][key])
            for key, (spec, data) in workloads.reference_sets().items()]
    data = boundary_data_of(workloads.MODEL_A)
    runs += [(f"sweep {key}", spec, data, workloads.SWEEP_N, workloads.SWEEP_N,
              refs["sweep_perturbed_257"][key])
             for key, spec in list(workloads.sweep_pool().items())[::10]]
    assert len(runs) == 17
    problems = {label: workloads.oracle.check_report(full_report(spec, data, ns, nt), ref)
                for label, spec, data, ns, nt, ref in runs}
    assert {label: p for label, p in problems.items() if p is not None} == {}
