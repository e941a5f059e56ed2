"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Shrinks every workload's grids and batches, records references for the
tiny sizes with ``record.py``'s functions, and runs each workload untraced
and traced for a fraction of a second.  It asserts that

- every workload in ``BENCHMARK.json`` exists, and ``BENCHMARK.json`` and
  ``run.py`` name the same metrics with the same units and directions;
- every metric is emitted, finite, with its unit, and the run is correct;
- a deliberately wrong program output is counted as a failure in
  ``error_rate`` for every operation, not passed.

Takes about half a minute on two cores; exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import tempfile

import run

HERE = run.HERE
problem = run.use_checkout_sources()
if problem:
    sys.exit(f"error: {problem}")

import record  # noqa: E402
import workloads as w  # noqa: E402
from serrin import boundary_data_of, full_report  # noqa: E402


def check_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {x["name"] for x in spec["workloads"]} <= set(w.WORKLOADS), \
        "BENCHMARK.json names a workload that workloads.WORKLOADS lacks"
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, f"BENCHMARK.json {key} differs from run.py"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values()), "setup_s must have the largest bound"


def shrink():
    w.SWEEP_N = 17
    w.REF_NS, w.REF_NT = 17, 16
    w.CLI_NS, w.CLI_NT = 17, 16
    w.MMS_SIZES = [17, 33]
    w.FIT_BATCH = 50
    w.SWEEP_AMPLITUDES = [0.05]
    w.CLI_AMPLITUDES = [0.05]
    run.SETUP_REPEATS = 1
    record.MIN_MARGIN = 0.0  # tiny grids put some checks near their limits


def tiny_references(tmp):
    data = boundary_data_of(w.MODEL_A)
    return {
        "verify_reference_65": {
            key: record.report_ref(full_report(spec, d, w.REF_NS, w.REF_NT))
            for key, (spec, d) in w.reference_sets().items()},
        "sweep_perturbed_257": {
            key: record.report_ref(full_report(spec, data, w.SWEEP_N, w.SWEEP_N))
            for key, spec in w.sweep_pool().items()},
        "cli_session": dict(record.cli_ref(*s, tmp) for s in w.cli_pool()),
    }


def run_workload(name, trace, refs):
    args = argparse.Namespace(workload=name, seed=7, seconds=0.3, trace=trace,
                              setup_only=False)
    context, result = run.run(args, refs)
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(table), f"{name}: metric names differ"
    for key, m in result["metrics"].items():
        assert m["unit"] == table[key][0], f"{name}: {key} has unit {m['unit']}"
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), f"{name}: {key}"
    assert result["attempted"] >= 1
    return context, result


def falsify():
    """Make every serrin call the workloads time return a wrong output."""
    real_report, real_fit, real_invoke = w.full_report, w.fit_model, w.CliSession._invoke

    def wrong_report(*args, **kwargs):
        rep = real_report(*args, **kwargs)
        rep.pohozaev_res = rep.pohozaev_res * 1.01 + 1e-3
        return rep

    w.full_report = wrong_report
    w.fit_model = lambda data: dataclasses.replace(real_fit(data), L=real_fit(data).L + 1e-3)
    w.CliSession._invoke = lambda self, argv: w.CliResult(4, real_invoke(self, argv).stdout)


def main():
    check_benchmark_json()
    shrink()
    (HERE / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_out") as tmp:
        refs = tiny_references(tmp)
    for name in w.WORKLOADS:
        for trace in (0, 1):
            context, result = run_workload(name, trace, refs)
            assert result["correct"] and result["failed"] == 0, context["errors"]
        if name == "sweep_perturbed_257":  # model-based reports only: seed-state counts
            per = result["metrics"]
            assert per["solver.gradient_field.calls_per_report"]["value"] == 6
            assert per["models.pseudo_radius.calls_per_report"]["value"] == 2
        print(f"ok: {name} emits every metric and passes its oracle")
    falsify()
    for name in w.WORKLOADS:
        context, result = run_workload(name, 0, refs)
        assert not result["correct"], f"{name}: wrong outputs passed"
        assert result["failed"] == result["attempted"], \
            f"{name}: {result['failed']} of {result['attempted']} wrong outputs counted"
        assert context["error_rate"] == 1.0
        print(f"ok: {name} counts every wrong output ({result['failed']} of "
              f"{result['attempted']})")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
