"""Run every CLI subcommand over a fixed set of scenario configs, and diff two such runs.

    PYTHONPATH=src python tools/cli_runs.py dump OUT.json
    python tools/cli_runs.py diff A.json B.json

``dump`` runs ``python -m serrin.cli`` with the ``serrin`` package that this
interpreter imports (so ``PYTHONPATH`` picks the tree) for each subcommand on
each config of :func:`variants`: a few valid scenarios at 17 x 16, whose runs
solve, verify, sweep and write files, and one config per rule of the config
format that rejects it.  ``solve``, ``verify``, ``sweep`` and ``mms`` also run
with ``--eps 0.02``.  Each run has its own temporary directory as its working
directory, a fresh process and ``OPENBLAS_NUM_THREADS=1``; the 720 runs take
about a minute on two worker threads.  For each run ``OUT.json`` holds the
exit code, stdout without ``solve``'s ``seconds:`` line, stderr, the SHA-256
of each file the run wrote, and the JSON report without its ``timings`` and
the solver's four seconds fields.

``diff`` counts the runs whose exit code, stdout, files or report differ and
names each, then counts the runs whose stderr differs, whose wording may
change where the rest may not, and prints each distinct change once with the
number of runs that show it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ["fit", "solve", "verify", "sweep", "mms"]
EPS_FLAG = ["--eps", "0.02"]
FIELDS = ["code", "stdout", "files", "report"]
TIMING_KEYS = {"seconds", "assemble_s", "setup_s", "solve_s"}
WORKERS = 2

MODEL_A = {"L": 0.0, "M": 4.0, "r_i": 1.0, "r_o": 1.5}
# boundary_data_of(MODEL_A)
DATA_A = {"a": -0.5, "b": 0.49686043243265754, "alpha": -3.0, "beta": 1.1666666666666667}
CIRCLES = {"inner": {"c0": 1.0}, "outer": {"c0": 1.5, "cos": [0.0], "sin": []}}
PERTURBATION = {"target": "inner", "harmonic": 3, "kind": "cos", "amplitude": 0.05}
OUTPUT = {"report": "report.json", "csv": "rows.csv", "field": "field.dat"}


def _model(**blocks):
    """Model A at 17 x 16 with a sweep and an mms block, updated by ``blocks``
    (a block set to None is dropped)."""
    cfg = {"model_params": MODEL_A, "resolution": {"ns": 17, "ntheta": 16},
           "sweep": {"parameter": "ntheta", "values": [16, 24]},
           "mms": {"sizes": [17, 33], "exact": "model"}, **blocks}
    return {key: value for key, value in cfg.items() if value is not None}


def _perturbed(**perturbation):
    return _model(perturbation={**PERTURBATION, **perturbation})


def _curve(**inner):
    """Model A on its circles given as a 'domain', the inner curve updated by ``inner``."""
    return _model(domain={"inner": {"c0": 1.0, **inner}, "outer": {"c0": 1.5}})


def variants():
    """``{label: config}``: the valid scenarios first, then one per rejection rule."""
    valid = {
        "model": _model(output=OUTPUT),
        "model_no_output": _model(),
        "model_perturbed": _model(perturbation=PERTURBATION, output=OUTPUT,
                                  sweep={"parameter": "eps", "values": [0.0, 0.05]},
                                  mms={"sizes": [17, 33], "exact": "saddle"}),
        "model_zero_amplitude": _perturbed(target="outer", kind="sin", harmonic=2,
                                           amplitude=0),
        "model_defaults": _model(resolution={"ns": 17.0}, solver={"tol": 1e-10},
                                 mms={"sizes": [17, 33]}, output={"csv": "rows.csv"}),
        "data_domain": {"boundary_data": DATA_A, "domain": CIRCLES,
                        "resolution": {"ns": 17, "ntheta": 16},
                        "perturbation": {**PERTURBATION, "amplitude": 0.0},
                        "sweep": {"parameter": "ns", "values": [17, 21]},
                        "mms": {"sizes": [17, 33], "exact": "linear"}, "output": OUTPUT},
        "data_uncovered": {"boundary_data": {"a": 1.0, "b": 0.0, "alpha": 0.5, "beta": -0.5},
                           "domain": CIRCLES, "resolution": {"ns": 17, "ntheta": 16},
                           "sweep": {"parameter": "ns", "values": [17]},
                           "mms": {"sizes": [17, 33], "exact": "constant"}},
        "data_inadmissible": {"boundary_data": {"a": 0.0, "b": 0.0, "alpha": 0.0, "beta": 0.0},
                              "domain": CIRCLES},
        "data_no_domain": {"boundary_data": DATA_A, "sweep": {"parameter": "ns",
                                                              "values": [17]}},
    }
    rejected = {
        "json_array": [MODEL_A],
        "json_number": 3,
        "json_string": "model_params",
        "unknown_block": _model(bogus=1),
        "both_sources": _model(boundary_data=DATA_A),
        "no_source": _model(model_params=None),
        "params_list": _model(model_params=[0.0, 4.0, 1.0, 1.5]),
        "params_missing_key": _model(model_params={"L": 0.0, "M": 4.0, "r_i": 1.0}),
        "params_unknown_key": _model(model_params={**MODEL_A, "N": 1.0}),
        "params_string": _model(model_params={**MODEL_A, "M": "4.0"}),
        "params_bool": _model(model_params={**MODEL_A, "L": True}),
        "params_nan": _model(model_params={**MODEL_A, "L": math.nan}),
        "params_radii": _model(model_params={**MODEL_A, "r_o": 0.5}),
        "data_huge": {"boundary_data": {**DATA_A, "b": -10**400}, "domain": CIRCLES},
        "resolution_list": _model(resolution=[17, 16]),
        "resolution_bool": _model(resolution={"ns": True}),
        "resolution_fractional": _model(resolution={"ns": 17.5, "ntheta": 16}),
        "resolution_unknown_key": _model(resolution={"ns": 17, "nr": 16}),
        "resolution_too_small": _model(resolution={"ns": 2, "ntheta": 16}),
        "solver_null": {**_model(), "solver": None},
        "solver_method": _model(solver={"method": "iterative"}),
        "solver_string_tol": _model(solver={"tol": "1e-11"}),
        "solver_tol_range": _model(solver={"tol": 0.5}),
        "domain_list": _model(domain=[{"c0": 1.0}, {"c0": 1.5}]),
        "domain_missing_side": _model(domain={"inner": {"c0": 1.0}}),
        "domain_unknown_side": _model(domain={**CIRCLES, "middle": {"c0": 1.2}}),
        "domain_curve_number": _model(domain={"inner": 1.0, "outer": {"c0": 1.5}}),
        "domain_missing_c0": _model(domain={"inner": {"cos": [0.1]}, "outer": {"c0": 1.5}}),
        "domain_unknown_curve_key": _curve(tan=[0.1]),
        "domain_bool_c0": _curve(c0=True),
        "domain_string_c0": _curve(c0="1"),
        "domain_huge_c0": _curve(c0=10**400),
        "domain_cos_number": _curve(cos=0.1),
        "domain_cos_string": _curve(cos=[0.0, "0.1"]),
        "domain_sin_nan": _curve(sin=[math.nan]),
        "domain_degree_17": _curve(cos=[0.0] * 16 + [0.01]),
        "domain_crossing": _model(domain={"inner": {"c0": 1.0}, "outer": {"c0": 0.5}}),
        "perturbation_empty": _model(perturbation={}),
        "perturbation_list": _model(perturbation=["inner", 3, "cos", 0.05]),
        "perturbation_missing_key": _model(perturbation={"target": "inner", "harmonic": 3,
                                                         "kind": "cos"}),
        "perturbation_unknown_key": _perturbed(phase=0.0),
        "perturbation_target": _perturbed(target="middle"),
        "perturbation_target_number": _perturbed(target=3),
        "perturbation_kind": _perturbed(kind="tan"),
        "perturbation_harmonic_0": _perturbed(harmonic=0),
        "perturbation_harmonic_17": _perturbed(harmonic=17),
        "perturbation_harmonic_fractional": _perturbed(harmonic=2.5),
        "perturbation_amplitude_nan": _perturbed(amplitude=math.nan),
        "perturbation_amplitude_string": _perturbed(amplitude="0.05"),
        "perturbation_crossing": _perturbed(amplitude=0.9),
        "sweep_empty": _model(sweep={}),
        "sweep_unknown_key": _model(sweep={"parameter": "ns", "values": [17], "step": 1}),
        "sweep_parameter": _model(sweep={"parameter": "L", "values": [0.0]}),
        "sweep_values_number": _model(sweep={"parameter": "ns", "values": 3}),
        "sweep_values_empty": _model(sweep={"parameter": "ns", "values": []}),
        "sweep_values_fractional": _model(sweep={"parameter": "ns", "values": [17.5]}),
        "sweep_values_infinite": {**_perturbed(), "sweep": {"parameter": "eps",
                                                            "values": [0.0, math.inf]}},
        "sweep_eps_without_perturbation": _model(sweep={"parameter": "eps",
                                                        "values": [0.0, 0.05]}),
        "mms_list": _model(mms=[17, 33]),
        "mms_unknown_key": _model(mms={"sizes": [17, 33], "order": 2}),
        "mms_sizes_string": _model(mms={"sizes": "17,33"}),
        "mms_sizes_fractional": _model(mms={"sizes": [17.5, 33]}),
        "mms_sizes_one": _model(mms={"sizes": [17, 17]}),
        "mms_exact_number": _model(mms={"sizes": [17, 33], "exact": 3}),
        "mms_exact_unknown": _model(mms={"sizes": [17, 33], "exact": "cubic"}),
        "output_list": _model(output={"csv": ["rows.csv"]}),
        "output_number": _model(output={"field": 7}),
        "output_empty": _model(output={"csv": ""}),
        "output_nul": _model(output={"report": "a\0b"}),
        "output_missing_directory": _model(output={"csv": "missing/rows.csv"}),
        "output_unknown_key": _model(output={"log": "run.log"}),
    }
    return {**valid, **rejected}


def _runs():
    """``(label, command, flags, config)`` of every run, in a fixed order."""
    return [(" ".join([command, name, *flags]), command, flags, cfg)
            for name, cfg in variants().items() for command in COMMANDS
            for flags in ([[]] if command == "fit" else [[], EPS_FLAG])]


def _report(path):
    """The JSON report at ``path`` without the run's timings."""
    report = json.loads(path.read_text())
    report.pop("timings", None)
    for key in TIMING_KEYS:
        report.get("solver", {}).pop(key, None)
    return report


def _run_one(command, flags, cfg, env):
    with tempfile.TemporaryDirectory() as folder:
        Path(folder, "cfg.json").write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "serrin.cli", command, "cfg.json", *flags],
                              cwd=folder, env=env, capture_output=True, text=True)
        report = Path(folder, "report.json")
        written = sorted(p for p in Path(folder).rglob("*")
                         if p.is_file() and p.name != "cfg.json" and p != report)
        return {
            "code": proc.returncode,
            "stdout": [line for line in proc.stdout.splitlines()
                       if not line.startswith("seconds: ")],
            "stderr": proc.stderr,
            "files": {str(p.relative_to(folder)): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in written},
            "report": _report(report) if report.is_file() else None,
        }


def dump(out):
    import serrin

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(serrin.__file__).resolve().parents[1])}
    runs = _runs()
    with ThreadPoolExecutor(WORKERS) as pool:
        results = pool.map(lambda run: _run_one(*run[1:], env), runs)
        dumped = {label: result for (label, *_), result in zip(runs, results)}
    Path(out).write_text(json.dumps({"runs": dumped}, indent=1))


def diff(path_a, path_b):
    a, b = (json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b))
    if a.keys() != b.keys():
        raise SystemExit("the two dumps hold different runs")
    differ = {label: [f for f in FIELDS if a[label][f] != b[label][f]] for label in a}
    differ = {label: fields for label, fields in differ.items() if fields}
    print(f"runs that differ in {', '.join(FIELDS)}: {len(differ)} of {len(a)}")
    for label, fields in differ.items():
        print(f"  {label}: {', '.join(fields)}")
    changes = {}  # (stderr of A, stderr of B) -> the runs that print them
    for label in a:
        if a[label]["stderr"] != b[label]["stderr"]:
            changes.setdefault((a[label]["stderr"], b[label]["stderr"]), []).append(label)
    print(f"runs that differ in stderr: {sum(map(len, changes.values()))} of {len(a)}, "
          f"{len(changes)} distinct changes")
    for (old, new), labels in changes.items():
        print(f"  {len(labels)} runs, first {labels[0]}:\n    {old.strip()!r}\n -> {new.strip()!r}")


if __name__ == "__main__":
    commands = {"dump": (dump, 1), "diff": (diff, 2)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands \
            or len(sys.argv) != 2 + commands[sys.argv[1]][1]:
        raise SystemExit(__doc__)
    command, _ = commands[sys.argv[1]]
    command(*sys.argv[2:])
