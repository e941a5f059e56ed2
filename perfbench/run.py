"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports serrin from the
checkout's ``src/`` and nothing else.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run; the last line of standard output is always the JSON result.  The line
before it is the run context.  Run files go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 3

# name -> (unit, better); must agree with BENCHMARK.json (selfcheck.py checks).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
}
PER_LAYER = {
    "solver.solve_dirichlet.s_per_report": ("s", "lower"),
    "solver.iterations_per_solve": ("count", "lower"),
    "solver.unknowns": ("count", "lower"),
    "solver.residual_max": ("ratio", "lower"),
    "solver.gradient_field.calls_per_report": ("count", "lower"),
    "solver.gradient_field.s_per_report": ("s", "lower"),
    "solver.neumann_trace.calls_per_report": ("count", "lower"),
    "models.pseudo_radius.calls_per_report": ("count", "lower"),
    "models.pseudo_radius.s_per_report": ("s", "lower"),
    "verify.self_s_per_report": ("s", "lower"),
    "verify.gradient_bound_margin.s_per_report": ("s", "lower"),
    "verify.divergence_identity_residual.s_per_report": ("s", "lower"),
    "verify.refined_pohozaev_check.s_per_report": ("s", "lower"),
    "verify.degenerate_expansion_check.s_per_report": ("s", "lower"),
    "verify.boundary_distance.s_per_report": ("s", "lower"),
    "verify.pohozaev_residual.s_per_report": ("s", "lower"),
    "verify.area_bound_check.s_per_report": ("s", "lower"),
    "models.fit_model.us_per_call": ("us", "lower"),
    "models.compatibility.calls_per_fit": ("count", "lower"),
    "models.classify_case.us_per_call": ("us", "lower"),
    "geometry.build_grid.s_per_report": ("s", "lower"),
    "geometry.boundary_length.calls_per_report": ("count", "lower"),
    "geometry.boundary_length.s_per_report": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.fit.s": ("s", "lower"),
    "cli.solve.s": ("s", "lower"),
    "cli.verify.s": ("s", "lower"),
    "cli.mms.s": ("s", "lower"),
    "solver.write_field.s": ("s", "lower"),
    "solver.read_field.s": ("s", "lower"),
    "solver.field_bytes": ("bytes", "lower"),
    "trace.op_p50_ms": ("ms", "lower"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.overhead_ms_per_op": ("ms", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (timed by the parent run)")
    return p.parse_args(argv)


def measure(workload, seconds, tracer=None):
    """Run operations until ``seconds`` have passed; time each one.

    Returns the timed samples, the number of operations attempted (the
    untimed warm-up included), the number failed and their descriptions.
    A raised ``SerrinError`` or an output the oracle rejects fails the
    operation, which skips its remaining steps; the run continues.
    """
    from serrin import SerrinError

    from tracer import OP_ID

    samples, errors = [], []
    attempted = failed = 0

    def one(steps, timed):
        nonlocal attempted, failed
        attempted += 1
        span = tracer.open(OP_ID) if tracer else None
        elapsed, problem = 0.0, None
        for step in steps:
            t0 = time.perf_counter()
            try:
                out = step.run()
            except SerrinError as e:
                problem = f"{type(e).__name__}: {e}"
            elapsed += time.perf_counter() - t0
            if problem is None:
                problem = step.check(out)
            if problem is not None:
                failed += 1
                errors.append(f"{step.label}: {problem}")
                break
        if span is not None:
            tracer.close(span)
        if timed:
            samples.append(elapsed)

    warm = workload.warmup()
    if warm is not None:
        one(warm, timed=False)
    t_end = time.perf_counter() + seconds
    for steps in workload.ops():
        if time.perf_counter() >= t_end:
            break
        one(steps, timed=True)
    return samples, attempted, failed, errors


def source_digest():
    """sha256 over the checkout's src/serrin sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "serrin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def setup_seconds(args):
    """Median wall time of fresh interpreters that import serrin and build the inputs."""
    from workloads import median_wall

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return median_wall(argv, ROOT, SETUP_REPEATS)


def cpu_probe_ms():
    """Median of five timings of a fixed pure-Python loop: the machine's speed
    at the time, for reading one run's timings against another's."""
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[2] * 1e3


def peak_rss_mb():
    """Peak resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run(args, refs):
    """Build the workload, measure it and return ``(context, result)``."""
    import numpy
    import scipy

    import oracle
    import workloads
    from tracer import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp, refs, bool(args.trace))
        if args.setup_only:
            return None, None
        tracer = None
        if args.trace:
            extra = workload.layer_extra()
            tracer = Tracer()
            tracer.install(harness=[workloads, oracle])
        else:
            setup = setup_seconds(args)
        probe = [cpu_probe_ms()]
        try:
            samples, attempted, failed, errors = measure(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        probe.append(cpu_probe_ms())

    tail_p = workload.tail_percentile
    tail_s = float(numpy.percentile(samples, tail_p))
    if args.trace:
        values = layer_metrics(tracer, samples, extra)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        table = PER_LAYER
    else:
        values = {
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": numpy.percentile(samples, 50) * 1e3,
            "op_tail_ms": tail_s * 1e3,
        }
        table = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": table[k][0]} for k in table}
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SERRIN_THREADS")},
        "cpu_probe_ms": probe, "sizes": workload.sizes,
        "samples": len(samples), "tail_percentile": tail_p,
        "samples_beyond_tail": int(numpy.count_nonzero(numpy.asarray(samples) > tail_s)),
        "setup_repeats": 0 if args.trace else SETUP_REPEATS,
        "error_rate": failed / attempted, "errors": errors[:10],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return context, result


def use_checkout_sources():
    """Import serrin from the checkout's src/, here and in child processes.

    Returns an error message when the sources are missing or another copy
    of serrin would be measured instead.
    """
    if not (SRC / "serrin" / "__init__.py").is_file():
        return f"no serrin sources under {SRC}"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import serrin
    import serrin.cli  # noqa: F401  (traced runs patch its names too)

    if Path(serrin.__file__).resolve().parent != (SRC / "serrin").resolve():
        return f"imported serrin from {serrin.__file__}, not from {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    problem = use_checkout_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    context, result = run(args, refs)
    if args.setup_only:
        return 0
    for line in context["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
