"""Command-line interface: fit, solve, verify, sweep and mms subcommands.

Scenarios are JSON files; see the README for the schema.  Exit codes:
0 success, 1 a gated verification check failed, 2 invalid input or
configuration, an output file that cannot be written or a grid too large for
memory, 3 boundary data in the unproven regime, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigError, SerrinError
from .geometry import MAX_DEGREE, SIDES, DomainSpec, build_grid
from .models import (
    BoundaryData,
    ModelParams,
    ProblemCase,
    boundary_data_of,
    classify_case,
    compatibility,
    fit_model,
)
from .solver import SolveOptions, manufactured_field, mms_convergence, solve_dirichlet, write_field
from .verify import CSV_COLUMNS, error_row, evaluate_checks, format_value, full_report

_TOP_KEYS = {
    "boundary_data", "model_params", "domain", "perturbation",
    "resolution", "solver", "sweep", "mms", "output",
}
_DEFAULT_NS = 65
_DEFAULT_NTHETA = 64


def _number(value, where, integer=False):
    """A finite JSON number from the config, as float (or int), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):  # json reads NaN, Infinity and 1e400
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if integer:
        if not float(value).is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _block(cfg, name, required=(), optional=()):
    """Config block ``name`` ({} when absent), else ConfigError unless it is an
    object with every ``required`` key and no key beyond those and ``optional``."""
    block = cfg.get(name, {})
    if not (isinstance(block, dict)
            and set(required) <= set(block) <= {*required, *optional}):
        parts = [f"{kind} keys {sorted(keys)}" for kind, keys in
                 (("required", required), ("optional", optional)) if keys]
        raise ConfigError(f"'{name}' must be an object with only the {' and '.join(parts)}")
    return block


@dataclass
class Scenario:
    data: BoundaryData
    params: Optional[ModelParams]
    base: Optional[DomainSpec]
    # (target, kind, harmonic); None when the config has no 'perturbation'
    perturbation: Optional[tuple]
    ns: int
    ntheta: int
    eps: float
    options: SolveOptions
    output: dict
    # (parameter, values); None when the config has no 'sweep'
    sweep: Optional[tuple]
    # (sizes, exact kind); None when the config has no 'mms'
    mms: Optional[tuple]

    def domain(self) -> DomainSpec:
        """The base domain perturbed at the scenario's amplitude ``eps``.

        A 'perturbation' block applies even at amplitude 0, which pads the
        coefficients that the domain hash reads; without one the amplitude is
        0, since :func:`_load_scenario` rejects any other.
        """
        if self.base is None:
            raise ConfigError(
                "config needs a 'domain' (or model parameters to default to circles)"
            )
        if self.perturbation is None:
            return self.base
        target, kind, harmonic = self.perturbation
        curve = self.base.curve(target)
        key = f"{kind}_coeffs"
        coeffs = list(getattr(curve, key))
        coeffs += [0.0] * (harmonic - len(coeffs))
        coeffs[harmonic - 1] += float(self.eps)
        return replace(self.base, **{target: replace(curve, **{key: tuple(coeffs)})})


def _load_scenario(args) -> Scenario:
    try:
        with open(args.config) as fh:
            # an integer too long for a float parses as +-inf, as 1e400 does
            cfg = json.load(fh, parse_int=lambda s: int(s) if len(s) < 300 else float(s))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:  # also bad UTF-8 and deep nesting
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    has_data = "boundary_data" in cfg
    has_params = "model_params" in cfg
    if has_data == has_params:
        raise ConfigError("config needs exactly one of 'boundary_data' or 'model_params'")
    if has_params:
        block = _block(cfg, "model_params", required={"L", "M", "r_i", "r_o"})
        params = ModelParams(**{k: _number(v, f"model_params.{k}") for k, v in block.items()})
        data = boundary_data_of(params)
    else:
        block = _block(cfg, "boundary_data", required={"a", "b", "alpha", "beta"})
        data = BoundaryData(**{k: _number(v, f"boundary_data.{k}") for k, v in block.items()})
        params = None

    res = _block(cfg, "resolution", optional={"ns", "ntheta"})
    ns = _number(res.get("ns", _DEFAULT_NS), "resolution.ns", integer=True)
    ntheta = _number(res.get("ntheta", _DEFAULT_NTHETA), "resolution.ntheta", integer=True)
    if args.ns is not None:
        ns = args.ns
    if args.ntheta is not None:
        ntheta = args.ntheta

    sol = _block(cfg, "solver", optional={"tol"})
    options = SolveOptions(tol=_number(sol.get("tol", SolveOptions.tol), "solver.tol"))

    if "domain" in cfg:
        base = DomainSpec.from_dict(cfg["domain"])
    elif params is not None:
        base = DomainSpec.circles(params.r_i, params.r_o)
    else:
        base = None

    perturbation = None
    eps = 0.0
    if "perturbation" in cfg:
        pert = _block(cfg, "perturbation", required={"target", "harmonic", "kind", "amplitude"})
        target, kind = pert["target"], pert["kind"]
        harmonic = _number(pert["harmonic"], "perturbation.harmonic", integer=True)
        # checked before Scenario.domain pads the coefficients up to the harmonic
        if (target not in SIDES or kind not in ("cos", "sin")
                or not 1 <= harmonic <= MAX_DEGREE):
            raise ConfigError("perturbation needs target inner/outer, kind cos/sin, "
                              f"harmonic in 1..{MAX_DEGREE}")
        perturbation = (target, kind, harmonic)
        eps = _number(pert["amplitude"], "perturbation.amplitude")
    if args.eps is not None:
        eps = args.eps

    output = _block(cfg, "output", optional={"report", "csv", "field"})
    # open() raises ValueError, not OSError, on a path with a NUL character
    if not all(isinstance(v, str) and v and "\0" not in v for v in output.values()):
        raise ConfigError("'output' values must be file paths (nonempty strings without NUL)")
    for key, path in output.items():  # checked before any solve
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"output.{key}: directory {folder!r} does not exist")

    sweep = None
    if "sweep" in cfg:
        sw = _block(cfg, "sweep", required={"parameter", "values"})
        parameter, values = sw["parameter"], sw["values"]
        if parameter not in ("eps", "ns", "ntheta"):
            raise ConfigError("sweep parameter must be one of eps, ns, ntheta")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep values must be a nonempty list")
        sweep = (parameter,
                 [_number(v, "sweep.values", integer=parameter != "eps") for v in values])
    amplitudes = [eps] + (sweep[1] if sweep and sweep[0] == "eps" else [])
    if perturbation is None and any(amplitudes):
        raise ConfigError("a nonzero amplitude (--eps or an eps sweep value) "
                          "needs a 'perturbation' block")

    mms = None
    if "mms" in cfg:
        mc = _block(cfg, "mms", optional={"sizes", "exact"})
        sizes = mc.get("sizes", [33, 65, 129])
        if not isinstance(sizes, list):
            raise ConfigError("mms sizes must be a list")
        kind = mc.get("exact", "model")
        if not isinstance(kind, str):  # the kind names live in manufactured_field
            raise ConfigError(f"mms exact must be a string, got {kind!r}")
        mms = ([_number(n, "mms.sizes", integer=True) for n in sizes], kind)

    return Scenario(data=data, params=params, base=base, perturbation=perturbation,
                    ns=ns, ntheta=ntheta, eps=eps, options=options, output=output,
                    sweep=sweep, mms=mms)


def cmd_fit(s: Scenario, args) -> int:
    case = classify_case(s.data)
    params = fit_model(s.data)
    print(f"case: {case}")
    for name in ("L", "M", "r_i", "r_o"):
        print(f"{name} = {format_value(getattr(params, name))}")
    print(f"|F(M)| = {abs(compatibility(s.data, params.M)):.3e}")
    return 0


def cmd_solve(s: Scenario, args) -> int:
    spec = s.domain()
    grid = build_grid(spec, s.ns, s.ntheta)
    field, stats = solve_dirichlet(grid, -2.0, s.data.a, s.data.b, s.options)
    path = s.output.get("field", "field.dat")
    write_field(field, path)
    print(f"unknowns: {stats.unknowns}")
    print(f"iterations: {stats.iterations}")
    print(f"residual: {stats.residual:.3e}")
    print(f"seconds: {stats.seconds:.3f}")
    print(f"field: {path}")
    return 0


def cmd_verify(s: Scenario, args) -> int:
    report = full_report(s.domain(), s.data, s.ns, s.ntheta, s.options)
    checks, ok = evaluate_checks(report, expect_asymmetric=args.expect_asymmetric)
    print(f"case: {report.case}")
    print(f"note: {report.regime_note}")
    for c in checks:
        print(c.describe())
    if args.timings:
        for stage, seconds in report.timings.items():
            print(f"time {stage}: {seconds:.6f} s")
        st = report.solver
        print(f"solver: iterations={st['iterations']} assemble_s={st['assemble_s']:.6f} "
              f"setup_s={st['setup_s']:.6f} solve_s={st['solve_s']:.6f}")
    if "report" in s.output:
        with open(s.output["report"], "w", newline="\n") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {s.output['report']}")
    if "csv" in s.output:
        _write_csv(s.output["csv"], [report.csv_row(eps=s.eps)])
        print(f"csv: {s.output['csv']}")
    failed = sum(c.failed for c in checks)
    print(f"verification: {'PASS' if ok else f'FAIL ({failed} checks)'}")
    if report.model is None:  # no model fits data in this regime
        return ProblemCase(report.case).exit_code
    return 0 if ok else 1


def _write_csv(path, rows, header=CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_sweep(s: Scenario, args) -> int:
    if s.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' config block")
    parameter, values = s.sweep
    # A config error exits before any row; per-point errors stay in-row.
    (replace(s, eps=0.0) if parameter == "eps" else s).domain()

    def run_one(v):
        p = replace(s, **{parameter: v})
        try:
            report = full_report(p.domain(), p.data, p.ns, p.ntheta, p.options)
            return report.csv_row(eps=p.eps)
        except SerrinError as e:  # recorded in-row; the sweep continues
            return error_row(str(classify_case(p.data)), p.ns, p.ntheta, p.eps,
                             f"{type(e).__name__}: {e}")

    rows = [run_one(v) for v in values]
    path = s.output.get("csv", "sweep.csv")
    _write_csv(path, rows)
    for v, row in zip(values, rows):
        cell = dict(zip(CSV_COLUMNS, row))
        tail = (f"error={cell['error']}" if cell["error"] else
                f"sd_inner={cell['neumann_sd_inner']} sd_outer={cell['neumann_sd_outer']}")
        print(f"{parameter}={format_value(v)}: case={cell['case']} {tail}")
    print(f"csv: {path}")
    return 0


def cmd_mms(s: Scenario, args) -> int:
    if s.mms is None:
        raise ConfigError("mms command needs an 'mms' config block")
    sizes, kind = s.mms
    params = None
    if kind in ("model", "saddle"):
        params = s.params if s.params is not None else fit_model(s.data)
    exact = manufactured_field(kind, params)
    result = mms_convergence(s.domain(), exact, sizes, s.options)
    print(f"exact field: {exact.name}")
    for n, h, li, l2 in zip(result.sizes, result.hs, result.linf, result.l2):
        print(f"n={n:<5d} h={h:.6e} linf={li:.6e} l2={l2:.6e}")
    print(result.describe())
    if "csv" in s.output:
        rows = [[n, format_value(h), format_value(li), format_value(l2)]
                for n, h, li, l2 in zip(result.sizes, result.hs, result.linf, result.l2)]
        _write_csv(s.output["csv"], rows, header=["n", "h", "linf", "l2"])
        print(f"csv: {s.output['csv']}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serrin",
        description="Fit, solve and verify the overdetermined torsion problem "
                    "on doubly connected planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--ns", type=int, help="override grid rows")
    grid.add_argument("--ntheta", type=int, help="override grid columns")
    amp = argparse.ArgumentParser(add_help=False)
    amp.add_argument("--eps", type=float, help="override the perturbation amplitude")
    # each subcommand takes only the overrides it reads; mms reads its sizes from the config
    specs = [
        ("fit", cmd_fit, "fit the radial model to boundary data", []),
        ("solve", cmd_solve, "solve the Dirichlet problem and write the field", [grid, amp]),
        ("verify", cmd_verify, "run the identity checks and report", [grid, amp]),
        ("sweep", cmd_sweep, "run verification over a parameter sweep", [grid, amp]),
        ("mms", cmd_mms, "manufactured-solution convergence study", [amp]),
    ]
    for name, func, help_text, parents in specs:
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.add_argument("config", help="path to a JSON scenario config")
        if name == "verify":
            p.add_argument("--expect-asymmetric", action="store_true",
                           help="treat Neumann constancy failures as expected")
            p.add_argument("--timings", action="store_true",
                           help="print the report's stage timings and solver statistics")
        p.set_defaults(func=func, parser=p, ns=None, ntheta=None, eps=None)
    return parser


def main(argv=None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:  # a flag the subcommand does not take: show that subcommand's usage
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(_load_scenario(args), args)
    except SerrinError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # an output that cannot be written (config reads raise ConfigError)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a grid too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
