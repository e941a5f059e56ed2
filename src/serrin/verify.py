"""Identity checks comparing solved fields against the radial model.

Given a solved torsion field on a doubly connected domain and the model
fitted from its boundary data, this module evaluates the quantities whose
vanishing characterizes the annulus: Neumann-trace constancy, the Pohozaev
area balance, the pointwise gradient bound through the pseudo-radius, the
length comparisons on both boundaries, a divergence identity for increasing
profiles, a refined integral identity for decreasing profiles, and the
quadratic boundary expansion at a degenerate (zero-slope) boundary.
``full_report`` bundles everything into one serializable report.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentModelError, InvalidInputError, UnsupportedRegimeError
from .geometry import (
    CURVE_ANGLES,
    SIDES,
    CurvGrid,
    DomainSpec,
    boundary_length,
    build_grid,
    integrate_area,
    integrate_boundary,
    region_areas,
)
from .models import (
    BoundaryData,
    ModelParams,
    ProblemCase,
    boundary_data_of,
    classify_case,
    compatibility,
    degenerate_band,
    fit_model,
    model_gradient_sq,
    pseudo_radius,
    refined_k,
    refined_k_at,
    refined_phi_dot,
)
from .solver import ScalarField, SolveOptions, gradient_field, neumann_trace, solve_dirichlet

TOLERANCES = {
    "neumann_sd": 1e-2,
    "pohozaev": 5e-3,
    "grad_margin": 5e-3,
    "area_margin": 1e-8,
    "div_identity": 1e-2,
    "div_boundary_term": 1e-3,
    "refined_identity": 2e-2,
    "case1_margin": 2e-2,
    "expansion": 0.1,
}

# Degenerate boundaries are detected by an arc-averaged |Neumann| below this.
_DEGENERATE_NEUMANN = 1e-3

# Truncation half-width (relative to sqrt(M)) around the level where the
# model gradient vanishes; both identity checks use it.
DEFAULT_TRUNCATION = 1e-4

# Field values may leave the model's value range by this much (relative to
# max(1, |range ends|)) before being clipped into it for the pseudo-radius.
_CLIP_TOL = 1e-8

# The gated checks in report order: check name and CSV column, TOLERANCES
# key, comparison kind, and the report's value (None when inapplicable).
# "ge" checks compare against -tolerance; the expansion check gates
# coefficient + 1 while its CSV cell holds the coefficient; only the two
# Neumann checks are gated on every report and can be waived.
_CHECKS = [
    ("neumann_sd_inner", "neumann_sd", "abs_le", lambda r: r.neumann_inner.sd),
    ("neumann_sd_outer", "neumann_sd", "abs_le", lambda r: r.neumann_outer.sd),
    ("pohozaev_res", "pohozaev", "abs_le", lambda r: r.pohozaev_res),
    ("grad_margin", "grad_margin", "le", lambda r: r.grad_margin),
    ("area_margin_in", "area_margin", "le", lambda r: r.area_margin_in),
    ("area_margin_out", "area_margin", "ge", lambda r: r.area_margin_out),
    ("div_identity_res", "div_identity", "abs_le",
     lambda r: getattr(r.divergence, "residual", None)),
    ("refined_identity_res", "refined_identity", "abs_le",
     lambda r: getattr(r.refined, "identity_residual", None)),
    ("case1_margin", "case1_margin", "ge",
     lambda r: getattr(r.refined, "case1_margin", None)),
    ("expansion_coeff", "expansion", "abs_le",
     lambda r: getattr(r.expansion, "coefficient", None)),
]

# Comparison kind -> (printed operator, test of value against limit).
_COMPARISONS = {
    "abs_le": ("|value| <=", lambda v, limit: abs(v) <= limit),
    "le": ("value <=", lambda v, limit: v <= limit),
    "ge": ("value >=", lambda v, limit: v >= limit),
}

CSV_COLUMNS = ["case", "Ns", "Ntheta", "eps", *(c[0] for c in _CHECKS), "error"]


def format_value(v) -> str:
    """A number to 12 significant digits; ``None`` (inapplicable) to ``""``."""
    if v is None:
        return ""
    return f"{v:.12g}"


@dataclass(frozen=True)
class NeumannStats:
    mean: float
    sd: float
    max_dev: float


def neumann_constancy(values, weights) -> NeumannStats:
    """Weighted mean, standard deviation and maximum deviation of a trace.

    Values and weights must be finite, the weights nonnegative with a
    positive sum; otherwise :class:`InvalidInputError` is raised."""
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != vals.shape or vals.size == 0:
        raise InvalidInputError("weights must match the trace values")
    total = float(np.sum(w))
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(w)) and np.all(w >= 0)
            and total > 0):
        raise InvalidInputError("trace values and weights must be finite, "
                                "the weights nonnegative with a positive sum")
    mean = float(np.sum(vals * w) / total)
    var = float(np.sum(w * (vals - mean) ** 2) / total)
    return NeumannStats(mean=mean, sd=math.sqrt(max(var, 0.0)),
                        max_dev=float(np.max(np.abs(vals - mean))))


def _neumann_stats(field: ScalarField):
    """Arc-weighted statistics of the Neumann trace on each side, in SIDES
    order; read through ``field.derived``, once per field."""
    return tuple(neumann_constancy(neumann_trace(field, which), field.grid.arc_weights(which))
                 for which in SIDES)


def _boundary_mean(field: ScalarField, which: str) -> float:
    """Arc-weighted mean of the field along one boundary row."""
    grid = field.grid
    return neumann_constancy(field.values[grid.row(which)], grid.arc_weights(which)).mean


def measured_boundary_data(field: ScalarField) -> BoundaryData:
    """Boundary data read off a field: arc-averaged values and traces."""
    n_in, n_out = field.derived(_neumann_stats)
    return BoundaryData(a=_boundary_mean(field, "inner"), b=_boundary_mean(field, "outer"),
                        alpha=n_in.mean, beta=n_out.mean)


def pohozaev_residual(field: ScalarField, data: BoundaryData) -> float:
    """Residual of the area balance

        integral(4u) = (4b + beta^2)|E_o| - (4a + alpha^2)|E_i|,

    with |E_i|, |E_o| the areas enclosed by the two boundary curves; pass
    ``measured_boundary_data(field)`` to measure the boundary values from
    the field.
    """
    ei, eo, _ = region_areas(field.grid.spec)
    lhs = integrate_area(field.grid, 4.0 * field.values)
    rhs = (4 * data.b + data.beta**2) * eo - (4 * data.a + data.alpha**2) * ei
    return lhs - rhs


def _model_fields(field: ScalarField, params: ModelParams):
    """Pseudo-radius ``psi``, ``W = |grad u|^2``, the model's ``W0(psi)`` and
    the mask of nodes outside the degenerate band; the model checks read
    them through ``field.derived``, once per field."""
    lo, hi = params.value_range
    scale = max(1.0, abs(lo), abs(hi))
    worst = float(np.max(np.maximum(field.values - hi, lo - field.values)))
    if worst > _CLIP_TOL * scale:
        raise InconsistentModelError(
            f"field values leave the model value range by {worst:.3e} "
            f"(allowed {_CLIP_TOL * scale:.3e})"
        )
    psi = pseudo_radius(params, np.clip(field.values, lo, hi))
    return (psi, field.derived(gradient_field).w, model_gradient_sq(params, psi),
            ~degenerate_band(params, psi, DEFAULT_TRUNCATION))


def gradient_bound_margin(field: ScalarField, params: ModelParams):
    """Worst violation of the gradient bound ``W <= W0(psi)``.

    Returns ``(margin, (x, y))`` where margin = max(W - W0) over interior
    nodes and (x, y) is the node attaining it.  Nonpositive margins mean the
    bound holds on the grid.
    """
    grid = field.grid
    _, w, w0, _ = field.derived(_model_fields, params)
    inner = (w - w0)[1:-1]
    flat = int(np.argmax(inner))
    i, j = 1 + flat // grid.ntheta, flat % grid.ntheta
    return float(inner.max()), (float(grid.x[i, j]), float(grid.y[i, j]))


def area_bound_check(spec: DomainSpec, params: ModelParams):
    """Boundary-length margins against the model circles.

    Returns ``(inner_margin, outer_margin)`` with
    ``inner_margin = |boundary_inner| - 2 pi r_i`` (nonpositive for genuine
    solutions) and ``outer_margin = |boundary_outer| - 2 pi r_o``
    (nonnegative for genuine solutions); both vanish exactly on the model
    annulus.
    """
    li = boundary_length(spec, "inner")
    lo = boundary_length(spec, "outer")
    return li - 2 * math.pi * params.r_i, lo - 2 * math.pi * params.r_o


@dataclass
class DivergenceIdentityResult:
    residual: float
    interior: float
    inner_term: float
    outer_term: float
    cutoff: float
    excluded_nodes: int
    outer_limit_used: bool


def divergence_identity_residual(field: ScalarField, params: ModelParams
                                 ) -> DivergenceIdentityResult:
    """Divergence identity for increasing profiles.

    Checks

        integral( 2 psi^2 (W0 - W) / (M - psi^2)^3 )
            = integral_inner( |grad u| / (M - psi^2) )
            - integral_outer( |grad u| / (M - psi^2) ),

    whose boundary terms both equal 2 pi on the model annulus.  Nodes with
    ``psi`` in the degenerate band (:func:`~serrin.models.degenerate_band`
    with cutoff :data:`DEFAULT_TRUNCATION`) are excluded from the interior
    integral and counted.  When a boundary radius lies in that band its term
    is replaced by the analytic limit ``integral(1/psi)``.
    """
    if params.case is not ProblemCase.INCREASING:
        raise UnsupportedRegimeError(
            "divergence identity applies to increasing profiles", case=params.case
        )
    M, grid, cutoff = params.M, field.grid, DEFAULT_TRUNCATION
    psi, w, w0, keep = field.derived(_model_fields, params)
    integrand = np.zeros_like(psi)
    np.divide(2 * psi * psi * (w0 - w), (M - psi * psi)**3, out=integrand, where=keep)
    interior = integrate_area(grid, integrand)

    # On a degenerate (zero-slope) boundary the term |grad u|/(M - psi^2)
    # has the analytic limit 1/psi; the direct quotient amplifies trace
    # errors by 1/(M - r^2), so the limit is used throughout the band.
    def _boundary_term(which):
        row = grid.row(which)
        radius = params.r_i if which == "inner" else params.r_o
        if degenerate_band(params, radius, cutoff):
            return integrate_boundary(grid, 1.0 / psi[row], which), True
        return integrate_boundary(grid, np.sqrt(w[row]) / (M - psi[row] ** 2), which), False

    inner_term, _ = _boundary_term("inner")
    outer_term, outer_limit_used = _boundary_term("outer")
    return DivergenceIdentityResult(
        residual=float(interior - (inner_term - outer_term)),
        interior=float(interior),
        inner_term=float(inner_term),
        outer_term=float(outer_term),
        cutoff=cutoff,
        excluded_nodes=int(keep.size - np.count_nonzero(keep)),
        outer_limit_used=outer_limit_used,
    )


@dataclass
class RefinedPohozaevResult:
    identity_residual: float
    case1_margin: float
    k: float
    weighted_integral: float
    inner_term: float
    outer_term: float
    cutoff: float
    excluded_nodes: int


def refined_pohozaev_check(field: ScalarField, params: ModelParams
                           ) -> RefinedPohozaevResult:
    """Refined integral identity for decreasing profiles.

    With the weight density ``phi_dot`` built from the canonical constant
    ``k = K(r_i)`` (:func:`~serrin.models.refined_k`), checks

        integral(4u) = integral(phi_dot (W - W0))
                       - alpha phi(r_i) |G_i| - beta phi(r_o) |G_o|,

    where the boundary factors are evaluated in closed form, so the check is
    stable even when the inner boundary is degenerate.  Also reports the
    comparison margin

        integral(phi_dot (W - W0))
            - (M(4a + alpha^2 - 4L - M) + k)/2 * (|G_i|/r_i - |G_o|/r_o),

    which is nonnegative for genuine solutions.  Interior nodes in the
    degenerate band (:func:`~serrin.models.degenerate_band` with cutoff
    :data:`DEFAULT_TRUNCATION`) are excluded and counted.
    """
    k, cutoff = refined_k(params), DEFAULT_TRUNCATION
    M, ri, ro, grid = params.M, params.r_i, params.r_o, field.grid
    d = boundary_data_of(params)
    psi, w, w0, keep = field.derived(_model_fields, params)
    density = np.zeros_like(psi)
    density[keep] = refined_phi_dot(params, k, psi[keep]) * (w - w0)[keep]
    weighted = integrate_area(grid, density)

    li = boundary_length(grid.spec, "inner")
    lo = boundary_length(grid.spec, "outer")
    # alpha*phi(r_i) and beta*phi(r_o) in closed form; the slope factor of
    # phi's singular part cancels against the boundary slope, with opposite
    # orientation on the two boundaries (M - r^2 = -alpha*r_i = +beta*r_o).
    # With k = K(r_i) the inner term's (k - K(r_i)) / (2 r_i) vanishes.
    inner_term = li * (2 * d.a * d.alpha)
    outer_term = lo * (2 * d.b * d.beta - (k - refined_k_at(params, ro)) / (2 * ro))

    int4u = integrate_area(grid, 4.0 * field.values)
    residual = int4u - weighted + inner_term + outer_term

    prefactor = 0.5 * (M * (4 * d.a + d.alpha**2 - 4 * params.L - M) + k)
    margin = weighted - prefactor * (li / ri - lo / ro)
    return RefinedPohozaevResult(
        identity_residual=float(residual),
        case1_margin=float(margin),
        k=float(k),
        weighted_integral=float(weighted),
        inner_term=float(inner_term),
        outer_term=float(outer_term),
        cutoff=cutoff,
        excluded_nodes=int(keep.size - np.count_nonzero(keep)),
    )


def boundary_distance(grid: CurvGrid, which: str, rows):
    """Distance from grid nodes to one boundary curve, shaped ``(len(rows), ntheta)``.

    ``which`` is ``"inner"`` or ``"outer"``; ``rows`` selects grid rows, each an integer
    in ``[0, ns)``.  Each node ``p`` starts at the nearest curve point at every second
    :data:`~serrin.geometry.CURVE_ANGLES` and takes four Newton steps on its foot's
    polar angle ``t`` for ``f = |p - curve(t)|^2 / 2``, none where ``f'' <= 0``."""
    curve = grid.spec.curve(which)
    rows = np.asarray(rows, dtype=float)
    if not np.all(rows == np.floor(rows)):  # NaN fails too
        raise InvalidInputError("rows must be integers")
    if np.any((rows < 0) | (rows >= grid.ns)):
        raise InvalidInputError(f"rows must lie in [0, {grid.ns})")
    x, y = grid.x[rows.astype(int)], grid.y[rows.astype(int)]
    seeds = CURVE_ANGLES[::2]
    bx, by = curve.point(seeds)
    t = np.empty(x.shape)
    for j in range(grid.ntheta):  # one column at a time: (len(rows), 4096) temporaries
        t[:, j] = seeds[np.argmin((x[:, j, None] - bx) ** 2 + (y[:, j, None] - by) ** 2, axis=1)]
    r = np.hypot(x, y)  # the node is r (cos theta, sin theta)
    for _ in range(4):
        rho, dp, ddp = curve.radius(t), curve.radius_prime(t), curve.radius_second(t)
        c, s = r * np.cos(t - grid.theta), r * np.sin(t - grid.theta)
        f2 = dp * dp + rho * ddp - ddp * c + 2 * dp * s + rho * c
        t -= np.divide(rho * dp - dp * c + rho * s, f2, out=np.zeros_like(t), where=f2 > 0)
    fx, fy = curve.point(t)
    return np.sqrt((x - fx) ** 2 + (y - fy) ** 2)


@dataclass
class ExpansionResult:
    boundary: str
    coefficient: float
    neumann_mean: float
    layer_width: float
    n_nodes: int


def degenerate_expansion_check(field: ScalarField) -> Optional[ExpansionResult]:
    """Quadratic expansion coefficient at a degenerate boundary.

    A boundary qualifies when the arc-averaged Neumann trace is below 1e-3
    in magnitude.  Around the qualifying boundary (the one with the smaller
    mean if both qualify) the model predicts
    ``u = c - dist^2 + o(dist^2)``; the coefficient of ``-dist^2`` is fitted
    by least squares on nodes whose boundary distance lies in [h, 10h], with
    h the first interior layer width.  Returns ``None`` when no boundary
    qualifies.
    """
    cands = [(abs(stats.mean), which, stats.mean)
             for which, stats in zip(SIDES, field.derived(_neumann_stats))
             if abs(stats.mean) < _DEGENERATE_NEUMANN]
    if not cands:
        return None
    _, which, mean = min(cands)
    # the (up to 16) interior rows nearest the boundary, in grid order
    grid = field.grid
    row0 = grid.row(which)
    rows = np.sort(np.abs(row0 - np.arange(1, min(grid.ns - 1, 17))))
    c = _boundary_mean(field, which)
    dist = boundary_distance(grid, which, rows)
    h = float(np.median(dist[np.abs(rows - row0) == 1]))
    # never empty: h, the median of the adjacent row's distances, is one of
    # them (odd ntheta) or the mean of two, the upper one in [h, 2h] (even)
    sel = (dist >= 0.999 * h) & (dist <= 10.001 * h)
    du = field.values[rows][sel] - c
    d2 = dist[sel] ** 2
    coeff = float(np.sum(du * d2) / np.sum(d2 * d2))
    return ExpansionResult(boundary=which, coefficient=coeff, neumann_mean=mean,
                           layer_width=h, n_nodes=int(np.count_nonzero(sel)))


_REGIME_NOTES = {
    ProblemCase.INCREASING: "covered regime: increasing profile",
    ProblemCase.DECREASING_COVERED:
        "covered regime: decreasing profile within the comparison bound",
    ProblemCase.DECREASING_UNCOVERED:
        "unproven regime: decreasing data outside the covered comparison bound; "
        "checks limited to Neumann statistics and the area balance",
    ProblemCase.INADMISSIBLE:
        "inadmissible boundary data: no monotone profile matches; "
        "checks limited to Neumann statistics and the area balance",
}


@dataclass
class VerificationReport:
    case: str
    ns: int
    ntheta: int
    regime_note: str
    diagnostic_only: bool
    neumann_inner: NeumannStats
    neumann_outer: NeumannStats
    pohozaev_res: float
    model: Optional[ModelParams] = None
    fit_residual: Optional[float] = None
    grad_margin: Optional[float] = None
    grad_margin_at: Optional[tuple] = None
    area_margin_in: Optional[float] = None
    area_margin_out: Optional[float] = None
    divergence: Optional[DivergenceIdentityResult] = None
    refined: Optional[RefinedPohozaevResult] = None
    expansion: Optional[ExpansionResult] = None
    solver: Optional[dict] = None
    timings: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-ready tree; inapplicable checks are omitted, never zeroed."""
        out = {
            "case": self.case,
            "resolution": {"ns": self.ns, "ntheta": self.ntheta},
            "regime_note": self.regime_note,
            "diagnostic_only": self.diagnostic_only,
            "neumann": {
                "inner": asdict(self.neumann_inner),
                "outer": asdict(self.neumann_outer),
            },
            "pohozaev_residual": self.pohozaev_res,
            "tolerances": dict(TOLERANCES),
        }
        if self.model is not None:
            out["model"] = asdict(self.model)
            out["fit_residual"] = self.fit_residual
        if self.grad_margin is not None:
            out["gradient_bound"] = {
                "margin": self.grad_margin, "at": list(self.grad_margin_at),
            }
        if self.area_margin_in is not None:
            out["area_margins"] = {
                "inner": self.area_margin_in, "outer": self.area_margin_out,
            }
        for key, block in [("divergence_identity", self.divergence),
                           ("refined_identity", self.refined),
                           ("expansion", self.expansion),
                           ("solver", self.solver), ("timings", self.timings)]:
            if block is not None:
                out[key] = dict(block) if isinstance(block, dict) else asdict(block)
        return out

    def csv_row(self, eps: float = 0.0) -> list:
        cells = [format_value(value(self)) for *_, value in _CHECKS]
        return [self.case, str(self.ns), str(self.ntheta), format_value(eps), *cells, ""]


def error_row(case: str, ns: int, ntheta: int, eps: float, error: str) -> list:
    """CSV row of a run that raised: every check cell empty, ``error`` last."""
    return [case, str(ns), str(ntheta), format_value(eps), *[""] * len(_CHECKS), error]


@dataclass
class CheckResult:
    name: str
    value: float
    limit: float
    kind: str  # a key of _COMPARISONS: "abs_le", "le" or "ge"
    passed: bool
    gated: bool = True
    waived: bool = False

    @property
    def failed(self) -> bool:
        """Gated, and neither passed nor waived."""
        return self.gated and not (self.passed or self.waived)

    def describe(self) -> str:
        op = _COMPARISONS[self.kind][0]
        if self.passed or self.waived:
            status = "PASS" if self.passed else "PASS (expected asymmetric)"
        else:
            status = "FAIL" if self.failed else "DIAG"
        return f"{self.name:<22} {self.value: .6e}  {op} {self.limit:.1e}  {status}"


def evaluate_checks(report: VerificationReport, expect_asymmetric: bool = False):
    """Apply the gating tolerances to a report.

    Returns ``(checks, ok)``.  Identity checks are only gated when the
    Neumann traces are constant enough for the radial model to be meaningful;
    otherwise they are reported as diagnostic, without gating.
    ``expect_asymmetric`` turns Neumann failures into waived passes.
    """
    checks = []
    for name, key, kind, value_of in _CHECKS:
        value = value_of(report)
        if value is None:
            continue
        if name == "expansion_coeff":
            value += 1.0
        limit = -TOLERANCES[key] if kind == "ge" else TOLERANCES[key]
        passed = _COMPARISONS[kind][1](value, limit)
        neumann = key == "neumann_sd"
        checks.append(CheckResult(
            name, float(value), limit, kind, passed,
            gated=neumann or not report.diagnostic_only,
            waived=neumann and expect_asymmetric and not passed,
        ))
    return checks, not any(c.failed for c in checks)


def _timed(timings: dict, stage: str, compute, *args):
    """``compute(*args)``, with its wall seconds recorded as ``timings[stage]``."""
    start = time.perf_counter()
    result = compute(*args)
    timings[stage] = time.perf_counter() - start
    return result


def full_report(spec: DomainSpec, data: BoundaryData, ns: int, ntheta: int,
                options: Optional[SolveOptions] = None) -> VerificationReport:
    """Solve the torsion problem and run every applicable identity check.

    Model-based checks are run for covered regimes only; for unproven or
    inadmissible data the report is limited to Neumann statistics, the area
    balance and the expansion probe, and says so in ``regime_note``.  The
    report's ``timings`` holds the seconds spent in each stage that ran.
    """
    timings = {}
    case = classify_case(data)
    params = fit_residual = grad_margin = grad_at = area_in = area_out = None
    divergence = refined = None
    if case in (ProblemCase.INCREASING, ProblemCase.DECREASING_COVERED):
        params = _timed(timings, "fit", fit_model, data)
        fit_residual = abs(compatibility(data, params.M))
    grid = _timed(timings, "grid", build_grid, spec, ns, ntheta)
    field, stats = _timed(timings, "solve", solve_dirichlet, grid, -2.0, data.a, data.b, options)
    n_in, n_out = _timed(timings, "traces", field.derived, _neumann_stats)
    diagnostic = n_in.sd > TOLERANCES["neumann_sd"] or n_out.sd > TOLERANCES["neumann_sd"]
    note = _REGIME_NOTES[case]
    if diagnostic:
        note += ("; Neumann trace is not constant at this resolution, "
                 "model-based checks are diagnostic only")
    pohozaev_res = _timed(timings, "pohozaev", pohozaev_residual, field, data)
    if params is not None:
        grad_margin, grad_at = _timed(timings, "gradient_bound", gradient_bound_margin,
                                      field, params)
        area_in, area_out = _timed(timings, "area_margins", area_bound_check, spec, params)
        if case is ProblemCase.INCREASING:
            divergence = _timed(timings, "divergence_identity",
                                divergence_identity_residual, field, params)
        else:
            refined = _timed(timings, "refined_identity", refined_pohozaev_check, field, params)
    expansion = _timed(timings, "expansion", degenerate_expansion_check, field)
    return VerificationReport(
        case=str(case), ns=grid.ns, ntheta=grid.ntheta, regime_note=note,
        diagnostic_only=diagnostic, neumann_inner=n_in, neumann_outer=n_out,
        pohozaev_res=pohozaev_res, model=params, fit_residual=fit_residual,
        grad_margin=grad_margin, grad_margin_at=grad_at, area_margin_in=area_in,
        area_margin_out=area_out, divergence=divergence, refined=refined,
        expansion=expansion, solver=asdict(stats), timings=timings,
    )
