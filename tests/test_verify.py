"""Tests for the identity checks, report assembly and gating."""

import json
from dataclasses import FrozenInstanceError, asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serrin import (
    BoundaryData,
    DomainSpec,
    FourierCurve,
    InconsistentModelError,
    InvalidInputError,
    ModelParams,
    ScalarField,
    UnsupportedRegimeError,
    boundary_data_of,
    build_grid,
    fit_model,
    integrate_area,
    model_u,
    refined_k,
    solve_dirichlet,
)
from serrin import solver as solver_module
from serrin import verify as verify_module
from serrin.verify import (
    CSV_COLUMNS,
    TOLERANCES,
    DivergenceIdentityResult,
    ExpansionResult,
    NeumannStats,
    RefinedPohozaevResult,
    VerificationReport,
    area_bound_check,
    boundary_distance,
    degenerate_expansion_check,
    divergence_identity_residual,
    evaluate_checks,
    full_report,
    gradient_bound_margin,
    measured_boundary_data,
    neumann_constancy,
    pohozaev_residual,
    refined_pohozaev_check,
)

INT4U_A = 1.6783766859991517
WAVY_LEN = 6.4225893330511004


def solved(params, ns, ntheta):
    spec = DomainSpec.circles(params.r_i, params.r_o)
    grid = build_grid(spec, ns, ntheta)
    data = boundary_data_of(params)
    field, _ = solve_dirichlet(grid, -2.0, data.a, data.b)
    return grid, field, data


class TestNeumannStats:
    def test_hand_example(self):
        st = neumann_constancy(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert st.mean == pytest.approx(0.5)
        assert st.sd == pytest.approx(0.5)
        assert st.max_dev == pytest.approx(0.5)

    def test_weights_shape(self):
        with pytest.raises(InvalidInputError):
            neumann_constancy(np.array([1.0, 2.0]), np.array([1.0]))

    def test_constant_trace(self):
        st = neumann_constancy(np.full(8, 3.0), np.ones(8))
        assert st.sd == 0.0
        assert st.mean == pytest.approx(3.0)

    @pytest.mark.parametrize("values, weights", [
        ([1.0, 2.0], [0.0, 0.0]),        # zero weight sum
        ([1.0, 2.0], [1.0, -1.0]),       # negative weight
        ([1.0, np.nan], [1.0, 1.0]),     # non-finite value
        ([1.0, np.inf], [1.0, 1.0]),
        ([1.0, 2.0], [1.0, np.nan]),     # non-finite weight
        ([1.0, 2.0], [np.inf, 1.0]),
    ])
    def test_bad_input_rejected(self, values, weights):
        with pytest.raises(InvalidInputError):
            neumann_constancy(np.array(values), np.array(weights))


class TestMeasuredData:
    def test_recovers_boundary_data(self, model_a):
        grid, field, data = solved(model_a, 65, 64)
        md = measured_boundary_data(field)
        assert md.a == pytest.approx(data.a, abs=1e-12)
        assert md.b == pytest.approx(data.b, abs=1e-12)
        assert md.alpha == pytest.approx(data.alpha, abs=1e-3)
        assert md.beta == pytest.approx(data.beta, abs=1e-3)

    def test_fit_from_field(self, model_a):
        grid, field, _ = solved(model_a, 65, 64)
        fitted = fit_model(measured_boundary_data(field))
        assert fitted.M == pytest.approx(model_a.M, rel=1e-3)
        assert fitted.r_i == pytest.approx(model_a.r_i, rel=1e-3)


class TestPohozaev:
    @pytest.mark.parametrize("key", ["a", "b", "c"])
    def test_small_on_models(self, key, model_a, model_b, model_c):
        p = {"a": model_a, "b": model_b, "c": model_c}[key]
        grid, field, data = solved(p, 129, 128)
        assert abs(pohozaev_residual(field, data)) <= 5e-3

    def test_weighted_integral_value(self, model_a):
        grid, field, _ = solved(model_a, 129, 128)
        val = integrate_area(grid, 4.0 * field.values)
        assert val == pytest.approx(INT4U_A, abs=5e-3)

    def test_measured_data_variant(self, model_a):
        grid, field, _ = solved(model_a, 65, 64)
        assert abs(pohozaev_residual(field, measured_boundary_data(field))) <= 5e-3


class TestGradientBound:
    def test_margin_small_on_model(self, model_a):
        grid, field, _ = solved(model_a, 65, 64)
        margin, at = gradient_bound_margin(field, model_a)
        assert margin <= 5e-3
        r = np.hypot(*at)
        assert model_a.r_i - 1e-9 <= r <= model_a.r_o + 1e-9

    def test_margin_shrinks_with_resolution(self, model_a):
        vals = []
        for n in (33, 65):
            grid, field, _ = solved(model_a, n, n)
            vals.append(abs(gradient_bound_margin(field, model_a)[0]))
        assert vals[1] < vals[0]

    def test_out_of_range_field_rejected(self, model_a):
        grid, field, _ = solved(model_a, 33, 32)
        shifted = ScalarField(grid=grid, values=field.values + 1.0)
        with pytest.raises(InconsistentModelError):
            gradient_bound_margin(shifted, model_a)


class TestAreaBound:
    def test_zero_on_model_circles(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        m_in, m_out = area_bound_check(spec, model_a)
        assert abs(m_in) < 1e-12
        assert abs(m_out) < 1e-12

    def test_wavy_inner_margin(self, model_a):
        spec = DomainSpec(
            inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.1)),
            outer=FourierCurve(c0=2.0),
        )
        m_in, m_out = area_bound_check(spec, model_a)
        assert m_in == pytest.approx(WAVY_LEN - 2 * np.pi, rel=1e-10)
        assert m_out == pytest.approx(4 * np.pi - 3 * np.pi, rel=1e-12)


class TestDivergenceIdentity:
    def test_small_on_increasing_model(self, model_a):
        grid, field, _ = solved(model_a, 97, 96)
        res = divergence_identity_residual(field, model_a)
        assert abs(res.residual) <= 1e-2
        assert res.inner_term == pytest.approx(2 * np.pi, abs=1e-3)
        assert res.outer_term == pytest.approx(2 * np.pi, abs=1e-3)
        assert not res.outer_limit_used

    def test_rejects_decreasing(self, model_c):
        grid, field, _ = solved(model_c, 33, 32)
        with pytest.raises(UnsupportedRegimeError):
            divergence_identity_residual(field, model_c)

    def test_degenerate_outer_boundary_stable(self):
        # outer slope ~ 4e-6: the direct quotient is hopeless there, the
        # boundary term must switch to its analytic limit
        p = ModelParams(L=0.0, M=4.0, r_i=1.0, r_o=2.0 * (1 - 1e-6))
        grid, field, _ = solved(p, 65, 64)
        res = divergence_identity_residual(field, p)
        assert res.outer_limit_used
        assert res.excluded_nodes == 64
        assert abs(res.residual) <= 0.05


class TestRefinedIdentity:
    @pytest.mark.parametrize("key", ["b", "c"])
    def test_small_on_decreasing_models(self, key, model_b, model_c):
        p = {"b": model_b, "c": model_c}[key]
        grid, field, _ = solved(p, 129, 128)
        res = refined_pohozaev_check(field, p)
        assert abs(res.identity_residual) <= 2e-2
        assert res.case1_margin >= -2e-2
        assert res.k == pytest.approx(refined_k(p), rel=1e-13)

    def test_degenerate_inner_row_excluded(self, model_d):
        grid, field, _ = solved(model_d, 129, 128)
        res = refined_pohozaev_check(field, model_d)
        assert abs(res.identity_residual) <= 2e-2
        assert res.excluded_nodes == 128

    def test_rejects_increasing(self, model_a):
        grid, field, _ = solved(model_a, 33, 32)
        with pytest.raises(UnsupportedRegimeError):
            refined_pohozaev_check(field, model_a)


class TestBoundaryDistance:
    def test_circle_distance_is_radial(self):
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 17, 32)
        d = boundary_distance(grid, "inner", range(17))
        assert d.shape == (17, 32)
        assert d == pytest.approx(np.hypot(grid.x, grid.y) - 1.0, abs=1e-6)

    def test_row_selection(self):
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 17, 32)
        d = boundary_distance(grid, "outer", rows=[16])
        assert d.shape == (1, 32)
        assert np.max(np.abs(d)) < 1e-6
        with pytest.raises(InvalidInputError):
            boundary_distance(grid, "both", [0])

    def test_circle_distance_is_exact_off_the_samples(self):
        # at odd ntheta the node angles are not sample angles; the nearest of
        # 8,192 samples once overestimated these distances by up to 3.8e-4
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 129, 129)
        radius = np.hypot(grid.x, grid.y)
        for side, exact in [("inner", radius - 1.0), ("outer", 2.0 - radius)]:
            assert np.max(np.abs(boundary_distance(grid, side, range(129)) - exact)) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(side=st.sampled_from(["inner", "outer"]), harmonic=st.integers(1, 16),
           kind=st.sampled_from(["cos", "sin"]), amp=st.floats(0.0, 0.49),
           ns=st.integers(9, 17), ntheta=st.integers(16, 48))
    def test_projection_finds_the_nearest_point(self, side, harmonic, kind, amp, ns, ntheta):
        # against the nearest of 2^14 curve points, refined by four Newton
        # steps written in Cartesian form (none where f'' <= 0, as at a node
        # on a centre of curvature): the distance is never farther than that
        # point and agrees with its refinement, on every row
        coeffs = {f"{kind}_coeffs": (0.0,) * (harmonic - 1) + (amp,)}
        curves = {"inner": FourierCurve(c0=1.0), "outer": FourierCurve(c0=1.5)}
        curves[side] = FourierCurve(c0=curves[side].c0, **coeffs)
        grid = build_grid(DomainSpec(**curves), ns, ntheta)
        curve = curves[side]
        dense = np.arange(2**14) * (2 * np.pi / 2**14)
        bx, by = curve.point(dense)
        t, nearest = np.empty((ns, ntheta)), np.empty((ns, ntheta))
        for i in range(ns):
            d2 = (grid.x[i, :, None] - bx) ** 2 + (grid.y[i, :, None] - by) ** 2
            t[i], nearest[i] = dense[np.argmin(d2, axis=1)], np.sqrt(np.min(d2, axis=1))
        for _ in range(4):
            rho, dp, ddp = curve.radius(t), curve.radius_prime(t), curve.radius_second(t)
            cos_t, sin_t = np.cos(t), np.sin(t)
            ex, ey = grid.x - rho * cos_t, grid.y - rho * sin_t
            c1x, c1y = dp * cos_t - rho * sin_t, dp * sin_t + rho * cos_t
            c2x = (ddp - rho) * cos_t - 2 * dp * sin_t
            c2y = (ddp - rho) * sin_t + 2 * dp * cos_t
            f2 = c1x * c1x + c1y * c1y - ex * c2x - ey * c2y
            t = t + np.divide(ex * c1x + ey * c1y, f2, out=np.zeros_like(t), where=f2 > 0)
        fx, fy = curve.point(t)
        d = boundary_distance(grid, side, range(ns))
        assert np.max(d - nearest) <= 1e-14
        assert np.max(np.abs(d - np.hypot(grid.x - fx, grid.y - fy))) <= 1e-13

    @pytest.mark.parametrize("rows", [[-1], [17], [99], [0, 17]],
                             ids=["negative", "ns", "far", "one_of_two"])
    def test_rows_out_of_range_rejected(self, rows):
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 17, 32)
        with pytest.raises(InvalidInputError):
            boundary_distance(grid, "inner", rows=rows)

    @pytest.mark.parametrize("rows", [[1.7], [0, 2.5], [np.nan]],
                             ids=["fraction", "one_of_two", "nan"])
    def test_non_integer_rows_rejected(self, rows):
        # [1.7] was once read as row 1
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 17, 32)
        with pytest.raises(InvalidInputError, match="rows must be integers"):
            boundary_distance(grid, "inner", rows=rows)


class TestExpansion:
    def test_synthetic_quadratic(self):
        grid = build_grid(DomainSpec.circles(1.0, 2.0), 65, 64)
        dist = boundary_distance(grid, "inner", range(65))
        field = ScalarField(grid=grid, values=5.0 - dist**2)
        res = degenerate_expansion_check(field)
        assert res is not None
        assert res.boundary == "inner"
        assert res.coefficient == pytest.approx(-1.0, abs=1e-12)
        assert res.n_nodes > 0

    @settings(max_examples=40, deadline=None)
    @given(ns=st.integers(17, 49), ntheta=st.integers(16, 65),
           side=st.sampled_from(["inner", "outer"]), harmonic=st.integers(2, 4),
           kind=st.sampled_from(["cos", "sin"]), amp=st.floats(0.0, 0.05))
    def test_fit_nodes_never_empty(self, ns, ntheta, side, harmonic, kind, amp):
        # the layer width h is the median of the adjacent row's distances, so
        # [h, 10h] holds nodes for odd and even ntheta, on either side
        coeffs = {f"{kind}_coeffs": (0.0,) * (harmonic - 1) + (amp,)}
        spec = DomainSpec(inner=FourierCurve(c0=1.0, **coeffs), outer=FourierCurve(c0=2.0))
        grid = build_grid(spec, ns, ntheta)
        dist = boundary_distance(grid, side, range(ns))
        res = degenerate_expansion_check(ScalarField(grid=grid, values=5.0 - dist**2))
        assert res is not None
        assert res.boundary == side
        assert res.n_nodes >= 1

    def test_no_degenerate_boundary(self, model_a):
        grid, field, _ = solved(model_a, 33, 32)
        assert degenerate_expansion_check(field) is None

    def test_solved_degenerate_model(self, model_d):
        grid, field, _ = solved(model_d, 129, 128)
        res = degenerate_expansion_check(field)
        assert res is not None
        assert res.boundary == "inner"
        assert res.coefficient == pytest.approx(-1.0, abs=0.15)
        assert abs(res.neumann_mean) < 1e-3

    def test_solved_degenerate_model_fits_the_exact_distance(self, model_d, monkeypatch):
        # 8,192 curve samples once moved this coefficient by 1.3e-5 at 129^2
        _, field, _ = solved(model_d, 129, 129)
        coefficient = degenerate_expansion_check(field).coefficient
        monkeypatch.setattr(verify_module, "boundary_distance",
                            lambda grid, which, rows: np.hypot(grid.x, grid.y)[rows] - 1.0)
        exact = degenerate_expansion_check(field).coefficient
        assert coefficient == pytest.approx(exact, abs=1e-8)


class TestFullReport:
    def test_increasing_model_all_pass(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        rep = full_report(spec, boundary_data_of(model_a), 65, 64)
        assert rep.case == "Increasing"
        assert not rep.diagnostic_only
        assert rep.divergence is not None
        assert rep.refined is None
        assert rep.expansion is None
        checks, ok = evaluate_checks(rep)
        assert ok
        names = {c.name for c in checks}
        assert "div_identity_res" in names
        assert "refined_identity_res" not in names

    @pytest.mark.parametrize("spec, data, blocks, stages", [
        (DomainSpec.circles(1.0, 1.5), boundary_data_of(ModelParams(0.0, 4.0, 1.0, 1.5)),
         ["model", "fit_residual", "gradient_bound", "area_margins", "divergence_identity"],
         ["fit", "grid", "solve", "traces", "pohozaev", "gradient_bound", "area_margins",
          "divergence_identity", "expansion"]),
        # model D: the degenerate inner boundary adds the expansion block
        (DomainSpec.circles(1.0, 2.0), boundary_data_of(ModelParams(0.0, 1.0, 1.0, 2.0)),
         ["model", "fit_residual", "gradient_bound", "area_margins", "refined_identity",
          "expansion"],
         ["fit", "grid", "solve", "traces", "pohozaev", "gradient_bound", "area_margins",
          "refined_identity", "expansion"]),
        (DomainSpec.circles(1.0, 2.0), BoundaryData(a=1.0, b=0.0, alpha=0.5, beta=-0.5),
         [], ["grid", "solve", "traces", "pohozaev", "expansion"]),
        (DomainSpec.circles(1.0, 2.0), BoundaryData(a=0.0, b=1.0, alpha=0.5, beta=0.5),
         [], ["grid", "solve", "traces", "pohozaev", "expansion"]),
    ], ids=["increasing", "covered_decreasing", "unproven", "inadmissible"])
    def test_blocks_and_stages_in_order(self, spec, data, blocks, stages):
        tree = full_report(spec, data, 33, 32).to_dict()
        assert list(tree) == [
            "case", "resolution", "regime_note", "diagnostic_only", "neumann",
            "pohozaev_residual", "tolerances", *blocks, "solver", "timings"]
        assert list(tree["timings"]) == stages

    def test_decreasing_model_report(self, model_c):
        spec = DomainSpec.circles(model_c.r_i, model_c.r_o)
        rep = full_report(spec, boundary_data_of(model_c), 65, 64)
        assert rep.refined is not None
        assert rep.divergence is None
        checks, ok = evaluate_checks(rep)
        assert ok

    def test_json_round_trip(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        rep = full_report(spec, boundary_data_of(model_a), 49, 48)
        tree = rep.to_dict()
        text = json.dumps(tree, sort_keys=True)
        back = json.loads(text)
        assert back["case"] == "Increasing"
        assert {"iterations", "residual", "seconds", "assemble_s", "setup_s",
                "solve_s"} <= set(back["solver"])
        assert back["solver"]["residuals"][-1] == back["solver"]["residual"]
        assert "divergence_identity" in back
        assert "refined_identity" not in back
        assert back["resolution"] == {"ns": 49, "ntheta": 48}
        assert set(back["timings"]) == {
            "fit", "grid", "solve", "traces", "pohozaev", "gradient_bound",
            "area_margins", "divergence_identity", "expansion"}
        assert all(t >= 0 for t in back["timings"].values())

    def test_csv_row_shape(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        rep = full_report(spec, boundary_data_of(model_a), 49, 48)
        row = rep.csv_row(eps=0.25)
        assert len(row) == len(CSV_COLUMNS) == 15
        assert row[0] == "Increasing"
        assert row[3] == "0.25"
        assert row[-1] == ""

    def test_unproven_regime_note(self):
        data = BoundaryData(a=1.0, b=0.0, alpha=0.5, beta=-0.5)
        spec = DomainSpec.circles(1.0, 2.0)
        rep = full_report(spec, data, 33, 32)
        assert "unproven" in rep.regime_note
        assert rep.model is None
        assert rep.grad_margin is None

    def test_perturbed_domain_goes_diagnostic(self, model_a, data_a):
        spec = DomainSpec(
            inner=FourierCurve(c0=1.0),
            outer=FourierCurve(c0=1.5, cos_coeffs=(0.0, 0.1)),
        )
        rep = full_report(spec, data_a, 65, 64)
        assert rep.diagnostic_only
        checks, ok = evaluate_checks(rep)
        assert not ok
        checks, ok = evaluate_checks(rep, expect_asymmetric=True)
        assert ok
        sd_checks = [c for c in checks if c.name.startswith("neumann_sd")]
        assert any(c.waived for c in sd_checks)
        assert all(("PASS" in c.describe() or "DIAG" in c.describe())
                   for c in checks)

    def test_tolerance_table_keys(self):
        assert set(TOLERANCES) >= {
            "neumann_sd", "pohozaev", "grad_margin", "area_margin",
            "div_identity", "refined_identity", "case1_margin", "expansion",
        }


def _hand_report(case, diagnostic, sd_in, sd_out, pohozaev, with_model):
    blocks = {}
    if with_model:
        blocks = dict(
            model=ModelParams(L=0.0, M=4.0, r_i=1.0, r_o=1.5), fit_residual=0.0,
            grad_margin=0.01, grad_margin_at=(1.0, 0.0),
            area_margin_in=-0.25, area_margin_out=0.5,
            divergence=DivergenceIdentityResult(0.005, 6.0, 6.25, 6.25, 1e-4, 3, False),
            refined=RefinedPohozaevResult(-0.03, -0.025, 2.5, 1.0, 0.5, 0.25, 1e-4, 0),
            expansion=ExpansionResult("inner", -1.05, 2e-4, 0.0625, 40),
        )
    return VerificationReport(
        case=case, ns=33, ntheta=32, regime_note="note", diagnostic_only=diagnostic,
        neumann_inner=NeumannStats(1.5, sd_in, 0.01),
        neumann_outer=NeumannStats(-0.5, sd_out, 0.02),
        pohozaev_res=pohozaev, **blocks,
    )


# Each row: (name, value, limit, kind, passed, gated, waived) and describe().
_MODEL_ROWS = [
    ("grad_margin", 0.01, 0.005, "le"),
    ("area_margin_in", -0.25, 1e-08, "le"),
    ("area_margin_out", 0.5, -1e-08, "ge"),
    ("div_identity_res", 0.005, 0.01, "abs_le"),
    ("refined_identity_res", -0.03, 0.02, "abs_le"),
    ("case1_margin", -0.025, -0.02, "ge"),
    ("expansion_coeff", -0.050000000000000044, 0.1, "abs_le"),
]
_MODEL_LINES = [
    ("grad_margin             1.000000e-02  value <= 5.0e-03", False),
    ("area_margin_in         -2.500000e-01  value <= 1.0e-08", True),
    ("area_margin_out         5.000000e-01  value >= -1.0e-08", True),
    ("div_identity_res        5.000000e-03  |value| <= 1.0e-02", True),
    ("refined_identity_res   -3.000000e-02  |value| <= 2.0e-02", False),
    ("case1_margin           -2.500000e-02  value >= -2.0e-02", False),
    ("expansion_coeff        -5.000000e-02  |value| <= 1.0e-01", True),
]
_MODEL_CELLS = ["0.01", "-0.25", "0.5", "0.005", "-0.03", "-0.025", "-1.05", ""]


def _model_expectation(gated):
    checks = [row + (passed, gated, False)
              for row, (_, passed) in zip(_MODEL_ROWS, _MODEL_LINES)]
    status = "FAIL" if gated else "DIAG"
    lines = [f"{text}  {'PASS' if passed else status}" for text, passed in _MODEL_LINES]
    return checks, lines


class TestCheckTable:
    """Golden check lists, verdicts, describe() lines and CSV rows of hand-built reports."""

    def test_every_block_non_diagnostic(self):
        rep = _hand_report("Increasing", False, 0.004, 0.0025, -0.001, True)
        model_checks, model_lines = _model_expectation(gated=True)
        for asym in (False, True):
            checks, ok = evaluate_checks(rep, expect_asymmetric=asym)
            assert not ok
            assert [astuple(c) for c in checks] == [
                ("neumann_sd_inner", 0.004, 0.01, "abs_le", True, True, False),
                ("neumann_sd_outer", 0.0025, 0.01, "abs_le", True, True, False),
                ("pohozaev_res", -0.001, 0.005, "abs_le", True, True, False),
            ] + model_checks
            assert [c.describe() for c in checks] == [
                "neumann_sd_inner        4.000000e-03  |value| <= 1.0e-02  PASS",
                "neumann_sd_outer        2.500000e-03  |value| <= 1.0e-02  PASS",
                "pohozaev_res           -1.000000e-03  |value| <= 5.0e-03  PASS",
            ] + model_lines
        assert rep.csv_row(eps=0.25) == [
            "Increasing", "33", "32", "0.25", "0.004", "0.0025", "-0.001",
        ] + _MODEL_CELLS

    @pytest.mark.parametrize("asym", [False, True], ids=["strict", "expect_asymmetric"])
    def test_diagnostic(self, asym):
        rep = _hand_report("Increasing", True, 0.003, 0.04, 0.0075, True)
        model_checks, model_lines = _model_expectation(gated=False)
        checks, ok = evaluate_checks(rep, expect_asymmetric=asym)
        assert ok is asym
        assert [astuple(c) for c in checks] == [
            ("neumann_sd_inner", 0.003, 0.01, "abs_le", True, True, False),
            ("neumann_sd_outer", 0.04, 0.01, "abs_le", False, True, asym),
            ("pohozaev_res", 0.0075, 0.005, "abs_le", False, False, False),
        ] + model_checks
        outer = "PASS (expected asymmetric)" if asym else "FAIL"
        assert [c.describe() for c in checks] == [
            "neumann_sd_inner        3.000000e-03  |value| <= 1.0e-02  PASS",
            f"neumann_sd_outer        4.000000e-02  |value| <= 1.0e-02  {outer}",
            "pohozaev_res            7.500000e-03  |value| <= 5.0e-03  DIAG",
        ] + model_lines
        assert rep.csv_row(eps=0.25) == [
            "Increasing", "33", "32", "0.25", "0.003", "0.04", "0.0075",
        ] + _MODEL_CELLS

    def test_unfitted_has_no_model_checks(self):
        rep = _hand_report("DecreasingUncovered", False, 0.0125, 0.001, 0.002, False)
        checks, ok = evaluate_checks(rep)
        assert not ok
        assert [astuple(c) for c in checks] == [
            ("neumann_sd_inner", 0.0125, 0.01, "abs_le", False, True, False),
            ("neumann_sd_outer", 0.001, 0.01, "abs_le", True, True, False),
            ("pohozaev_res", 0.002, 0.005, "abs_le", True, True, False),
        ]
        assert [c.describe() for c in checks] == [
            "neumann_sd_inner        1.250000e-02  |value| <= 1.0e-02  FAIL",
            "neumann_sd_outer        1.000000e-03  |value| <= 1.0e-02  PASS",
            "pohozaev_res            2.000000e-03  |value| <= 5.0e-03  PASS",
        ]
        assert rep.csv_row(eps=0.25) == [
            "DecreasingUncovered", "33", "32", "0.25", "0.0125", "0.001", "0.002",
        ] + [""] * 8


# Model A data on inner 1 + 0.05 cos 3theta, outer 1.5.
PERTURBED_A = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.05)),
                         outer=FourierCurve(c0=1.5))


class TestOneAnalysisPerReport:
    def _solved(self, data, ns=33, ntheta=32):
        field, _ = solve_dirichlet(build_grid(PERTURBED_A, ns, ntheta), -2.0, data.a, data.b)
        return field

    def test_one_inversion_and_one_gradient(self, monkeypatch, data_a):
        calls = {"pseudo_radius": 0, "gradient_field": 0, "neumann_trace": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("pseudo_radius", "neumann_trace"):
            monkeypatch.setattr(verify_module, name, counting(name, getattr(verify_module, name)))
        gradient = counting("gradient_field", solver_module.gradient_field)
        for module in (solver_module, verify_module):
            monkeypatch.setattr(module, "gradient_field", gradient)
        rep = full_report(PERTURBED_A, data_a, 33, 32)
        assert rep.grad_margin is not None and rep.divergence is not None
        assert calls == {"pseudo_radius": 1, "gradient_field": 1, "neumann_trace": 2}

    def test_model_fields_keyed_by_params(self, model_a, data_a):
        # Both models cover the field's values; each call on the shared field
        # must match a fresh field, whatever was computed on it before.
        other = ModelParams(L=0.1, M=4.0, r_i=0.95, r_o=1.55)
        shared = self._solved(data_a)
        results = []
        for params in (model_a, other, model_a):
            got = gradient_bound_margin(shared, params)
            assert got == gradient_bound_margin(self._solved(data_a), params)
            results.append(got)
        assert results[0] == results[2] != results[1]

    def test_report_matches_standalone_checks(self, data_a):
        rep = full_report(PERTURBED_A, data_a, 33, 32)
        margin, at = gradient_bound_margin(self._solved(data_a), rep.model)
        assert (rep.grad_margin, rep.grad_margin_at) == (margin, at)
        div = divergence_identity_residual(self._solved(data_a), rep.model)
        assert asdict(rep.divergence) == asdict(div)

    def test_values_are_read_only(self, data_a):
        field = self._solved(data_a)
        with pytest.raises(ValueError):
            field.values[1, 1] = 0.0
        with pytest.raises(FrozenInstanceError):
            field.values = np.zeros_like(field.values)
        # a caller's array, or a read-only view of one, is copied, not frozen
        given = np.array(field.values)
        view = given.view()
        view.flags.writeable = False
        copies = [ScalarField(grid=field.grid, values=v) for v in (given, view)]
        given[1, 1] += 1.0
        assert given.flags.writeable
        assert all(c.values[1, 1] == field.values[1, 1] != given[1, 1] for c in copies)
