"""Tests for the finite-difference solver, gradients and manufactured fields."""

import numpy as np
import pytest

import serrin.solver as solver_module

from serrin import (
    DomainSpec,
    FourierCurve,
    InvalidInputError,
    ScalarField,
    SolveOptions,
    SolverFailureError,
    boundary_data_of,
    build_grid,
    gradient_field,
    manufactured_field,
    mms_convergence,
    model_gradient_sq,
    model_u,
    neumann_trace,
    read_field,
    solve_dirichlet,
    write_field,
)


def wavy_domain():
    return DomainSpec(
        inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.1)),
        outer=FourierCurve(c0=2.0),
    )


class TestOptions:
    def test_tol_bounds(self):
        with pytest.raises(InvalidInputError):
            SolveOptions(tol=0.0)
        with pytest.raises(InvalidInputError):
            SolveOptions(tol=1e-3)


class TestSolve:
    def test_constant_boundary_harmonic(self):
        g = build_grid(wavy_domain(), 17, 32)
        fld, stats = solve_dirichlet(g, 0.0, 3.0, 3.0)
        assert np.max(np.abs(fld.values - 3.0)) < 1e-10
        assert stats.residual <= 1e-11
        assert stats.unknowns == (17 - 2) * 32

    def test_rhs_validation(self):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        with pytest.raises(InvalidInputError):
            solve_dirichlet(g, np.zeros((3, 3)), 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            solve_dirichlet(g, np.nan, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            solve_dirichlet(g, -2.0, np.zeros(5), 0.0)

    def test_second_order_on_model(self, model_a, data_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
            exact = model_u(model_a, g.r)
            errs.append(np.max(np.abs(fld.values - exact)))
        assert errs[0] < 1e-5
        assert errs[1] < errs[0] / 3.0

    def test_residual_contract_carries_history(self, data_a):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 33, 32)
        _, stats = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        assert stats.residuals[-1] == stats.residual
        assert len(stats.residuals) == stats.iterations + 1
        with pytest.raises(SolverFailureError) as exc:
            solve_dirichlet(g, -2.0, data_a.a, data_a.b, SolveOptions(tol=1e-30))
        history = exc.value.residuals
        assert len(history) >= 2
        # the last entry is the true residual the failure message reports
        assert 0 < history[-1] <= 1e-11
        assert f"relative residual {history[-1]:.3e}" in str(exc.value)

    def test_singular_factor_raises_solver_failure(self, monkeypatch):
        # A zero operator: GMRES breaks down at once and x = 0 is left, whose
        # true relative residual is exactly 1.
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        monkeypatch.setattr(solver_module, "_apply",
                            lambda stencil, u: np.zeros((u.shape[0] - 2, u.shape[1])))
        with pytest.raises(SolverFailureError) as exc:
            solve_dirichlet(g, -2.0, 0.0, 1.0)
        assert len(exc.value.residuals) >= 2
        assert exc.value.residuals[-1] == 1.0

    def test_singular_preconditioner_raises_solver_failure(self, monkeypatch):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        zero = np.zeros((9 - 2, 16))
        monkeypatch.setattr(solver_module, "_stencil",
                            lambda grid: {(di, dj): zero for di in (-1, 0, 1)
                                          for dj in (-1, 0, 1)})
        with pytest.raises(SolverFailureError, match="singular"):
            solve_dirichlet(g, -2.0, 0.0, 1.0)

    def test_stage_timings(self, data_a):
        g = build_grid(wavy_domain(), 17, 32)
        _, stats = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        stages = (stats.assemble_s, stats.setup_s, stats.solve_s)
        assert all(t >= 0 for t in stages)
        assert stats.seconds == pytest.approx(sum(stages))

    def test_circles_take_one_iteration(self, data_a):
        # On circles the theta-averaged preconditioner is the operator itself.
        for n in (33, 65, 129):
            g = build_grid(DomainSpec.circles(1.0, 1.5), n, n)
            _, stats = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
            assert stats.iterations == 1
            assert stats.residual <= 1e-11

    def test_iterations_independent_of_grid(self, data_a):
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.05)),
                          outer=FourierCurve(c0=1.5))
        counts = []
        for n in (65, 129):
            _, stats = solve_dirichlet(build_grid(spec, n, n), -2.0, data_a.a, data_a.b)
            assert stats.residual <= 1e-11
            counts.append(stats.iterations)
        assert abs(counts[0] - counts[1]) <= 2
        assert max(counts) <= 20

    @pytest.mark.parametrize("k, amp, max_iterations",
                             [(2, 0.45, 50), (2, 0.499, 50), (16, 0.49, 150)])
    def test_near_crossing_converges(self, data_a, k, amp, max_iterations):
        # inner 1 + amp cos k theta comes within 0.5 - amp of the outer circle.
        # The scaling before the theta average keeps the narrow part of the
        # annulus from dominating, so a gap of 0.001 costs no more than one of
        # 0.05 (about 40 iterations); harmonic 16 at 0.49 is the steepest
        # boundary measured (about 100 iterations here, 210 at 257^2 and 410
        # at 513^2).
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0,) * (k - 1) + (amp,)),
                          outer=FourierCurve(c0=1.5))
        _, stats = solve_dirichlet(build_grid(spec, 129, 129), -2.0, data_a.a, data_a.b)
        assert stats.residual <= 1e-11
        assert stats.iterations <= max_iterations

    def test_deterministic(self, data_a):
        g = build_grid(wavy_domain(), 17, 32)
        f1, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        f2, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        assert np.array_equal(f1.values, f2.values)

    def test_field_shape_validation(self):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        with pytest.raises(InvalidInputError):
            ScalarField(grid=g, values=np.zeros((4, 4)))


class TestMms:
    def test_model_orders(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        res = mms_convergence(spec, manufactured_field("model", model_a),
                              [17, 33, 65])
        assert not res.exact
        assert res.order_linf == pytest.approx(2.0, abs=0.3)
        assert res.order_l2 == pytest.approx(2.0, abs=0.3)
        assert res.linf[-1] < res.linf[0]

    def test_constant_is_exact(self):
        spec = DomainSpec.circles(1.0, 2.0)
        res = mms_convergence(spec, manufactured_field("constant"), [17, 33])
        assert res.exact
        assert "exact" in res.describe()

    def test_linear_second_order(self):
        spec = DomainSpec.circles(1.0, 2.0)
        res = mms_convergence(spec, manufactured_field("linear"), [17, 33, 65])
        assert not res.exact
        assert res.order_linf == pytest.approx(2.0, abs=0.3)

    def test_saddle_on_wavy_domain(self, model_a):
        res = mms_convergence(wavy_domain(), manufactured_field("saddle", model_a),
                              [17, 33, 65])
        assert res.order_linf == pytest.approx(2.0, abs=0.3)

    def test_params_shorthand(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        res = mms_convergence(spec, model_a, [17, 33])
        assert res.linf[0] > 0

    def test_validation(self, model_a):
        spec = DomainSpec.circles(1.0, 2.0)
        with pytest.raises(InvalidInputError):
            mms_convergence(spec, manufactured_field("constant"), [17])
        with pytest.raises(InvalidInputError):
            mms_convergence(spec, manufactured_field("constant"), [17, 17])
        with pytest.raises(InvalidInputError):
            manufactured_field("cubic")
        with pytest.raises(InvalidInputError):
            manufactured_field("model")


class TestGradient:
    def test_rejects_field_from_other_grid(self):
        circle = build_grid(DomainSpec.circles(1.0, 2.0), 65, 64)
        wavy = build_grid(wavy_domain(), 65, 64)
        fld = ScalarField(grid=circle, values=np.ones((65, 64)))
        with pytest.raises(InvalidInputError):
            gradient_field(wavy, fld)
        gradient_field(build_grid(DomainSpec.circles(1.0, 2.0), 65, 64), fld)

    def test_exact_on_affine(self):
        g = build_grid(wavy_domain(), 17, 48)
        fld = ScalarField(grid=g, values=2.0 * g.x - 3.0 * g.y + 1.0)
        gf = gradient_field(g, fld)
        assert np.max(np.abs(gf.gx - 2.0)) < 1e-12
        assert np.max(np.abs(gf.gy + 3.0)) < 1e-12
        assert np.max(np.abs(gf.w - 13.0)) < 1e-11

    def test_zero_on_constant(self):
        g = build_grid(wavy_domain(), 17, 32)
        gf = gradient_field(g, ScalarField(grid=g, values=np.ones((17, 32))))
        assert np.max(np.abs(gf.gx)) == 0.0
        assert np.max(np.abs(gf.gy)) == 0.0

    def test_model_gradient_square_converges(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            fld = ScalarField(grid=g, values=model_u(model_a, g.r))
            gf = gradient_field(g, fld)
            errs.append(np.max(np.abs(gf.w - model_gradient_sq(model_a, g.r))))
        assert errs[1] < 2e-3
        assert errs[0] / errs[1] > 2.0


class TestNeumannTrace:
    def test_exact_model_values(self, model_a, data_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs_in = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            fld = ScalarField(grid=g, values=model_u(model_a, g.r))
            tr_in = neumann_trace(g, fld, "inner")
            tr_out = neumann_trace(g, fld, "outer")
            errs_in.append(np.max(np.abs(tr_in - data_a.alpha)))
            if n == 65:
                assert np.max(np.abs(tr_out - data_a.beta)) < 5e-4
        assert errs_in[1] < 5e-4
        assert errs_in[0] / errs_in[1] > 2.5

    def test_constant_field(self):
        g = build_grid(wavy_domain(), 17, 32)
        fld = ScalarField(grid=g, values=np.full((17, 32), 2.0))
        assert np.max(np.abs(neumann_trace(g, fld, "inner"))) == 0.0

    def test_which_validation(self, monkeypatch):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        fld = ScalarField(grid=g, values=np.zeros((9, 16)))
        # the side is checked before any gradient is computed
        monkeypatch.setattr(solver_module, "gradient_field", None)
        with pytest.raises(InvalidInputError):
            neumann_trace(g, fld, "both")


class TestFieldIO:
    def test_round_trip(self, tmp_path, data_a):
        g = build_grid(wavy_domain(), 17, 32)
        fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        path = tmp_path / "field.dat"
        write_field(fld, path)
        meta, vals = read_field(path)
        assert meta["ns"] == 17
        assert meta["ntheta"] == 32
        assert meta["domain_hash"] == wavy_domain().spec_hash()
        assert np.array_equal(vals, fld.values)
        assert np.array_equal(meta["x"], g.x)

    def test_deterministic_bytes(self, tmp_path, data_a):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        write_field(fld, p1)
        write_field(fld, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        fld = ScalarField(grid=g, values=np.zeros((9, 16)))
        path = tmp_path / "f.dat"
        write_field(fld, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split()[:2] == ["9", "16"]
        assert len(lines[1].split()[2]) == 12
        assert lines[2].startswith("#")
        assert len(lines) == 3 + 9 * 16

    # Each edit damages the node rows of a 9 x 16 field file; the last row
    # is node (8, 15).
    @pytest.mark.parametrize("damage", [
        lambda rows: rows[:-3],
        lambda rows: rows[:-1] + rows[:1],
        lambda rows: rows[:-1] + [rows[-1].replace("8 15 ", "8 -1 ", 1)],
        lambda rows: rows[:-1] + [rows[-1].replace("8 15 ", "99 15 ", 1)],
        lambda rows: rows[:-1] + [rows[-1] + "x"],
    ], ids=["truncated", "repeated_node", "negative_index", "out_of_range_index",
            "garbled_value"])
    def test_truncated_file_rejected(self, tmp_path, damage):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        fld = ScalarField(grid=g, values=np.zeros((9, 16)))
        path = tmp_path / "f.dat"
        write_field(fld, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + damage(lines[3:])) + "\n")
        with pytest.raises(InvalidInputError):
            read_field(path)
