"""Tests for the finite-difference solver, gradients and manufactured fields."""

import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import serrin.solver as solver_module
from serrin.geometry import blend_map

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
    neumann_constancy,
    neumann_trace,
    read_field,
    solve_dirichlet,
    write_field,
)


# Solves the model-A field on the inner curve 1 + 0.05 cos 3t at 129x128 and
# saves it; the BLAS thread count is set in the environment before numpy loads.
_FIELD_SCRIPT = """
import sys
import numpy as np
from serrin import DomainSpec, FourierCurve, ModelParams, boundary_data_of, build_grid
from serrin import solve_dirichlet

data = boundary_data_of(ModelParams(L=0.0, M=4.0, r_i=1.0, r_o=1.5))
spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.05)),
                  outer=FourierCurve(c0=1.5))
field, _ = solve_dirichlet(build_grid(spec, 129, 128), -2.0, data.a, data.b)
np.save(sys.argv[1], field.values)
"""


def wavy_domain():
    return DomainSpec(
        inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.1)),
        outer=FourierCurve(c0=2.0),
    )


class TestOptions:
    def test_frozen(self):
        # a tolerance set after construction would skip the range check
        options = SolveOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.tol = 0.5

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

    @pytest.mark.parametrize("side", ["inner", "outer"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.r_[np.zeros(15), np.nan]],
                             ids=["nan", "inf", "-inf", "array"])
    def test_non_finite_dirichlet_data_rejected(self, side, bad):
        # once a solver failure (exit 4), and a RuntimeWarning for inf
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        data = {"inner_value": -2.0, "outer_value": 1.0, f"{side}_value": bad}
        with pytest.raises(InvalidInputError, match=f"{side}_value must be finite"):
            solve_dirichlet(g, -2.0, **data)

    def test_huge_dirichlet_data_fail_without_a_warning(self):
        # finite data whose stencil products overflow: a failed solve, not a
        # RuntimeWarning (an error under this suite's warning filter)
        g = build_grid(DomainSpec.circles(1.0, 2.0), 17, 16)
        with pytest.raises(SolverFailureError, match="relative residual nan") as info:
            solve_dirichlet(g, -2.0, 1e308, -1e308)
        assert np.isnan(info.value.residuals).tolist() == [True]  # after 0 iterations

    def test_overflowing_rhs_norm_fails_without_a_warning(self):
        # A finite right-hand side whose norm overflows: the start solves the
        # system to a finite residual, which over an infinite norm would read
        # 0, so every relative residual is nan instead and the solve fails.
        g = build_grid(DomainSpec.circles(1.0, 1.5), 17, 16)
        with pytest.raises(SolverFailureError, match="relative residual nan") as info:
            solve_dirichlet(g, -2.0, 1e152, 1e152)
        assert np.isnan(info.value.residuals).tolist() == [True]

    def test_non_finite_start_fails_as_nan(self):
        identity = np.copy
        with pytest.raises(SolverFailureError, match="relative residual nan") as info:
            solver_module._gmres(identity, identity, np.ones(4), np.full(4, np.nan), 1e-11)
        assert np.isnan(info.value.residuals).tolist() == [True]

    def test_second_order_on_model(self, model_a, data_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
            exact = model_u(model_a, np.hypot(g.x, g.y))
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

    @pytest.mark.parametrize("case", ["ns9_circles", "wavy33_per_angle"])
    def test_right_hand_side_is_the_boundary_rows_of_apply(self, case, model_a, monkeypatch):
        # Only the first and last interior rows reach a Dirichlet row; the
        # right-hand side built from them equals jac f - L(boundary) with the
        # full operator, bit for bit.  The 33^2 case is the mms path: a
        # manufactured field's per-angle data on a wavy domain.
        if case == "ns9_circles":
            g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
            f, inner, outer = -2.0, 0.25, -1.5
        else:
            g = build_grid(wavy_domain(), 33, 33)
            exact = manufactured_field("saddle", model_a)
            ue = exact.fn(g.x, g.y)
            f, inner, outer = exact.rhs, ue[0], ue[-1]
        seen = _recorded_starts(monkeypatch)
        solve_dirichlet(g, f, inner, outer)
        boundary = np.zeros((g.ns, g.ntheta))
        boundary[0], boundary[-1] = inner, outer
        full = g.jac[1:-1] * f - solver_module._apply(solver_module._stencil(g), boundary)
        assert seen[-1][1].tobytes() == full.ravel().tobytes()

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
        monkeypatch.setattr(solver_module, "_stencil", lambda grid: np.zeros((3, 3, 9 - 2, 16)))
        with pytest.raises(SolverFailureError, match="singular") as exc:
            solve_dirichlet(g, -2.0, 0.0, 1.0)
        assert exc.value.residuals == []

    def test_restarts_reach_the_unrestarted_field(self, data_a, monkeypatch):
        g = build_grid(wavy_domain(), 33, 33)
        reference, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        monkeypatch.setattr(solver_module, "_RESTART", 3)
        fld, stats = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        assert stats.residual <= SolveOptions().tol
        assert len(stats.residuals) > 4  # more than one cycle of 3
        assert len(stats.residuals) == stats.iterations + 1
        assert np.max(np.abs(fld.values - reference.values)) < 1e-9

    def test_stage_timings(self, data_a):
        g = build_grid(wavy_domain(), 17, 32)
        _, stats = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        stages = (stats.assemble_s, stats.setup_s, stats.solve_s)
        assert all(t >= 0 for t in stages)
        assert stats.seconds == pytest.approx(sum(stages))

    def test_circles_take_no_iteration(self, data_a, data_c, model_c, monkeypatch):
        # On circles the lumped start is the discrete solution: it meets tol
        # alone, on the dense-DFT sizes and on the FFT ones.
        seen = _recorded_starts(monkeypatch)
        cases = [(DomainSpec.circles(1.0, 1.5), data_a),
                 (DomainSpec.circles(model_c.r_i, model_c.r_o), data_c)]
        for spec, data in cases:
            for ns, nt in ((33, 33), (65, 64), (129, 129), (257, 256), (257, 257)):
                _, stats = solve_dirichlet(build_grid(spec, ns, nt), -2.0, data.a, data.b)
                assert _relative_residual(*seen[-1]) <= SolveOptions().tol
                assert stats.iterations == 0
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
        # 0.05 (about 35 iterations); harmonic 16 at 0.49 is the steepest
        # boundary measured (89 iterations here, 165 at 257^2 and 333 at
        # 513^2).
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

    def test_blas_thread_count_moves_only_rounding(self, tmp_path):
        # The Gram-Schmidt products are BLAS calls that split their sums
        # across threads, so the bytes are fixed only for a fixed count.
        fields = []
        for threads in ("1", "2"):
            out = tmp_path / f"u{threads}.npy"
            proc = subprocess.run([sys.executable, "-c", _FIELD_SCRIPT, str(out)],
                                  capture_output=True, text=True,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            fields.append(np.load(out))
        one, two = fields
        assert np.max(np.abs(one - two)) <= 1e-13 * np.max(np.abs(one))

    def test_field_shape_validation(self):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        with pytest.raises(InvalidInputError):
            ScalarField(grid=g, values=np.zeros((4, 4)))

    def test_field_copies_a_read_only_array(self):
        # An array the caller froze can be thawed and written to later.
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        arr = np.zeros((9, 16))
        arr.flags.writeable = False
        field = ScalarField(grid=g, values=arr)
        cached = field.derived(gradient_field)
        arr.flags.writeable = True
        arr[4, 3] = 5.0
        assert field.values[4, 3] == 0.0
        assert np.array_equal(cached.w, gradient_field(field).w)


def _dense_theta_averaged(stencil):
    """The matrix ``W^-1 avg(W L)`` of the preconditioner, built entry by
    entry on the flattened interior nodes."""
    n_in, nt = stencil.shape[2:]
    w = 1.0 / np.abs(stencil[1, 1]).mean(axis=0)
    mat = np.zeros((n_in * nt, n_in * nt))
    for di, dj in itertools.product((-1, 0, 1), repeat=2):
        avg = (stencil[di + 1, dj + 1] * w).mean(axis=1)
        for i in range(n_in):
            if 0 <= i + di < n_in:
                for j in range(nt):
                    mat[i * nt + j, (i + di) * nt + (j + dj) % nt] += avg[i] / w[j]
    return mat


class TestPreconditioner:
    # Diagonal dominance of the theta average is weakest on steep and on
    # nearly crossing boundaries, where the pivot-free sweep is most exposed.
    # ntheta = 16 transforms with the FFT, 17 with the dense DFT.
    @pytest.mark.parametrize("k, amp, ntheta", [
        (16, 0.49, 16), (2, 0.499, 16), (16, 0.49, 17), (2, 0.499, 17),
    ], ids=["cos16_steep", "cos2_near_crossing", "cos16_steep_dense", "cos2_near_crossing_dense"])
    def test_solves_the_dense_averaged_system(self, k, amp, ntheta):
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0,) * (k - 1) + (amp,)),
                          outer=FourierCurve(c0=1.5))
        stencil = solver_module._stencil(build_grid(spec, 17, ntheta))
        r = np.random.default_rng(k).standard_normal(15 * ntheta)
        exact = np.linalg.solve(_dense_theta_averaged(stencil), r)
        got = solver_module._theta_averaged_inverse(stencil)(r)
        assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)

    # 17 and 26 transform with the dense pair, 16 and 27 with the FFT.
    @pytest.mark.parametrize("nt", [17, 26, 16, 27],
                             ids=["dense_odd", "dense_even", "fft_even", "fft_odd"])
    def test_theta_transform_is_an_exact_real_dft_pair(self, nt):
        forward, inverse = solver_module._theta_transform(nt)
        rng = np.random.default_rng(nt)
        m = nt // 2 + 1
        x = rng.standard_normal((3, nt))
        x_hat = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        rfft, irfft = np.fft.rfft(x, axis=1), np.fft.irfft(x_hat, nt, axis=1)
        assert np.linalg.norm(forward(x) - rfft) <= 1e-13 * np.linalg.norm(rfft)
        assert np.linalg.norm(inverse(x_hat) - irfft) <= 1e-13 * np.linalg.norm(irfft)
        assert np.linalg.norm(inverse(forward(x)) - x) <= 1e-13 * np.linalg.norm(x)
        # As irfft does, the inverse ignores the imaginary parts of mode 0 and
        # of the Nyquist mode exactly.
        unpaired = x_hat.copy()
        unpaired[:, 0] += 1j
        if nt % 2 == 0:
            unpaired[:, -1] += 1j
        assert np.array_equal(inverse(unpaired), inverse(x_hat))

    def test_theta_transform_is_chosen_by_size(self):
        # Dense where ntheta <= min(5 p, 450), p its largest prime factor.
        dense = {n for n in (17, 26, 33, 64, 65, 128, 129, 256, 257, 289, 301, 449, 513, 1025)
                 if getattr(solver_module._theta_transform(n)[0], "func", None) is not np.fft.rfft}
        assert dense == {17, 26, 33, 65, 129, 257, 449}

    def test_theta_transform_is_built_once_per_size(self):
        pair = solver_module._theta_transform(257)
        assert solver_module._theta_transform(257) is pair
        dft, inv = (cell.cell_contents for f in pair for cell in f.__closure__)
        assert inv.shape == dft.T.shape and inv.flags.f_contiguous
        for matrix in (dft, inv):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0

    @pytest.mark.parametrize("dtype", [float, complex], ids=["columns", "modes"])
    @pytest.mark.parametrize("bad", [0.0, np.inf, -np.inf, np.nan],
                             ids=["zero", "inf", "-inf", "nan"])
    def test_tridiagonal_solver_raises_on_a_singular_pivot(self, dtype, bad):
        # Diagonally dominant bands, one of whose first pivots is bad: an
        # infinite pivot has a finite inverse, 0, and is caught by itself.
        lower, upper = np.ones((3, 4), dtype), np.ones((3, 4), dtype)
        pivot = np.full((3, 4), 4.0, dtype)
        pivot[0, 2] = bad
        with pytest.raises(SolverFailureError, match="singular"):
            solver_module._tridiagonal_solver(lower, pivot, upper)

    @pytest.mark.parametrize("dtype", [float, complex], ids=["columns", "modes"])
    def test_tridiagonal_solver_raises_on_an_overflowing_pivot(self, dtype):
        # Pivots (1e-300, 1, 1) and off-diagonals 1e300: the second pivot
        # overflows to -inf, whose inverse is -0, and a sweep would give nan.
        lower, upper = np.full((3, 2), 1e300, dtype), np.full((3, 2), 1e300, dtype)
        pivot = np.array([[1e-300] * 2, [1.0] * 2, [1.0] * 2], dtype)
        with pytest.raises(SolverFailureError, match="singular"):
            solver_module._tridiagonal_solver(lower, pivot, upper)

    def test_zero_pivot_raises_solver_failure(self):
        # Two rows whose averaged system is [[1, 1], [1, 1]] in every mode:
        # the diagonal is nonzero, but the second pivot is 1 - 1 * 1 = 0.
        stencil = np.zeros((3, 3, 2, 4))
        stencil[:, 1] = 1.0  # every dj = 0 entry
        with pytest.raises(SolverFailureError, match="singular"):
            solver_module._theta_averaged_inverse(stencil)


def _recorded_starts(monkeypatch):
    """Make each solve append its ``(operator, rhs, start)`` to the returned
    list, the start copied before GMRES updates it (GMRES does not write
    into ``rhs``)."""
    seen = []
    gmres = solver_module._gmres

    def recording(operator, precondition, rhs, x0, tol):
        seen.append((operator, rhs, x0.copy()))
        return gmres(operator, precondition, rhs, x0, tol)

    monkeypatch.setattr(solver_module, "_gmres", recording)
    return seen


def _relative_residual(operator, rhs, x):
    return np.linalg.norm(rhs - operator(x)) / np.linalg.norm(rhs)


# One inner or outer harmonic, 1 to 16, at amplitude up to 0.49 between the
# circles 1 and 1.5.
_ONE_HARMONIC = st.builds(
    lambda k, amp, key, side: DomainSpec(**{
        "inner": FourierCurve(c0=1.0), "outer": FourierCurve(c0=1.5),
        side: FourierCurve(c0=1.0 if side == "inner" else 1.5, **{key: (0.0,) * (k - 1) + (amp,)}),
    }),
    st.integers(1, 16), st.floats(0.0, 0.49), st.sampled_from(["cos_coeffs", "sin_coeffs"]),
    st.sampled_from(["inner", "outer"]),
)


class TestLumpedStart:
    def test_zero_pivot_raises_solver_failure(self):
        # Lumped bands [[1, 1], [1, 1]] in every column: the second pivot is 0.
        stencil = np.zeros((3, 3, 2, 4))
        stencil[:, 1] = 1.0  # every dj = 0 entry
        with pytest.raises(SolverFailureError, match="singular"):
            solver_module._lumped_start(stencil, np.ones(8))

    def test_solves_the_lumped_system(self):
        # Column j of the start solves the tridiagonal system whose bands are
        # the stencil's rows summed over dj, here on a perturbed domain.
        stencil = solver_module._stencil(build_grid(wavy_domain(), 12, 16))
        rhs = np.random.default_rng(3).standard_normal((10, 16))
        x = solver_module._lumped_start(stencil, rhs.ravel()).reshape(10, 16)
        bands = {di: sum(stencil[di + 1, dj + 1] for dj in (-1, 0, 1)) for di in (-1, 0, 1)}
        for j in range(16):
            dense = (np.diag(bands[0][:, j]) + np.diag(bands[1][:-1, j], 1)
                     + np.diag(bands[-1][1:, j], -1))
            expected = np.linalg.solve(dense, rhs[:, j])
            assert np.allclose(x[:, j], expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @settings(max_examples=100, deadline=None)
    @given(spec=_ONE_HARMONIC, sizes=st.tuples(st.integers(9, 65), st.integers(16, 128)))
    def test_start_is_finite_and_the_solve_meets_tol(self, data_a, spec, sizes):
        with pytest.MonkeyPatch.context() as mp:
            seen = _recorded_starts(mp)
            _, stats = solve_dirichlet(build_grid(spec, *sizes), -2.0, data_a.a, data_a.b)
        assert np.all(np.isfinite(seen[-1][2]))
        assert stats.residual <= SolveOptions().tol


def _inner_harmonic(k, amp):
    return DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0,) * (k - 1) + (amp,)),
                      outer=FourierCurve(c0=1.5))


# Circles at the thin (gap down to 1e-3) and thick (r_o / r_i up to 20) edges.
_EDGE_CIRCLES = st.one_of(
    st.floats(1e-3, 0.1).map(lambda gap: DomainSpec.circles(1.0, 1.0 + gap)),
    st.floats(2.0, 20.0).map(lambda ratio: DomainSpec.circles(0.5, 0.5 * ratio)),
)
# Plus the steepest boundary, harmonic 16 at amplitude 0.49, and cos 2 theta
# near-crossings (gaps 0.05 down to 1e-3 from the outer circle 1.5).
_EDGE_DOMAINS = st.one_of(
    _EDGE_CIRCLES,
    st.just(_inner_harmonic(16, 0.49)),
    st.floats(0.45, 0.499).map(lambda amp: _inner_harmonic(2, amp)),
)
_GRID_SIZES = st.tuples(st.integers(9, 40), st.integers(16, 48))


def _nine_entry_stencil(grid):
    """The stencil as ``{(di, dj): (ns - 2, ntheta) array}``, each entry by
    its own flux-form formula and the entries in the order the operator sums
    them: the reference that the stencil array is checked against."""
    ns, ds, dt = grid.ns, grid.ds, grid.dtheta
    q = 1.0 / (4.0 * ds * dt)
    s = np.linspace(0.0, 1.0, ns)
    r, r_t, r_s = blend_map(grid.spec, 0.5 * (s[:-1] + s[1:]), grid.theta)
    a = (r_t * r_t + r * r) / (r * r_s) / ds**2
    b = -r_t / r * q
    as_p, as_m, bs_p, bs_m = a[1:], a[:-1], b[1:], b[:-1]
    r, r_t, r_s = blend_map(grid.spec, s[1:-1], grid.theta + 0.5 * dt)
    bt_p = -r_t / r * q
    ct_p = r_s / r / dt**2
    bt_m, ct_m = np.roll(bt_p, 1, axis=1), np.roll(ct_p, 1, axis=1)
    return {
        (0, 0): -as_p - as_m - ct_p - ct_m,
        (1, 0): as_p + bt_p - bt_m,
        (-1, 0): as_m - bt_p + bt_m,
        (0, 1): bs_p - bs_m + ct_p,
        (0, -1): -bs_p + bs_m + ct_m,
        (1, 1): bs_p + bt_p,
        (1, -1): -bs_p - bt_m,
        (-1, 1): -bs_m - bt_p,
        (-1, -1): bs_m + bt_m,
    }


class TestStencil:
    @pytest.mark.parametrize("spec", [wavy_domain(), DomainSpec.circles(1.0, 1.5)],
                             ids=["wavy", "circle"])
    def test_every_reader_matches_the_nine_entry_formulas(self, spec, monkeypatch):
        # Bit for bit: each entry of the array, the operator on a random
        # field, the right-hand-side rows, the lumped bands and the
        # theta-averaged bands, which hold the nine averages (three modes
        # fix the three averages of a band).
        g = build_grid(spec, 33, 33)
        ns, nt = g.ns, g.ntheta
        ref = _nine_entry_stencil(g)
        stencil = solver_module._stencil(g)
        for (di, dj), coef in ref.items():
            assert np.array_equal(stencil[di + 1, dj + 1], coef)

        rng = np.random.default_rng(7)
        u = rng.standard_normal((ns, nt))
        padded = np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)
        expected = sum(coef * padded[1 + di:ns - 1 + di, 1 + dj:nt + 1 + dj]
                       for (di, dj), coef in ref.items())
        assert np.array_equal(solver_module._apply(stencil, u), expected)

        bands = []  # the bands of each factorization, copied before it factors them in place
        factor = solver_module._tridiagonal_solver

        def recording(*given):
            bands.append([band.copy() for band in given])
            return factor(*given)

        monkeypatch.setattr(solver_module, "_tridiagonal_solver", recording)
        seen = _recorded_starts(monkeypatch)
        inner, outer = rng.standard_normal(nt), rng.standard_normal(nt)
        solve_dirichlet(g, -2.0, inner, outer)
        rhs = g.jac[1:-1] * -2.0
        rhs[0] -= sum(coef[0] * np.roll(inner, -dj) for (di, dj), coef in ref.items() if di < 0)
        rhs[-1] -= sum(coef[-1] * np.roll(outer, -dj) for (di, dj), coef in ref.items() if di > 0)
        assert np.array_equal(seen[-1][1], rhs.ravel())

        averaged, lumped = bands  # the preconditioner is factored before the start
        w = 1.0 / np.abs(ref[0, 0]).mean(axis=0)
        avg = {key: coef @ w / nt for key, coef in ref.items()}
        omega = np.exp(2j * np.pi * np.arange(nt // 2 + 1) / nt)
        for di, got_averaged, got_lumped in zip((-1, 0, 1), averaged, lumped):
            assert np.array_equal(got_averaged, avg[di, 0][:, None] + np.outer(avg[di, 1], omega)
                                  + np.outer(avg[di, -1], omega.conj()))
            assert np.array_equal(got_lumped, sum(ref[di, dj] for dj in (-1, 0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(spec=_EDGE_DOMAINS, sizes=_GRID_SIZES)
    def test_annihilates_constants(self, spec, sizes):
        stencil = solver_module._stencil(build_grid(spec, *sizes))
        residual = solver_module._apply(stencil, np.ones(sizes))
        assert np.all(np.abs(residual) <= 1e-14 * np.abs(stencil[1, 1]))

    @settings(max_examples=40, deadline=None)
    @given(spec=_EDGE_CIRCLES, sizes=_GRID_SIZES)
    def test_circles_are_theta_invariant_without_mixed_terms(self, spec, sizes):
        # Why GMRES takes no iteration on circles: the theta-lumped start
        # is then the discrete solution (and the theta-averaged
        # preconditioner the operator itself).
        stencil = solver_module._stencil(build_grid(spec, *sizes))
        for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert np.all(stencil[di + 1, dj + 1] == 0)
        for coef in stencil.reshape(9, -1, sizes[1]):
            assert np.all(coef == coef[:, :1])

    def test_second_order_consistent(self):
        # u = x^3 - 3 x y^2 + x^2 + y^2 has Lap(u) = 4.  The local error of
        # stencil / J falls at second order, which pins the coefficients'
        # values and their staggering; both boundaries are perturbed.
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.1)),
                          outer=FourierCurve(c0=2.0, sin_coeffs=(0.0, 0.15)))
        errors = []
        for n in (65, 129):
            g = build_grid(spec, n, n)
            u = g.x ** 3 - 3 * g.x * g.y ** 2 + g.x ** 2 + g.y ** 2
            lap = solver_module._apply(solver_module._stencil(g), u) / g.jac[1:-1]
            errors.append(np.max(np.abs(lap - 4.0)))
        assert np.log2(errors[0] / errors[1]) > 1.9


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

    def test_non_integer_sizes_rejected(self):
        # build_grid's rule, not a truncation to 33 and 65
        spec = DomainSpec.circles(1.0, 2.0)
        with pytest.raises(InvalidInputError, match="grid sizes must be integers"):
            mms_convergence(spec, manufactured_field("linear"), [33.7, 65.2])

    def test_sizes_are_the_grid_sizes(self):
        res = mms_convergence(DomainSpec.circles(1.0, 2.0), manufactured_field("constant"),
                              iter([17.0, np.int64(33)]))
        assert res.sizes == [17, 33]
        assert all(type(n) is int for n in res.sizes)

    def test_validation(self, model_a):
        spec = DomainSpec.circles(1.0, 2.0)
        with pytest.raises(InvalidInputError):
            mms_convergence(spec, manufactured_field("constant"), [17])
        with pytest.raises(InvalidInputError):
            mms_convergence(spec, manufactured_field("constant"), [17, 17])
        with pytest.raises(InvalidInputError):
            manufactured_field("cubic")
        for kind in ("model", "saddle"):
            with pytest.raises(InvalidInputError, match=f"kind '{kind}' needs model parameters"):
                manufactured_field(kind)


class TestGradient:
    def test_exact_on_affine(self):
        g = build_grid(wavy_domain(), 17, 48)
        fld = ScalarField(grid=g, values=2.0 * g.x - 3.0 * g.y + 1.0)
        gf = gradient_field(fld)
        assert np.max(np.abs(gf.gx - 2.0)) < 1e-12
        assert np.max(np.abs(gf.gy + 3.0)) < 1e-12
        assert np.max(np.abs(gf.w - 13.0)) < 1e-11

    def test_zero_on_constant(self):
        g = build_grid(wavy_domain(), 17, 32)
        gf = gradient_field(ScalarField(grid=g, values=np.ones((17, 32))))
        assert np.max(np.abs(gf.gx)) == 0.0
        assert np.max(np.abs(gf.gy)) == 0.0

    def test_model_gradient_square_converges(self, model_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            r = np.hypot(g.x, g.y)
            fld = ScalarField(grid=g, values=model_u(model_a, r))
            gf = gradient_field(fld)
            errs.append(np.max(np.abs(gf.w - model_gradient_sq(model_a, r))))
        assert errs[1] < 2e-3
        assert errs[0] / errs[1] > 2.0


class TestNeumannTrace:
    def test_exact_model_values(self, model_a, data_a):
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs_in = []
        for n in (33, 65):
            g = build_grid(spec, n, n)
            fld = ScalarField(grid=g, values=model_u(model_a, np.hypot(g.x, g.y)))
            tr_in = neumann_trace(fld, "inner")
            tr_out = neumann_trace(fld, "outer")
            errs_in.append(np.max(np.abs(tr_in - data_a.alpha)))
            if n == 65:
                assert np.max(np.abs(tr_out - data_a.beta)) < 5e-4
        assert errs_in[1] < 5e-4
        assert errs_in[0] / errs_in[1] > 2.5

    def test_converges_at_second_order_to_the_boundary_integral_value(self, data_a):
        # inner sd of the model-A trace on inner 1 + 0.05 cos 3t, outer 1.5;
        # 0.203125418856 is a spectral boundary-integral solution's value
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.05)),
                          outer=FourierCurve(c0=1.5))
        sds = []
        for n in (65, 129, 257):
            fld, _ = solve_dirichlet(build_grid(spec, n, n - 1), -2.0, data_a.a, data_a.b)
            trace, weights = neumann_trace(fld, "inner"), fld.grid.arc_weights("inner")
            sds.append(neumann_constancy(trace, weights).sd)
        order = np.log2((sds[1] - sds[0]) / (sds[2] - sds[1]))
        assert order == pytest.approx(2.0, abs=0.1)
        limit = sds[2] + (sds[2] - sds[1]) / (2**order - 1)
        assert limit == pytest.approx(0.203125418856, abs=1e-6)

    def test_constant_field(self):
        g = build_grid(wavy_domain(), 17, 32)
        fld = ScalarField(grid=g, values=np.full((17, 32), 2.0))
        assert np.max(np.abs(neumann_trace(fld, "inner"))) == 0.0

    def test_grid_cannot_change_under_a_cached_trace(self, data_a):
        # The field caches its gradient, so a grid that moved afterwards
        # would leave every later trace stale.
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        neumann_trace(fld, "inner")
        with pytest.raises(ValueError, match="read-only"):
            g.x[1:] += 0.01

    def test_which_validation(self, monkeypatch):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 16)
        fld = ScalarField(grid=g, values=np.zeros((9, 16)))
        # the side is checked before any gradient is computed
        monkeypatch.setattr(solver_module, "gradient_field", None)
        with pytest.raises(InvalidInputError):
            neumann_trace(fld, "both")


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

    def test_bytes_match_savetxt(self, tmp_path, data_a):
        # np.savetxt with the documented row format is the reference writer
        g = build_grid(wavy_domain(), 17, 32)
        fld, _ = solve_dirichlet(g, -2.0, data_a.a, data_a.b)
        header = f"# scalar field on a blended polar grid\n17 32 {g.spec.spec_hash()}\n" \
                 "# i j x1 x2 value"
        i, j = np.indices((17, 32))
        rows = np.column_stack([a.ravel() for a in (i, j, g.x, g.y, fld.values)])
        ref = tmp_path / "ref.dat"
        np.savetxt(ref, rows, fmt="%d %d %.17g %.17g %.17g", header=header, comments="")
        path = tmp_path / "field.dat"
        write_field(fld, path)
        assert path.read_bytes() == ref.read_bytes()

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

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_rejected(self, tmp_path):
        # numpy's "input contained no data" UserWarning once came first, and
        # escaped in place of the InvalidInputError under -W error
        path = tmp_path / "f.dat"
        path.write_text("# scalar field on a blended polar grid\n2 16 abcdef012345\n"
                        "# i j x1 x2 value\n")
        with pytest.raises(InvalidInputError, match="row count"):
            read_field(path)

    @pytest.mark.parametrize("column, text", [(2, "inf"), (3, "-inf"), (4, "nan")],
                             ids=["x1", "x2", "value"])
    def test_non_finite_number_rejected(self, tmp_path, column, text):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        path = tmp_path / "f.dat"
        write_field(ScalarField(grid=g, values=np.zeros((9, 16))), path)
        lines = path.read_text().splitlines()
        cells = lines[10].split()
        cells[column] = text
        lines[10] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="non-finite"):
            read_field(path)
