"""Tests for the radial model family, case classification and fitting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serrin import (
    BoundaryData,
    DomainSpec,
    FourierCurve,
    InvalidInputError,
    ModelParams,
    OutOfRangeError,
    ProblemCase,
    RootBracketError,
    SingularEvaluationError,
    UnsupportedRegimeError,
    boundary_data_of,
    build_grid,
    classify_case,
    compatibility,
    fit_model,
    model_gradient_sq,
    model_u,
    model_u_prime,
    pseudo_radius,
    refined_k,
    refined_phi,
    refined_phi_dot,
    solve_dirichlet,
)
from serrin import models as models_module
from serrin.models import SINGULAR_CUTOFF, degenerate_band, refined_k_at
from serrin.verify import DEFAULT_TRUNCATION
from conftest import random_decreasing, random_increasing, random_model

# Values frozen from a 40-digit arbitrary-precision evaluation of the same
# closed forms; tolerances reflect double rounding only.
U_A_AT_12 = 0.0092862271758185048
B_A = 0.4968604324326575
S_A = 3.6514471591582588
W0_A_AT_12 = 4.551111111111111
K_C = 2.9571137728241815
PHI_C_AT_2 = -1.6587552230361156
PHIDOT_C_AT_15 = 0.7389782844558786
PHIDOT_B_AT_15 = 0.8024691358024691
PHI_B_AT_1 = 3.0
A_C = -0.5376784432060454
B_C = -1.3068528194400547


class TestModelEvaluation:
    def test_frozen_values(self, model_a, model_c):
        assert model_u(model_a, 1.2) == pytest.approx(U_A_AT_12, rel=1e-13)
        assert model_u(model_a, 1.5) == pytest.approx(B_A, rel=1e-13)
        assert model_u(model_a, 1.0) == pytest.approx(-0.5, rel=1e-15)
        da = boundary_data_of(model_a)
        assert da.a == pytest.approx(-0.5, rel=1e-15)
        assert da.b == pytest.approx(B_A, rel=1e-13)
        assert da.alpha == pytest.approx(-3.0, rel=1e-14)
        assert da.beta == pytest.approx(4.0 / 1.5 - 1.5, rel=1e-14)
        dc = boundary_data_of(model_c)
        assert dc.a == pytest.approx(A_C, rel=1e-13)
        assert dc.b == pytest.approx(B_C, rel=1e-13)

    def test_u_prime_signs(self, model_a, model_c):
        # slope sign matches the regime on the open interval
        assert model_u_prime(model_a, 1.2) > 0
        assert model_u_prime(model_c, 1.5) < 0

    def test_array_matches_scalar(self, model_a):
        r = np.array([1.0, 1.2, 1.5])
        vals = model_u(model_a, r)
        assert vals.shape == (3,)
        for i, ri in enumerate(r):
            assert vals[i] == model_u(model_a, float(ri))

    def test_nonpositive_radius_rejected(self, model_a):
        with pytest.raises(InvalidInputError):
            model_u(model_a, 0.0)
        with pytest.raises(InvalidInputError):
            model_u_prime(model_a, -1.0)


class TestValidation:
    def test_negative_m(self):
        with pytest.raises(InvalidInputError):
            ModelParams(L=0.0, M=-1.0, r_i=1.0, r_o=2.0)

    def test_radius_ordering(self):
        with pytest.raises(InvalidInputError):
            ModelParams(L=0.0, M=1.0, r_i=2.0, r_o=1.0)
        with pytest.raises(InvalidInputError):
            ModelParams(L=0.0, M=1.0, r_i=0.0, r_o=1.0)

    def test_sqrt_m_inside_annulus_rejected(self):
        # sqrt(M) strictly between the radii gives a non-monotone profile
        with pytest.raises(InvalidInputError):
            ModelParams(L=0.0, M=2.25, r_i=1.0, r_o=2.0)

    def test_nonfinite_boundary_data(self):
        with pytest.raises(InvalidInputError):
            BoundaryData(a=np.nan, b=0.0, alpha=1.0, beta=1.0)
        with pytest.raises(InvalidInputError):
            BoundaryData(a=0.0, b=np.inf, alpha=1.0, beta=1.0)


def _classify_reference(a, b, al, be):
    """Inline restatement of the case table used as a cross-check."""
    gap = 4 * a + al * al - (4 * b + be * be)
    if a < b and al < 0 and be >= 0 and gap > 0:
        return ProblemCase.INCREASING
    if a > b and al >= 0 and be < 0 and gap > 0:
        if 2 * a + al * al <= 2 * b + be * be:
            return ProblemCase.DECREASING_COVERED
        return ProblemCase.DECREASING_UNCOVERED
    return ProblemCase.INADMISSIBLE


class TestClassification:
    @pytest.mark.parametrize(
        "tup,expected",
        [
            ((0.0, 0.5, -3.0, 1.0), ProblemCase.INCREASING),
            ((1.5, 0.0, 1.0, -2.0), ProblemCase.DECREASING_COVERED),
            ((1.0, 0.0, 0.5, -0.5), ProblemCase.DECREASING_UNCOVERED),
            ((0.0, 0.0, 0.0, 0.0), ProblemCase.INADMISSIBLE),
        ],
    )
    def test_explicit_cases(self, tup, expected):
        a, b, al, be = tup
        assert classify_case(BoundaryData(a=a, b=b, alpha=al, beta=be)) is expected

    def test_model_data_classifies_by_slope(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_increasing(rng)
            assert classify_case(boundary_data_of(p)) is ProblemCase.INCREASING
        for _ in range(50):
            p = random_decreasing(rng)
            got = classify_case(boundary_data_of(p))
            # every model-generated decreasing datum lands in the covered case
            assert got is ProblemCase.DECREASING_COVERED

    def test_case_property_matches(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_model(rng)
            assert p.case is classify_case(boundary_data_of(p))

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        al=st.floats(-5, 5),
        be=st.floats(-5, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_reference_table(self, a, b, al, be):
        got = classify_case(BoundaryData(a=a, b=b, alpha=al, beta=be))
        assert got is _classify_reference(a, b, al, be)

    def test_str_values(self):
        assert str(ProblemCase.INCREASING) == "Increasing"
        assert str(ProblemCase.DECREASING_COVERED) == "DecreasingCovered"
        assert str(ProblemCase.DECREASING_UNCOVERED) == "DecreasingUncovered"
        assert str(ProblemCase.INADMISSIBLE) == "Inadmissible"


class TestCompatibility:
    def test_root_at_true_m(self, data_a):
        assert abs(compatibility(data_a, 4.0)) < 1e-14

    def test_large_m_limit(self, data_a):
        assert compatibility(data_a, 1e6) == pytest.approx(S_A, abs=0.01)

    def test_m_zero_closed_form(self, model_b, data_c):
        # decreasing data (alpha >= 0 > beta): alpha*|alpha| + beta*|beta| at
        # m = 0 turns the large-M limit into 4a + 2 alpha^2 - 4b - 2 beta^2
        for d in (boundary_data_of(model_b), data_c):
            a, b, al, be = d.as_tuple()
            expected = 4 * a + 2 * al * al - 4 * b - 2 * be * be
            assert compatibility(d, 0.0) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5),
           al=st.floats(-5, 5), be=st.floats(-5, 5))
    @settings(max_examples=300, deadline=None)
    def test_continuous_at_zero(self, a, b, al, be):
        # F(0) is the m -> 0+ limit for every sign pattern of alpha and beta
        d = BoundaryData(a=a, b=b, alpha=al, beta=be)
        m = 1e-12 * max(1.0, al * al, be * be)
        f0 = compatibility(d, 0.0)
        assert abs(f0 - compatibility(d, m)) <= 1e-8 * (1.0 + abs(f0))

    def test_negative_m_rejected(self, data_a):
        with pytest.raises(InvalidInputError):
            compatibility(data_a, -1.0)

    def test_degenerate_logarithm_raises(self):
        # alpha + sqrt(alpha^2 + 4m) rounds to 0 for alpha = -1e9 at tiny m
        d = BoundaryData(a=0.0, b=1.0, alpha=-1e9, beta=0.5)
        with pytest.raises(SingularEvaluationError, match="degenerate logarithm"):
            compatibility(d, 1e-300)


def _fit_counting_calls(data):
    """``fit_model(data)`` and the ``m`` of each ``compatibility`` call it made."""
    calls = []

    def counting(d, m):
        calls.append(m)
        return compatibility(d, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models_module, "compatibility", counting)
        return fit_model(data), calls


class TestFit:
    def test_recovers_reference_models(self, model_a, model_b, model_c, model_d):
        for p in (model_a, model_b, model_c, model_d):
            q = fit_model(boundary_data_of(p))
            assert q.M == pytest.approx(p.M, rel=1e-7, abs=1e-9)
            assert q.r_i == pytest.approx(p.r_i, rel=1e-7)
            assert q.r_o == pytest.approx(p.r_o, rel=1e-7)
            assert q.L == pytest.approx(p.L, rel=1e-7, abs=1e-9)

    def test_m_zero_model_fits_exactly(self, model_b):
        # every fit reads F(0) first, so an M = 0 model fits to 0.0 in one call
        q, calls = _fit_counting_calls(boundary_data_of(model_b))
        assert q.M == 0.0
        assert calls == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           gen=st.sampled_from([random_increasing, random_decreasing]))
    def test_first_call_at_zero(self, seed, gen):
        # one bracket path: lo = 0 for every covered fit
        _, calls = _fit_counting_calls(boundary_data_of(gen(np.random.default_rng(seed))))
        assert calls[0] == 0.0

    def test_outer_zero_slope_model(self):
        # beta = 0 exactly when r_o = sqrt(M)
        p = ModelParams(L=1.0, M=4.0, r_i=1.0, r_o=2.0)
        d = boundary_data_of(p)
        assert d.beta == 0.0
        q = fit_model(d)
        assert q.M == pytest.approx(4.0, rel=1e-7)

    def test_uncovered_raises_with_case(self):
        d = BoundaryData(a=1.0, b=0.0, alpha=0.5, beta=-0.5)
        with pytest.raises(UnsupportedRegimeError) as exc:
            fit_model(d)
        assert exc.value.case is ProblemCase.DECREASING_UNCOVERED

    def test_inadmissible_raises_with_case(self):
        d = BoundaryData(a=0.0, b=0.0, alpha=0.0, beta=0.0)
        with pytest.raises(UnsupportedRegimeError) as exc:
            fit_model(d)
        assert exc.value.case is ProblemCase.INADMISSIBLE

    def test_punctured_disk_data_has_no_model(self):
        # alpha = 0 forces r_i -> 0 at the only admissible M
        d = BoundaryData(a=0.5, b=0.0, alpha=0.0, beta=-1.0)
        assert classify_case(d) is ProblemCase.DECREASING_COVERED
        with pytest.raises(RootBracketError):
            fit_model(d)

    def test_overflowing_slope_square_names_the_bracket(self):
        # finite and Increasing, but alpha^2 overflows the bracket's start;
        # this once failed inside compatibility's own argument check
        d = BoundaryData(a=0.0, b=1.0, alpha=-1e200, beta=1.0)
        assert classify_case(d) is ProblemCase.INCREASING
        with pytest.raises(RootBracketError, match=r"bracket \[0, inf\] is not finite"):
            fit_model(d)

    def test_bracket_ceiling_raises(self):
        # Increasing, yet F stays nonpositive while hi doubles past 1e12
        d = BoundaryData(a=0.9380813986872819, b=1931.2271964517008,
                         alpha=-87.87011224580067, beta=0.012879315087262862)
        assert classify_case(d) is ProblemCase.INCREASING
        with pytest.raises(RootBracketError, match="nonpositive up to the bracket ceiling 1e"):
            fit_model(d)

    def test_residual_contract_and_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_model(rng)
            d = boundary_data_of(p)
            q = fit_model(d)
            limit = 4 * d.a + d.alpha**2 - 4 * d.b - d.beta**2
            assert abs(compatibility(d, q.M)) <= 1e-12 * (1.0 + abs(limit))
            e = boundary_data_of(q)
            scale = 1.0 + max(abs(v) for v in d.as_tuple())
            for x, y in zip(d.as_tuple(), e.as_tuple()):
                assert abs(x - y) <= 1e-8 * scale


def _assert_round_trip(p, value):
    """``pseudo_radius(p, value)`` lies in [r_i, r_o] and inverts the profile:
    the residual may reach the rounding error of evaluating u plus one float
    step of psi times the slope."""
    psi = pseudo_radius(p, value)
    assert np.all((p.r_i <= psi) & (psi <= p.r_o))
    eps = np.finfo(float).eps
    bound = (4 * eps * (abs(p.L) + psi * psi / 2 + p.M * np.abs(np.log(psi)))
             + np.abs(model_u_prime(p, psi)) * np.spacing(psi))
    assert np.all(np.abs(model_u(p, psi) - value) <= bound)
    return psi


def _values_near_top(p):
    """``hi - (hi - lo) * 10^-j`` for j = 0..16 over the profile range."""
    lo, hi = p.value_range
    return np.clip(hi - (hi - lo) * 10.0 ** -np.arange(17), lo, hi)


class TestPseudoRadius:
    def test_inverts_profile(self, model_a, model_c):
        for p in (model_a, model_c):
            for r in (p.r_i, 1.3 * p.r_i, 0.5 * (p.r_i + p.r_o), p.r_o):
                got = pseudo_radius(p, model_u(p, r))
                assert got == pytest.approx(r, rel=1e-10)

    def test_endpoints(self, model_a, data_a):
        assert pseudo_radius(model_a, data_a.a) == pytest.approx(1.0, rel=1e-12)
        assert pseudo_radius(model_a, data_a.b) == pytest.approx(1.5, rel=1e-12)

    def test_array_matches_scalar(self, model_a):
        vals = model_u(model_a, np.array([1.1, 1.25, 1.4]))
        rs = pseudo_radius(model_a, vals)
        assert rs.shape == (3,)
        for i, v in enumerate(vals):
            assert rs[i] == pseudo_radius(model_a, float(v))

    def test_out_of_range(self, model_a, data_a):
        with pytest.raises(OutOfRangeError):
            pseudo_radius(model_a, data_a.b + 1.0)
        with pytest.raises(OutOfRangeError):
            pseudo_radius(model_a, data_a.a - 1.0)
        with pytest.raises(OutOfRangeError):
            pseudo_radius(model_a, np.array([data_a.a, np.nan]))

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0),
           model=st.sampled_from(["increasing", "decreasing", "B", "D"]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, seed, t, model, model_b, model_d):
        # Both ends, their neighbouring floats inside the range, one radius
        # drawn by t and 60 random values, as an array and one by one as 0-d
        # input.
        rng = np.random.default_rng(seed)
        gens = {"increasing": random_increasing, "decreasing": random_decreasing}
        p = gens[model](rng) if model in gens else {"B": model_b, "D": model_d}[model]
        ends = model_u(p, np.array([p.r_i, p.r_o]))
        lo, hi = ends.min(), ends.max()
        r = min(p.r_i + t * (p.r_o - p.r_i), p.r_o)
        v = np.concatenate([ends, [np.nextafter(lo, hi), np.nextafter(hi, lo)],
                            [np.clip(model_u(p, r), lo, hi)], rng.uniform(lo, hi, 60)])
        _assert_round_trip(p, v)
        for x in v[:8]:
            assert isinstance(_assert_round_trip(p, np.array(x)), float)

    @given(gap=st.floats(-15.0, -3.0), shape=st.sampled_from(["above", "below", "outer"]),
           log_m=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_near_sqrt_m(self, gap, shape, log_m, c):
        # A zero-slope radius at relative distance 10^gap from an end: r_i
        # just above sqrt(M) (decreasing), r_i just below it on a thin
        # increasing annulus with r_o = sqrt(M), or r_o just below it.
        M = 10.0 ** log_m
        root, g = np.sqrt(M), 10.0 ** gap
        r_i, r_o = {"above": (root * (1 + g), 2 * root * (1 + g)),
                    "below": (root * (1 - g), root),
                    "outer": (0.5 * root * (1 - g), root * (1 - g))}[shape]
        p = ModelParams(L=c * M, M=M, r_i=r_i, r_o=r_o)
        _assert_round_trip(p, _values_near_top(p))

    @given(M=st.sampled_from([0.0, 1e-300, 1e-12]), log_ri=st.floats(-3.0, 3.0),
           width=st.floats(0.03, 2.0), c=st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_small_m(self, M, log_ri, width, c):
        # Decreasing models with M -> 0.  L is drawn on the scale of r_i^2:
        # a value carries rounding of relative size eps*|L|/psi^2, which
        # bounds how closely any inverse can match sqrt(2(L - v)).
        r_i = 10.0 ** log_ri
        p = ModelParams(L=c * r_i * r_i, M=M, r_i=r_i, r_o=r_i * (1 + width))
        v = _values_near_top(p)
        psi = _assert_round_trip(p, v)
        if M == 0.0:
            assert np.all(np.abs(psi - np.sqrt(2 * (p.L - v))) <= 1e-15 * psi)


    def test_seeded_newton_calls_on_a_solved_field(self, model_a, data_a, monkeypatch):
        # The model-A field on inner 1 + 0.05 cos 3 theta at 65^2: the range
        # check, the seed table, the tangent step from the interpolated start
        # and four passes make 8 profile evaluations (10 from the near end).
        spec = DomainSpec(inner=FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.05)),
                          outer=FourierCurve(c0=1.5))
        field, _ = solve_dirichlet(build_grid(spec, 65, 65), -2.0, data_a.a, data_a.b)
        values = np.clip(field.values, *model_a.value_range)
        calls = []
        profile = models_module.model_u
        monkeypatch.setattr(models_module, "model_u",
                            lambda p, r: calls.append(1) or profile(p, r))
        pseudo_radius(model_a, values)
        assert len(calls) <= 8
        monkeypatch.undo()
        _assert_round_trip(model_a, values)

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0),
           model=st.sampled_from(["increasing", "decreasing", "B", "D", "below", "outer"]),
           gap=st.floats(-15.0, -3.0))
    @settings(max_examples=200, deadline=None)
    def test_tangent_step_lands_on_the_near_side(self, seed, t, model, gap, model_b, model_d):
        # From any radius in [r_i, r_o], ends included, one tangent step
        # reaches a radius whose value is at most the target, up to the
        # rounding of evaluating u there.  "below" and "outer" put a
        # zero-slope radius at or 10^gap from r_o; D has it at r_i.
        rng = np.random.default_rng(seed)
        gens = {"increasing": random_increasing, "decreasing": random_decreasing}
        if model in gens:
            p = gens[model](rng)
        elif model in ("B", "D"):
            p = {"B": model_b, "D": model_d}[model]
        else:
            root, g = 1.0, 10.0 ** gap
            r_i, r_o = {"below": (1 - g, 1.0), "outer": (0.5 * (1 - g), 1 - g)}[model]
            p = ModelParams(L=float(rng.uniform(-2.0, 2.0)), M=root, r_i=r_i, r_o=r_o)
        r = np.concatenate([[p.r_i, p.r_o], [min(p.r_i + t * (p.r_o - p.r_i), p.r_o)],
                            rng.uniform(p.r_i, p.r_o, 20)])
        lo, hi = p.value_range
        target = np.concatenate([[lo, hi], rng.uniform(lo, hi, 21)])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = models_module._tangent_step(p, r, target)
        assert np.all((p.r_i <= nxt) & (nxt <= p.r_o))
        eps = np.finfo(float).eps
        bound = 4 * eps * (abs(p.L) + nxt * nxt / 2 + p.M * np.abs(np.log(nxt)))
        assert np.all(model_u(p, nxt) - target <= bound)


class TestGradientSq:
    def test_frozen_value(self, model_a):
        assert model_gradient_sq(model_a, 1.2) == pytest.approx(
            W0_A_AT_12, rel=1e-13
        )

    def test_matches_slope_squared(self, model_c):
        r = np.linspace(model_c.r_i, model_c.r_o, 17)
        w = model_gradient_sq(model_c, r)
        assert w == pytest.approx(model_u_prime(model_c, r) ** 2, rel=1e-13)


class TestRefinedQuantities:
    def test_k_frozen(self, model_c):
        assert refined_k(model_c) == pytest.approx(K_C, rel=1e-13)

    def test_k_for_m_zero(self, model_b):
        # k = -r_i^4 when M = 0 and r_i = 1
        assert refined_k(model_b) == pytest.approx(-1.0, rel=1e-13)

    def test_k_independent_of_l(self, model_c):
        # K(r_i) does not read L, so a large L changes no bit of k
        k0 = refined_k(model_c)
        for L in (1e6, 1e8, -3e7):
            assert refined_k(replace(model_c, L=L)) == k0

    def test_k_rejects_increasing(self, model_a):
        with pytest.raises(UnsupportedRegimeError,
                           match="the refined identity applies to covered decreasing profiles"):
            refined_k(model_a)

    def test_phi_frozen(self, model_b, model_c):
        kc = refined_k(model_c)
        assert refined_phi(model_c, kc, 2.0) == pytest.approx(
            PHI_C_AT_2, rel=1e-12
        )
        kb = refined_k(model_b)
        assert refined_phi(model_b, kb, 1.0) == pytest.approx(
            PHI_B_AT_1, rel=1e-12
        )

    def test_phi_dot_frozen(self, model_b, model_c):
        kc = refined_k(model_c)
        assert refined_phi_dot(model_c, kc, 1.5) == pytest.approx(
            PHIDOT_C_AT_15, rel=1e-12
        )
        kb = refined_k(model_b)
        assert refined_phi_dot(model_b, kb, 1.5) == pytest.approx(
            PHIDOT_B_AT_15, rel=1e-13
        )

    def test_phi_dot_zero_at_inner_radius(self, model_c):
        # the natural k choice makes the weight vanish at the inner radius
        k = refined_k(model_c)
        assert refined_phi_dot(model_c, k, model_c.r_i) == 0.0

    def test_phi_dot_zero_at_inner_radius_random(self):
        # K(r_i) in refined_k and K(psi) in refined_phi_dot take the same log,
        # so the weight vanishes exactly, not to an ulp of K
        rng = np.random.default_rng(5)
        for _ in range(3000):
            p = random_decreasing(rng)
            assert refined_phi_dot(p, refined_k(p), np.array([p.r_i]))[0] == 0.0

    def test_phi_dot_nonnegative(self, model_b, model_c):
        rng = np.random.default_rng(31)
        for p in (model_b, model_c):
            k = refined_k(p)
            r = rng.uniform(p.r_i, p.r_o, size=512)
            assert np.min(refined_phi_dot(p, k, r)) >= -1e-12

    def test_singular_radius_raises(self, model_c):
        # M - psi^2 = 0 at psi = 1 for this model
        with pytest.raises(SingularEvaluationError):
            refined_phi(model_c, 0.0, 1.0)
        with pytest.raises(SingularEvaluationError):
            refined_phi_dot(model_c, 0.0, 1.0)

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["increasing", "decreasing", "B", "D"]),
           offset=st.integers(0, 24))
    @settings(max_examples=100, deadline=None)
    def test_guard_matches_band(self, seed, model, offset, model_b, model_d):
        # Walk psi one ulp at a time across each edge of the singular band
        # |M - psi^2| = SINGULAR_CUTOFF * max(1, M): refined_phi_dot raises
        # exactly where degenerate_band marks psi, and never on the nodes the
        # identity checks keep, whose band is wider.
        rng = np.random.default_rng(seed)
        gens = {"increasing": random_increasing, "decreasing": random_decreasing}
        p = gens[model](rng) if model in gens else {"B": model_b, "D": model_d}[model]
        cut = SINGULAR_CUTOFF * max(1.0, p.M)
        edges = [np.sqrt(p.M + cut)] + ([np.sqrt(p.M - cut)] if p.M > cut else [])
        for edge in edges:
            start = edge
            for _ in range(40 + offset):
                start = np.nextafter(start, 0.0)
            walk = [start]
            for _ in range(80):
                walk.append(np.nextafter(walk[-1], np.inf))
            band = degenerate_band(p, np.array(walk))
            assert band.any() and not band.all()
            for psi, inside in zip(walk, band):
                if inside:
                    with pytest.raises(SingularEvaluationError):
                        refined_phi_dot(p, 0.0, psi)
                else:
                    assert np.isfinite(refined_phi_dot(p, 0.0, psi))
            keep = ~degenerate_band(p, np.array(walk), DEFAULT_TRUNCATION)
            refined_phi_dot(p, 0.0, np.array(walk)[keep])
        if p.case is ProblemCase.DECREASING_COVERED:
            assert refined_k_at(p, p.r_i) == refined_k(p)

    @given(k=st.floats(-10, 10), t=st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_phi_identity_any_k(self, k, t):
        # (2*phi - 4*u) / phi_dot equals the model gradient square for any k
        p = ModelParams(L=0.0, M=1.0, r_i=1.2, r_o=2.0)
        r = p.r_i + t * (p.r_o - p.r_i)
        pd = refined_phi_dot(p, k, r)
        if abs(pd) < 1e-3:
            return
        lhs = (2 * refined_phi(p, k, r) - 4 * model_u(p, r)) / pd
        assert lhs == pytest.approx(model_gradient_sq(p, r), rel=1e-6)
