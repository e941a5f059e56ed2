"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
test asserts the stated tolerance and, where one is given, the runtime
budget, using fixed seeds throughout.
"""

import time
import warnings

import numpy as np

from serrin import (
    BoundaryData,
    DomainSpec,
    FourierCurve,
    ModelParams,
    ProblemCase,
    boundary_data_of,
    build_grid,
    classify_case,
    compatibility,
    fit_model,
    integrate_area,
    manufactured_field,
    mms_convergence,
    model_u,
    refined_k,
    refined_phi_dot,
    solve_dirichlet,
)
from serrin.verify import (
    area_bound_check,
    degenerate_expansion_check,
    divergence_identity_residual,
    gradient_bound_margin,
    neumann_constancy,
    pohozaev_residual,
    refined_pohozaev_check,
)
from serrin import neumann_trace
from conftest import random_decreasing, random_increasing

MODEL_A = ModelParams(L=0.0, M=4.0, r_i=1.0, r_o=1.5)
MODEL_B = ModelParams(L=2.0, M=0.0, r_i=1.0, r_o=2.0)
MODEL_C = ModelParams(L=0.0, M=1.0, r_i=1.2, r_o=2.0)
MODEL_D = ModelParams(L=0.0, M=1.0, r_i=1.0, r_o=2.0)

# exact radial integral of 4u over the model-A annulus
INT4U_A = 1.6783766859991517


def solve_model(params, ns, ntheta):
    spec = DomainSpec.circles(params.r_i, params.r_o)
    grid = build_grid(spec, ns, ntheta)
    data = boundary_data_of(params)
    field, _ = solve_dirichlet(grid, -2.0, data.a, data.b)
    return grid, field, data


def test_criterion_01_model_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for gen in (random_increasing, random_decreasing):
            for _ in range(10_000):
                p = gen(rng)
                d = boundary_data_of(p)
                q = fit_model(d)
                assert abs(compatibility(d, q.M)) <= 1e-10
                for x, y in ((p.L, q.L), (p.M, q.M),
                             (p.r_i, q.r_i), (p.r_o, q.r_o)):
                    assert abs(x - y) <= 1e-6 * max(1e-12, abs(x))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS: criterion 1: fit round-trips 2x10^4 random models "
          f"(rel 1e-6, |F| <= 1e-10) in {elapsed:.1f}s")


def test_criterion_02_classifier_soundness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    # every valid model satisfies the sign conditions with its case tag
    for gen, expected in ((random_increasing, ProblemCase.INCREASING),
                          (random_decreasing, ProblemCase.DECREASING_COVERED)):
        for _ in range(500):
            d = boundary_data_of(gen(rng))
            assert 4 * d.a + d.alpha**2 > 4 * d.b + d.beta**2
            assert classify_case(d) is expected
    # fuzz: the classifier accepts exactly the sign-condition region
    vals = rng.uniform(-5.0, 5.0, size=(100_000, 4))
    for a, b, al, be in vals:
        got = classify_case(BoundaryData(a=a, b=b, alpha=al, beta=be))
        gap = 4 * a + al * al - (4 * b + be * be)
        if a < b and al < 0 and be >= 0 and gap > 0:
            want = ProblemCase.INCREASING
        elif a > b and al >= 0 and be < 0 and gap > 0:
            if 2 * a + al * al <= 2 * b + be * be:
                want = ProblemCase.DECREASING_COVERED
            else:
                want = ProblemCase.DECREASING_UNCOVERED
        else:
            want = ProblemCase.INADMISSIBLE
        assert got is want
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS: criterion 2: classifier matches the sign conditions on "
          f"10^5 fuzz samples in {elapsed:.1f}s")


def test_criterion_03_solver_convergence():
    t0 = time.perf_counter()
    orders = {}
    for name, p in (("A", MODEL_A), ("C", MODEL_C)):
        spec = DomainSpec.circles(p.r_i, p.r_o)
        res = mms_convergence(spec, manufactured_field("model", p),
                              [33, 65, 129])
        assert abs(res.order_linf - 2.0) <= 0.3
        orders[name] = res.order_linf
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS: criterion 3: solver converges at order "
          f"{orders['A']:.2f}/{orders['C']:.2f} (2.0 +- 0.3) in {elapsed:.1f}s")


def test_criterion_04_gradient_bound():
    worst = -np.inf
    for p in (MODEL_A, MODEL_C):
        margins = []
        for n in (65, 129):
            grid, field, _ = solve_model(p, n, n)
            margins.append(gradient_bound_margin(field, p)[0])
        assert margins[1] <= 5e-3
        worst = max(worst, margins[1])
        # margin shrinks at least linearly under one refinement
        assert abs(margins[0]) / max(abs(margins[1]), 1e-300) >= 2.0
    print(f"PASS: criterion 4: gradient bound margin <= 5e-3 at 129^2 "
          f"(worst {worst:.2e}), refining at order >= 1")


def test_criterion_05_area_balance():
    worst = 0.0
    for p in (MODEL_A, MODEL_B, MODEL_C):
        grid, field, data = solve_model(p, 129, 128)
        res = pohozaev_residual(field, data)
        worst = max(worst, abs(res))
        assert abs(res) <= 5e-3
    grid, field, _ = solve_model(MODEL_A, 129, 128)
    quad = integrate_area(grid, 4.0 * field.values)
    assert abs(quad - INT4U_A) <= 5e-3
    print(f"PASS: criterion 5: area balance residual <= 5e-3 on three models "
          f"(worst {worst:.2e}); quadrature matches the exact radial integral")


def test_criterion_06_divergence_identity():
    grid, field, _ = solve_model(MODEL_A, 129, 128)
    res = divergence_identity_residual(field, MODEL_A)
    assert abs(res.inner_term - 2 * np.pi) <= 1e-3
    assert abs(res.outer_term - 2 * np.pi) <= 1e-3
    assert abs(res.interior) <= 1e-2
    print(f"PASS: criterion 6: divergence identity boundary terms "
          f"2pi +- 1e-3, interior {res.interior:.2e} <= 1e-2")


def test_criterion_07_refined_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for p in (MODEL_B, MODEL_C):
        grid, field, _ = solve_model(p, 129, 128)
        res = refined_pohozaev_check(field, p)
        worst = max(worst, abs(res.identity_residual))
        assert abs(res.identity_residual) <= 2e-2
        # weight density stays nonnegative at 10^4 sampled radii
        k = refined_k(p)
        r = rng.uniform(p.r_i, p.r_o, size=10_000)
        assert np.min(refined_phi_dot(p, k, r)) >= -1e-12
        # the two closed forms of the constant agree
        k1 = (4 * p.M * p.r_i**2 - p.r_i**4
              - 4 * p.M**2 * np.log(p.r_i))
        d = boundary_data_of(p)
        k2 = (4 * p.L * p.M + p.M**2 - 4 * d.a * p.M
              - d.alpha**2 * p.r_i**2)
        assert abs(k1 - k2) <= 1e-10 * max(1.0, abs(k1))
        assert abs(k - k1) <= 1e-10 * max(1.0, abs(k1))
    print(f"PASS: criterion 7: refined identity residual <= 2e-2 "
          f"(worst {worst:.2e}); weight nonnegative; k forms agree to 1e-10")


def test_criterion_08_area_bounds_and_turning():
    for p in (MODEL_A, MODEL_B, MODEL_C, MODEL_D):
        spec = DomainSpec.circles(p.r_i, p.r_o)
        m_in, m_out = area_bound_check(spec, p)
        assert abs(m_in) <= 1e-8
        assert abs(m_out) <= 1e-8
    rng = np.random.default_rng(808)
    for _ in range(100):
        deg = int(rng.integers(1, 9))
        amp = 0.3 / deg**2
        curve = FourierCurve(
            c0=1.0,
            cos_coeffs=tuple(rng.uniform(-amp, amp, deg)),
            sin_coeffs=tuple(rng.uniform(-amp, amp, deg)),
        )
        DomainSpec(inner=curve, outer=FourierCurve(c0=3.0))
        assert abs(curve.total_turning() - 2 * np.pi) <= 1e-8
    print("PASS: criterion 8: circular scenarios meet the length equalities "
          "within 1e-8; total turning is 2pi within 1e-8 on 100 random domains")


def test_criterion_09_rigidity_contrapositive():
    data = boundary_data_of(MODEL_A)
    t0 = time.perf_counter()
    sds = []
    for eps in (0.0, 0.025, 0.05, 0.1):
        inner = FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, eps))
        spec = DomainSpec(inner=inner, outer=FourierCurve(c0=MODEL_A.r_o))
        grid = build_grid(spec, 129, 129)
        field, _ = solve_dirichlet(grid, -2.0, data.a, data.b)
        sd_in = neumann_constancy(neumann_trace(field, "inner"),
                                  grid.arc_weights("inner")).sd
        sd_out = neumann_constancy(neumann_trace(field, "outer"),
                                   grid.arc_weights("outer")).sd
        sds.append(max(sd_in, sd_out))
    elapsed = time.perf_counter() - t0
    assert sds[0] <= 1e-2
    for lo, hi in zip(sds, sds[1:]):
        assert hi > lo
    assert elapsed < 120.0
    print(f"PASS: criterion 9: Neumann deviation {sds[0]:.1e} -> "
          f"{sds[-1]:.3f} strictly increasing with asymmetry in {elapsed:.1f}s")


def test_criterion_10_degenerate_expansion():
    grid, field, _ = solve_model(MODEL_D, 257, 257)
    res = degenerate_expansion_check(field)
    assert res is not None
    assert res.boundary == "inner"
    assert abs(res.coefficient + 1.0) <= 0.1
    print(f"PASS: criterion 10: quadratic expansion coefficient "
          f"{res.coefficient:.4f} within -1 +- 0.1 at 257^2")
