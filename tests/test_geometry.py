"""Tests for Fourier boundary curves, domain specs and the blended grid."""

import dataclasses
import json

import numpy as np
import pytest

from serrin import (
    DomainSpec,
    FourierCurve,
    InvalidDomainError,
    InvalidInputError,
    boundary_length,
    build_grid,
    integrate_area,
    integrate_boundary,
    model_u,
    region_areas,
)
from serrin.geometry import CURVE_ANGLES

WAVY = FourierCurve(c0=1.0, cos_coeffs=(0.0, 0.0, 0.1))
WAVY_LEN = 6.4225893330511004
WAVY_KAPPA_0 = 1.652892561983471
INT4U_A = 1.6783766859991517


def wavy_domain():
    return DomainSpec(inner=WAVY, outer=FourierCurve(c0=2.0))


class TestFourierCurve:
    def test_radius_series(self):
        c = FourierCurve(c0=1.5, cos_coeffs=(0.2,), sin_coeffs=(0.0, 0.1))
        th = 0.7
        expected = 1.5 + 0.2 * np.cos(th) + 0.1 * np.sin(2 * th)
        assert c.radius(th) == pytest.approx(expected, rel=1e-15)

    def test_derivatives_match_fd(self):
        c = FourierCurve(c0=1.2, cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, 0.08))
        th = np.linspace(0, 2 * np.pi, 11)
        h = 1e-6
        fd1 = (c.radius(th + h) - c.radius(th - h)) / (2 * h)
        fd2 = (c.radius(th + h) - 2 * c.radius(th) + c.radius(th - h)) / h**2
        assert c.radius_prime(th) == pytest.approx(fd1, abs=1e-8)
        assert c.radius_second(th) == pytest.approx(fd2, abs=1e-3)

    def test_series_terms_in_closed_form(self):
        # radius and radius_prime add the cos terms, then the sin terms, each
        # as (+-coefficient * n) * f(n theta), so they match these sums bit
        # for bit; radius_second may differ in its last bits.
        c = FourierCurve(c0=1.0, cos_coeffs=(0.1, -0.03, 0.02), sin_coeffs=(0.05, 0.0, -0.01, 0.004))
        th = np.linspace(-3.0, 9.0, 301)
        r, dr, ddr = np.zeros_like(th), np.zeros_like(th), np.zeros_like(th)
        for n, v in enumerate(c.cos_coeffs, start=1):
            r += v * np.cos(n * th)
            dr += -v * n * np.sin(n * th)
            ddr += -v * n * n * np.cos(n * th)
        for n, v in enumerate(c.sin_coeffs, start=1):
            r += v * np.sin(n * th)
            dr += v * n * np.cos(n * th)
            ddr += -v * n * n * np.sin(n * th)
        assert np.array_equal(c.radius(th), 1.0 + r)
        assert np.array_equal(c.radius_prime(th), dr)
        assert c.radius_second(th) == pytest.approx(ddr, rel=1e-14, abs=1e-15)

    def test_zero_padding_keeps_the_bytes(self):
        # Zero coefficients are skipped, which must not move a bit: the same
        # curve with its tuples padded by zeros to the degree cap, and with a
        # zero between its terms, evaluates to the same bytes at every order.
        th = np.r_[0.0, -np.pi, np.linspace(-3.0, 9.0, 301)]
        cos_coeffs, sin_coeffs = (0.1, 0.0, -0.03), (-0.05, 0.0, 0.0, 0.004)
        plain = FourierCurve(c0=1.0, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)
        padded = FourierCurve(c0=1.0, cos_coeffs=cos_coeffs + (0.0,) * 13,
                              sin_coeffs=sin_coeffs + (-0.0,) * 12)
        for order in ("radius", "radius_prime", "radius_second"):
            assert getattr(plain, order)(th).tobytes() == getattr(padded, order)(th).tobytes()

    def test_degree_cap(self):
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=1.0, cos_coeffs=(0.0,) * 17)

    @pytest.mark.parametrize("c0", [np.inf, -np.inf, np.nan])
    def test_nonfinite_mean_radius_rejected(self, c0):
        with pytest.raises(InvalidDomainError, match="c0 must be finite"):
            FourierCurve(c0=c0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=0.05, cos_coeffs=(0.2,))

    def test_overflowing_radius_rejected(self):
        # the radius would overflow to inf on some angles
        # (and without an overflow warning, which the test settings make an error)
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=1.5e308, cos_coeffs=(0.5e308,))
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=1.0, sin_coeffs=(1e308,) * 2)
        # the speed and the solver's stencil square the radius and its
        # derivative: rho^2, then rho'^2, overflows although rho is finite
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=1e155)
        with pytest.raises(InvalidDomainError):
            FourierCurve(c0=1e153, cos_coeffs=(0.0,) * 15 + (0.9e153,))
        assert FourierCurve(c0=1e154).speed(0.0) == pytest.approx(1e154)

    def test_point_and_speed(self):
        c = WAVY
        th = 1.1
        x, y = c.point(th)
        assert x == pytest.approx(c.radius(th) * np.cos(th), rel=1e-14)
        assert y == pytest.approx(c.radius(th) * np.sin(th), rel=1e-14)
        sp = np.hypot(c.radius(th), c.radius_prime(th))
        assert c.speed(th) == pytest.approx(sp, rel=1e-14)

    def test_length_circle_and_frozen(self):
        assert FourierCurve(c0=1.5).length() == pytest.approx(
            2 * np.pi * 1.5, rel=1e-12
        )
        assert WAVY.length() == pytest.approx(WAVY_LEN, rel=1e-12)
        # already resolved at 8192 samples
        th = np.arange(65536) * (2 * np.pi / 65536)
        fine = np.sum(WAVY.speed(th)) * (2 * np.pi / 65536)
        assert fine == pytest.approx(WAVY.length(), rel=1e-13)

    def test_curve_angles_are_fixed(self):
        # every second angle is the 4,096-angle validation sample, and no
        # caller can move the samples that every curve check reads
        assert np.array_equal(CURVE_ANGLES[::2],
                              np.linspace(0.0, 2 * np.pi, 4096, endpoint=False))
        with pytest.raises(ValueError):
            CURVE_ANGLES[1] = 0.0

    def test_curvature(self):
        assert FourierCurve(c0=2.0).curvature(0.3) == pytest.approx(0.5, rel=1e-14)
        assert WAVY.curvature(0.0) == pytest.approx(WAVY_KAPPA_0, rel=1e-12)

    def test_curvature_against_parametric_fd(self):
        c = FourierCurve(c0=1.3, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.07))
        h = 1e-5
        for th in (0.0, 0.9, 2.5, 4.4):
            pts = np.array([c.point(th - h), c.point(th), c.point(th + h)])
            d1 = (pts[2] - pts[0]) / (2 * h)
            d2 = (pts[2] - 2 * pts[1] + pts[0]) / h**2
            kappa = (d1[0] * d2[1] - d1[1] * d2[0]) / np.hypot(*d1) ** 3
            assert c.curvature(th) == pytest.approx(kappa, rel=1e-4)

    def test_total_turning(self):
        assert WAVY.total_turning() == pytest.approx(2 * np.pi, abs=1e-10)
        rng = np.random.default_rng(5)
        for _ in range(25):
            deg = rng.integers(1, 9)
            amp = 0.3 / deg**2
            c = FourierCurve(
                c0=1.0,
                cos_coeffs=tuple(rng.uniform(-amp, amp, deg)),
                sin_coeffs=tuple(rng.uniform(-amp, amp, deg)),
            )
            assert c.total_turning() == pytest.approx(2 * np.pi, abs=1e-8)

    def test_enclosed_area_closed_form(self):
        assert WAVY.enclosed_area() == pytest.approx(
            np.pi * (1.0 + 0.01 / 2), rel=1e-14
        )

    def test_dict_round_trip(self):
        c = FourierCurve(c0=1.4, cos_coeffs=(0.1, 0.02), sin_coeffs=(0.0, 0.0, 0.03))
        d = c.to_dict()
        assert d == {"c0": 1.4, "cos": [0.1, 0.02], "sin": [0.0, 0.0, 0.03]}
        assert FourierCurve(d["c0"], d["cos"], d["sin"]) == c


class TestDomainSpec:
    def test_circles(self):
        spec = DomainSpec.circles(1.0, 1.5)
        assert spec.inner.radius(0.3) == 1.0
        assert spec.outer.radius(2.0) == 1.5

    def test_crossing_rejected(self):
        with pytest.raises(InvalidDomainError):
            DomainSpec(
                inner=FourierCurve(c0=1.0, cos_coeffs=(0.4,)),
                outer=FourierCurve(c0=1.2),
            )

    def test_hash_stability_and_change(self):
        spec = wavy_domain()
        h1 = spec.spec_hash()
        h2 = wavy_domain().spec_hash()
        assert h1 == h2
        assert len(h1) == 12
        other = DomainSpec(inner=FourierCurve(c0=1.0), outer=FourierCurve(c0=2.0))
        assert other.spec_hash() != h1

    def test_canonical_json_parses(self):
        spec = wavy_domain()
        assert json.loads(spec.canonical_json()) == spec.to_dict()


class TestGrid:
    def test_node_positions_on_circles(self):
        g = build_grid(DomainSpec.circles(1.0, 1.5), 9, 16)
        # mid-sheet node at theta = 0 sits at the blended radius
        mid = (9 - 1) // 2
        assert g.x[mid, 0] == pytest.approx(1.25, rel=1e-15)
        assert g.y[mid, 0] == pytest.approx(0.0, abs=1e-15)
        r = np.hypot(g.x, g.y)
        assert r[0, :] == pytest.approx(np.ones(16), rel=1e-15)
        assert r[-1, :] == pytest.approx(1.5 * np.ones(16), rel=1e-15)

    def test_jacobian_positive(self):
        g = build_grid(wavy_domain(), 17, 32)
        assert np.all(g.jac > 0)

    def test_minimum_sizes(self):
        spec = DomainSpec.circles(1.0, 2.0)
        with pytest.raises(InvalidInputError):
            build_grid(spec, 8, 16)
        with pytest.raises(InvalidInputError):
            build_grid(spec, 9, 15)
        with pytest.raises(InvalidInputError):
            build_grid(spec, 9.5, 16)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sizes_rejected(self, size):
        spec = DomainSpec.circles(1.0, 2.0)
        with pytest.raises(InvalidInputError):
            build_grid(spec, size, 16)
        with pytest.raises(InvalidInputError):
            build_grid(spec, 9, size)

    def test_overflowing_jacobian_rejected(self):
        # r * r_s would overflow to inf although both radii are finite; the
        # curves' own bound check, which bounds r * r_s too, rejects them first
        with pytest.raises(InvalidDomainError):
            build_grid(DomainSpec.circles(1e200, 2e200), 9, 16)

    def test_area_weights_exact_on_constant(self):
        g = build_grid(wavy_domain(), 17, 48)
        e_i, e_o, omega = region_areas(wavy_domain())
        assert integrate_area(g, np.ones_like(g.x)) == pytest.approx(
            omega, rel=1e-12
        )

    def test_integrate_area_rejects_wrong_shape(self):
        g = build_grid(wavy_domain(), 17, 48)
        with pytest.raises(InvalidInputError, match="does not match grid"):
            integrate_area(g, np.ones((17, 47)))

    def test_frozen_with_read_only_arrays(self):
        g = build_grid(wavy_domain(), 9, 16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.ns = 17
        arrays = [g.theta, g.x, g.y, g.jac, g.area_w, *g.arc_w, *g.normal]
        assert not any(arr.flags.writeable for arr in arrays)

    def test_region_areas_frozen(self):
        e_i, e_o, omega = region_areas(wavy_domain())
        assert e_i == pytest.approx(3.1573006168577422, rel=1e-13)
        assert e_o == pytest.approx(4 * np.pi, rel=1e-13)
        assert omega == pytest.approx(e_o - e_i, rel=1e-13)

    def test_boundary_length(self):
        spec = DomainSpec.circles(1.0, 1.5)
        assert boundary_length(spec, "inner") == pytest.approx(
            2 * np.pi, rel=1e-12
        )
        assert boundary_length(spec, "outer") == pytest.approx(
            3 * np.pi, rel=1e-12
        )
        assert boundary_length(wavy_domain(), "inner") == pytest.approx(
            WAVY_LEN, rel=1e-12
        )
        grid = build_grid(spec, 9, 16)
        for lookup in (lambda w: boundary_length(spec, w), spec.curve, grid.row):
            with pytest.raises(InvalidInputError, match="which must be"):
                lookup("middle")

    def test_arc_weights_sum_to_length(self):
        g = build_grid(wavy_domain(), 17, 256)
        assert np.sum(g.arc_weights("inner")) == pytest.approx(
            WAVY_LEN, rel=1e-6
        )
        assert np.sum(g.arc_weights("outer")) == pytest.approx(
            4 * np.pi, rel=1e-8
        )

    def test_integrate_boundary_constant(self):
        g = build_grid(wavy_domain(), 17, 128)
        got = integrate_boundary(g, np.ones(128), "inner")
        assert got == pytest.approx(np.sum(g.arc_weights("inner")), rel=1e-14)
        with pytest.raises(InvalidInputError):
            integrate_boundary(g, np.ones(7), "inner")

    def test_normals_on_circles(self):
        g = build_grid(DomainSpec.circles(1.0, 2.0), 9, 32)
        n_in = g.outward_normal("inner")
        n_out = g.outward_normal("outer")
        th = g.theta
        # outward from the domain: toward the origin on the inner boundary
        assert n_in[0] == pytest.approx(-np.cos(th), abs=1e-14)
        assert n_in[1] == pytest.approx(-np.sin(th), abs=1e-14)
        assert n_out[0] == pytest.approx(np.cos(th), abs=1e-14)
        assert n_out[1] == pytest.approx(np.sin(th), abs=1e-14)

    def test_normals_unit_and_oriented(self):
        g = build_grid(wavy_domain(), 9, 64)
        for which, sign in (("inner", -1.0), ("outer", 1.0)):
            n = g.outward_normal(which)
            assert np.hypot(n[0], n[1]) == pytest.approx(np.ones(64), rel=1e-13)
            radial = n[0] * g.x[g.row(which)] + n[1] * g.y[g.row(which)]
            assert np.all(sign * radial > 0)

    def test_boundary_samples_are_the_curves(self):
        # rows, arc weights and normals sample each curve bit for bit
        spec = DomainSpec(
            inner=FourierCurve(c0=1.0, cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.02, 0.03)),
            outer=FourierCurve(c0=2.0, cos_coeffs=(0.0, 0.1), sin_coeffs=(0.05,)),
        )
        g = build_grid(spec, 9, 48)
        th = g.theta
        for which, sign in (("inner", -1.0), ("outer", 1.0)):
            curve = spec.curve(which)
            assert curve is getattr(spec, which)
            x, y = curve.point(th)
            assert np.array_equal(g.x[g.row(which)], x) and np.array_equal(g.y[g.row(which)], y)
            assert np.array_equal(g.arc_weights(which), curve.speed(th) * g.dtheta)
            rho, dp = curve.radius(th), curve.radius_prime(th)
            tx = dp * np.cos(th) - rho * np.sin(th)
            ty = dp * np.sin(th) + rho * np.cos(th)
            unit = np.stack([ty, -tx]) / np.hypot(tx, ty)
            assert np.array_equal(g.outward_normal(which), sign * unit)

    def test_quadrature_order_on_curved_integrand(self, model_a):
        # area rule is nominally second order; measure on a smooth integrand
        spec = DomainSpec.circles(model_a.r_i, model_a.r_o)
        errs = []
        for ns in (17, 33, 65):
            g = build_grid(spec, ns, 64)
            val = integrate_area(g, 4.0 * model_u(model_a, np.hypot(g.x, g.y)))
            errs.append(abs(val - INT4U_A))
        slope = np.polyfit(
            np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1
        )[0]
        assert 1.7 <= slope <= 2.3
