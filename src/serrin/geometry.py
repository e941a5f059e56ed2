"""Star-shaped Fourier boundary curves and curvilinear annular grids.

Domains are doubly connected regions between two closed curves given in
polar form ``rho(theta) = c0 + sum_n (c_n cos(n theta) + s_n sin(n theta))``
with harmonic degree at most 16.  Grids map the reference rectangle
``[0,1] x [0,2pi)`` onto the domain by linear blending of the two radii, and
carry the metric coefficients, quadrature weights and boundary normals that
the solver and the identity checks consume.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, InvalidInputError

MAX_DEGREE = 16
_VALIDATION_SAMPLES = 4096


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_coeffs(name, coeffs):
    vals = tuple(float(v) for v in coeffs)
    if len(vals) > MAX_DEGREE:
        raise InvalidDomainError(
            f"{name} harmonics above degree {MAX_DEGREE} are not supported"
        )
    if not all(math.isfinite(v) for v in vals):
        raise InvalidDomainError(f"{name} coefficients must be finite")
    return vals


@dataclass(frozen=True)
class FourierCurve:
    """Closed star-shaped curve ``rho(theta)`` as a truncated Fourier series.

    ``cos_coeffs[n-1]`` and ``sin_coeffs[n-1]`` are the coefficients of
    ``cos(n theta)`` and ``sin(n theta)``.  The radius must stay positive;
    this is checked on a fine sample at construction.
    """

    c0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        c0 = float(self.c0)
        if not math.isfinite(c0):
            raise InvalidDomainError("c0 must be finite")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "cos_coeffs", _check_coeffs("cos", self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", _check_coeffs("sin", self.sin_coeffs))
        th = np.linspace(0.0, 2 * np.pi, _VALIDATION_SAMPLES, endpoint=False)
        if np.min(self.radius(th)) <= 0:
            raise InvalidDomainError("curve radius must be positive for all angles")

    def _series(self, theta, order):
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for n, c in enumerate(self.cos_coeffs, start=1):
            if order == 0:
                out += c * np.cos(n * th)
            elif order == 1:
                out += -c * n * np.sin(n * th)
            else:
                out += -c * n * n * np.cos(n * th)
        for n, s in enumerate(self.sin_coeffs, start=1):
            if order == 0:
                out += s * np.sin(n * th)
            elif order == 1:
                out += s * n * np.cos(n * th)
            else:
                out += -s * n * n * np.sin(n * th)
        return out

    def radius(self, theta):
        return self.c0 + self._series(theta, 0)

    def radius_prime(self, theta):
        return self._series(theta, 1)

    def radius_second(self, theta):
        return self._series(theta, 2)

    def point(self, theta):
        """Cartesian point(s) on the curve."""
        th = np.asarray(theta, dtype=float)
        rho = self.radius(th)
        return rho * np.cos(th), rho * np.sin(th)

    def speed(self, theta):
        """Parametric speed ``sqrt(rho^2 + rho'^2)``."""
        rho = self.radius(theta)
        dp = self.radius_prime(theta)
        return np.sqrt(rho * rho + dp * dp)

    def curvature(self, theta):
        """Signed curvature of the polar graph (positive for convex arcs).

        Uses ``(rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)``.
        """
        rho = self.radius(theta)
        dp = self.radius_prime(theta)
        ddp = self.radius_second(theta)
        num = rho * rho + 2 * dp * dp - rho * ddp
        den = (rho * rho + dp * dp) ** 1.5
        return num / den

    def length(self, n: int = 8192) -> float:
        """Arc length by the periodic trapezoid rule on ``n`` samples."""
        th = np.arange(n) * (2 * np.pi / n)
        return float(np.sum(self.speed(th)) * (2 * np.pi / n))

    def total_turning(self, n: int = 4096) -> float:
        """Integral of curvature against arc length (2*pi for embedded curves)."""
        th = np.arange(n) * (2 * np.pi / n)
        return float(np.sum(self.curvature(th) * self.speed(th)) * (2 * np.pi / n))

    def enclosed_area(self) -> float:
        """Area enclosed by the curve, exact for the truncated series."""
        sq = sum(c * c for c in self.cos_coeffs) + sum(s * s for s in self.sin_coeffs)
        return math.pi * self.c0 * self.c0 + 0.5 * math.pi * sq

    def to_dict(self):
        return {
            "c0": self.c0,
            "cos": list(self.cos_coeffs),
            "sin": list(self.sin_coeffs),
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "c0" not in d:
            raise InvalidDomainError("curve dictionary must provide 'c0'")
        extra = set(d) - {"c0", "cos", "sin"}
        if extra:
            raise InvalidDomainError(f"unknown curve keys: {sorted(extra)}")
        if not _is_real(d["c0"]):
            raise InvalidDomainError(f"curve 'c0' must be a number, got {d['c0']!r}")
        for key in ("cos", "sin"):
            coeffs = d.get(key, [])
            if not isinstance(coeffs, list) or not all(map(_is_real, coeffs)):
                raise InvalidDomainError(f"curve '{key}' must be a list of numbers")
        return cls(
            c0=d["c0"],
            cos_coeffs=tuple(d.get("cos", ())),
            sin_coeffs=tuple(d.get("sin", ())),
        )


@dataclass(frozen=True)
class DomainSpec:
    """Doubly connected domain between two star-shaped curves.

    The outer radius must exceed the inner radius at every angle; checked on
    a fine sample at construction.
    """

    inner: FourierCurve
    outer: FourierCurve

    def __post_init__(self):
        th = np.linspace(0.0, 2 * np.pi, _VALIDATION_SAMPLES, endpoint=False)
        gap = self.outer.radius(th) - self.inner.radius(th)
        if np.min(gap) <= 0:
            raise InvalidDomainError(
                "outer curve must stay strictly outside the inner curve"
            )

    @classmethod
    def circles(cls, r_i: float, r_o: float) -> "DomainSpec":
        return cls(inner=FourierCurve(c0=r_i), outer=FourierCurve(c0=r_o))

    def to_dict(self):
        return {"inner": self.inner.to_dict(), "outer": self.outer.to_dict()}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or set(d) != {"inner", "outer"}:
            raise InvalidDomainError("domain dictionary must have 'inner' and 'outer'")
        return cls(
            inner=FourierCurve.from_dict(d["inner"]),
            outer=FourierCurve.from_dict(d["outer"]),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable 12-hex-digit digest of the domain definition."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


@dataclass
class CurvGrid:
    """Structured grid on a doubly connected domain.

    Nodes are indexed ``(i, j)`` with ``i`` along the blending coordinate
    ``s`` (row 0 on the inner boundary, row ns-1 on the outer) and ``j``
    along the periodic angle.  Carries node coordinates, the analytic metric
    coefficients at flux interfaces, area and boundary quadrature weights,
    and outward unit normals on both boundaries.
    """

    spec: DomainSpec
    ns: int
    ntheta: int
    ds: float
    dtheta: float
    s: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    x: np.ndarray
    y: np.ndarray
    jac: np.ndarray
    area_w: np.ndarray
    coef_a: np.ndarray = field(repr=False)
    coef_b_s: np.ndarray = field(repr=False)
    coef_b_t: np.ndarray = field(repr=False)
    coef_c: np.ndarray = field(repr=False)
    inner_arc_w: np.ndarray = field(repr=False)
    outer_arc_w: np.ndarray = field(repr=False)
    inner_normal: np.ndarray = field(repr=False)
    outer_normal: np.ndarray = field(repr=False)

    def arc_weights(self, which: str) -> np.ndarray:
        if which == "inner":
            return self.inner_arc_w
        if which == "outer":
            return self.outer_arc_w
        raise InvalidInputError("which must be 'inner' or 'outer'")

    def outward_normal(self, which: str) -> np.ndarray:
        if which == "inner":
            return self.inner_normal
        if which == "outer":
            return self.outer_normal
        raise InvalidInputError("which must be 'inner' or 'outer'")


def _blend(rho_i, rho_o, s):
    return (1.0 - s[:, None]) * rho_i[None, :] + s[:, None] * rho_o[None, :]


def build_grid(spec: DomainSpec, ns: int, ntheta: int) -> CurvGrid:
    """Build the blended polar grid with ``ns`` rows and ``ntheta`` columns.

    Requires ``ns >= 9`` and ``ntheta >= 16``.  Raises
    :class:`InvalidDomainError` if the mapping Jacobian is not positive
    everywhere on the grid.
    """
    if int(ns) != ns or int(ntheta) != ntheta:
        raise InvalidInputError("grid sizes must be integers")
    ns, ntheta = int(ns), int(ntheta)
    if ns < 9 or ntheta < 16:
        raise InvalidInputError("grid needs ns >= 9 and ntheta >= 16")
    s = np.linspace(0.0, 1.0, ns)
    ds = 1.0 / (ns - 1)
    dtheta = 2 * np.pi / ntheta
    theta = np.arange(ntheta) * dtheta

    rho_i = spec.inner.radius(theta)
    rho_o = spec.outer.radius(theta)
    drho_i = spec.inner.radius_prime(theta)
    drho_o = spec.outer.radius_prime(theta)

    r = _blend(rho_i, rho_o, s)
    r_s = (rho_o - rho_i)[None, :]
    r_t = _blend(drho_i, drho_o, s)
    x = r * np.cos(theta)[None, :]
    y = r * np.sin(theta)[None, :]
    jac = r * r_s
    if np.min(jac) <= 0:
        raise InvalidDomainError("grid Jacobian is not positive")

    # Flux coefficients at s-interfaces (i+1/2, j); r is linear in s so the
    # analytic half value equals the node average.
    s_half = 0.5 * (s[:-1] + s[1:])
    r_sh = _blend(rho_i, rho_o, s_half)
    rt_sh = _blend(drho_i, drho_o, s_half)
    coef_a = (rt_sh * rt_sh + r_sh * r_sh) / (r_sh * r_s)
    coef_b_s = -rt_sh / r_sh

    # Flux coefficients at theta-interfaces (i, j+1/2).
    theta_half = theta + 0.5 * dtheta
    rho_i_h = spec.inner.radius(theta_half)
    rho_o_h = spec.outer.radius(theta_half)
    drho_i_h = spec.inner.radius_prime(theta_half)
    drho_o_h = spec.outer.radius_prime(theta_half)
    r_th = _blend(rho_i_h, rho_o_h, s)
    rt_th = _blend(drho_i_h, drho_o_h, s)
    coef_b_t = -rt_th / r_th
    coef_c = (rho_o_h - rho_i_h)[None, :] / r_th

    ws = np.full(ns, ds)
    ws[0] = ws[-1] = 0.5 * ds
    area_w = jac * ws[:, None] * dtheta

    inner_arc_w = spec.inner.speed(theta) * dtheta
    outer_arc_w = spec.outer.speed(theta) * dtheta

    inner_normal = _outward_normal(spec.inner, theta, flip=True)
    outer_normal = _outward_normal(spec.outer, theta, flip=False)

    return CurvGrid(
        spec=spec, ns=ns, ntheta=ntheta, ds=ds, dtheta=dtheta, s=s, theta=theta,
        r=r, x=x, y=y, jac=jac, area_w=area_w,
        coef_a=coef_a, coef_b_s=coef_b_s, coef_b_t=coef_b_t, coef_c=coef_c,
        inner_arc_w=inner_arc_w, outer_arc_w=outer_arc_w,
        inner_normal=inner_normal, outer_normal=outer_normal,
    )


def _outward_normal(curve: FourierCurve, theta, flip: bool):
    # Right-hand normal of the counterclockwise parametrization points away
    # from the enclosed disk; the domain-outward normal on the inner boundary
    # is its negative.
    rho = curve.radius(theta)
    dp = curve.radius_prime(theta)
    tx = dp * np.cos(theta) - rho * np.sin(theta)
    ty = dp * np.sin(theta) + rho * np.cos(theta)
    norm = np.hypot(tx, ty)
    nx, ny = ty / norm, -tx / norm
    if flip:
        nx, ny = -nx, -ny
    return np.stack([nx, ny])


def boundary_length(spec: DomainSpec, which: str, n: int = 8192) -> float:
    """Arc length of one boundary component."""
    curve = spec.inner if which == "inner" else spec.outer if which == "outer" else None
    if curve is None:
        raise InvalidInputError("which must be 'inner' or 'outer'")
    return curve.length(n)


def boundary_curvature(spec: DomainSpec, which: str, theta):
    """Curvature of one boundary component at the given angles."""
    if which == "inner":
        return spec.inner.curvature(theta)
    if which == "outer":
        return spec.outer.curvature(theta)
    raise InvalidInputError("which must be 'inner' or 'outer'")


def region_areas(spec: DomainSpec):
    """Areas ``(inner disk, outer disk, domain)``, exact closed forms."""
    ei = spec.inner.enclosed_area()
    eo = spec.outer.enclosed_area()
    return ei, eo, eo - ei


def integrate_area(grid: CurvGrid, values) -> float:
    """Integrate node values over the domain with the grid's area weights.

    Trapezoid in ``s`` and periodic trapezoid in ``theta``; exact for
    integrands whose pullback is linear in ``s`` and band-limited in
    ``theta``, in particular for constants.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.area_w.shape:
        raise InvalidInputError(
            f"values shape {vals.shape} does not match grid {grid.area_w.shape}"
        )
    return float(np.sum(vals * grid.area_w))


def integrate_boundary(grid: CurvGrid, values, which: str) -> float:
    """Integrate per-angle values along one boundary component."""
    w = grid.arc_weights(which)
    vals = np.asarray(values, dtype=float)
    if vals.shape != w.shape:
        raise InvalidInputError("values must be a per-angle array")
    return float(np.sum(vals * w))
