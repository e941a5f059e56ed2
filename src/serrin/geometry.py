"""Star-shaped Fourier boundary curves and curvilinear annular grids.

Domains are doubly connected regions between two closed curves given in
polar form ``rho(theta) = c0 + sum_n (c_n cos(n theta) + s_n sin(n theta))``
with harmonic degree at most 16.  Grids map the reference rectangle
``[0,1] x [0,2pi)`` onto the domain by linear blending of the two radii
(:func:`blend_map`), and carry the node coordinates, quadrature weights and
boundary normals that the solver and the identity checks consume.  The
solver samples the blended map itself where its flux stencil needs it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, InvalidInputError

MAX_DEGREE = 16
# Whole-curve samples: all for arc length, every second one for total turning,
# for the validation each domain construction pays and for the starting points
# of the boundary-distance projection.
CURVE_ANGLES = np.arange(8192) * (2 * np.pi / 8192)
CURVE_ANGLES.flags.writeable = False
# d^k/dtheta^k of cos(n theta) and sin(n theta) is n^k * sign * f(n theta),
# with (sign, f) entry k of these rows.
_COS_DERIVATIVES = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos))
_SIN_DERIVATIVES = ((1.0, np.sin), (1.0, np.cos), (-1.0, np.sin))

# The two boundary components, in grid-row order.
SIDES = ("inner", "outer")


def _side(which) -> int:
    """Index of a side name in :data:`SIDES`; rejects any other name."""
    if which not in SIDES:
        raise InvalidInputError("which must be 'inner' or 'outer'")
    return SIDES.index(which)


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
    ``cos(n theta)`` and ``sin(n theta)``.  The radius must stay positive,
    which is checked on a fine sample at construction, and the coefficients'
    bound on ``rho^2 + rho'^2``, which the speed squares, must be finite.
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
        # |rho| <= bound and |rho'| <= slope; the stencil's r^2 + r_theta^2,
        # convex in s, is at most the larger of the two curves' rho^2 + rho'^2
        terms = [(n, abs(v)) for coeffs in (self.cos_coeffs, self.sin_coeffs)
                 for n, v in enumerate(coeffs, start=1)]
        bound = abs(c0) + sum(v for _, v in terms)
        slope = sum(n * v for n, v in terms)
        if not math.isfinite(bound * bound + slope * slope):
            raise InvalidDomainError("curve speed can overflow: its coefficients are too large")
        if not np.all(self.radius(CURVE_ANGLES[::2]) > 0):
            raise InvalidDomainError("curve radius must be positive for all angles")

    def _series(self, theta, order):
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for coeffs, rules in ((self.cos_coeffs, _COS_DERIVATIVES),
                              (self.sin_coeffs, _SIN_DERIVATIVES)):
            sign, f = rules[order]
            for n, v in enumerate(coeffs, start=1):
                if v:  # a zero term adds +-0.0, which leaves out's bits as they are
                    out += sign * v * n**order * f(n * th)
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

    def length(self) -> float:
        """Arc length by the periodic trapezoid rule on :data:`CURVE_ANGLES`."""
        return float(np.sum(self.speed(CURVE_ANGLES)) * CURVE_ANGLES[1])

    def total_turning(self) -> float:
        """Integral of curvature against arc length (2*pi for embedded curves),
        by the periodic trapezoid rule on every second of :data:`CURVE_ANGLES`."""
        th = CURVE_ANGLES[::2]
        return float(np.sum(self.curvature(th) * self.speed(th)) * th[1])

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


@dataclass(frozen=True)
class DomainSpec:
    """Doubly connected domain between two star-shaped curves.

    The outer radius must exceed the inner radius at every angle; checked on
    a fine sample at construction.
    """

    inner: FourierCurve
    outer: FourierCurve

    def __post_init__(self):
        gap = self.outer.radius(CURVE_ANGLES[::2]) - self.inner.radius(CURVE_ANGLES[::2])
        if not np.all(gap > 0):
            raise InvalidDomainError(
                "outer curve must stay strictly outside the inner curve"
            )

    def curve(self, which: str) -> FourierCurve:
        """The ``"inner"`` or ``"outer"`` boundary curve."""
        return (self.inner, self.outer)[_side(which)]

    @classmethod
    def circles(cls, r_i: float, r_o: float) -> "DomainSpec":
        return cls(inner=FourierCurve(c0=r_i), outer=FourierCurve(c0=r_o))

    def to_dict(self):
        return {"inner": self.inner.to_dict(), "outer": self.outer.to_dict()}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable 12-hex-digit digest of the domain definition."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class CurvGrid:
    """Structured grid on a doubly connected domain.

    Nodes are indexed ``(i, j)`` with ``i`` along the blending coordinate
    ``s`` (row 0 on the inner boundary, row ns-1 on the outer) and ``j``
    along the periodic angle.  Carries node coordinates, area quadrature
    weights, and per-angle arc weights and outward unit normals on both
    boundaries (``arc_w`` and ``normal`` are :data:`SIDES`-ordered pairs,
    read through :meth:`arc_weights` and :meth:`outward_normal`).  The grid
    cannot be rebound and :func:`build_grid` makes its arrays read-only, so
    what a field derives from its grid never goes stale.
    """

    spec: DomainSpec
    ns: int
    ntheta: int
    ds: float
    dtheta: float
    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    jac: np.ndarray
    area_w: np.ndarray
    arc_w: tuple = field(repr=False)
    normal: tuple = field(repr=False)

    def row(self, which: str) -> int:
        """Grid row of the ``"inner"`` (0) or ``"outer"`` (ns - 1) boundary."""
        return (0, self.ns - 1)[_side(which)]

    def arc_weights(self, which: str) -> np.ndarray:
        return self.arc_w[_side(which)]

    def outward_normal(self, which: str) -> np.ndarray:
        return self.normal[_side(which)]


def _blend(rho_i, rho_o, s):
    return (1.0 - s[:, None]) * rho_i[None, :] + s[:, None] * rho_o[None, :]


def blend_map(spec: DomainSpec, s, theta):
    """The blended map's radius and its derivatives, ``(r, r_theta, r_s)``.

    ``r = (1 - s) rho_i(theta) + s rho_o(theta)`` at rows ``s`` (1-d) and
    angles ``theta`` (1-d): ``r`` and ``r_theta`` are ``(len(s), len(theta))``
    arrays, and ``r_s = rho_o - rho_i`` is ``(1, len(theta))``, since ``r``
    is linear in ``s``.
    """
    rho_i = spec.inner.radius(theta)
    rho_o = spec.outer.radius(theta)
    r_t = _blend(spec.inner.radius_prime(theta), spec.outer.radius_prime(theta), s)
    return _blend(rho_i, rho_o, s), r_t, (rho_o - rho_i)[None, :]


def build_grid(spec: DomainSpec, ns: int, ntheta: int) -> CurvGrid:
    """Build the blended polar grid with ``ns`` rows and ``ntheta`` columns.

    Requires integer ``ns >= 9`` and ``ntheta >= 16``.  Raises
    :class:`InvalidDomainError` if the mapping Jacobian is not positive and
    finite everywhere on the grid.
    """
    try:  # int() raises on NaN and on infinities
        whole = int(ns) == ns and int(ntheta) == ntheta
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidInputError("grid sizes must be integers")
    ns, ntheta = int(ns), int(ntheta)
    if ns < 9 or ntheta < 16:
        raise InvalidInputError("grid needs ns >= 9 and ntheta >= 16")
    s = np.linspace(0.0, 1.0, ns)
    ds = 1.0 / (ns - 1)
    dtheta = 2 * np.pi / ntheta
    theta = np.arange(ntheta) * dtheta

    r, _, r_s = blend_map(spec, s, theta)
    x = r * np.cos(theta)[None, :]
    y = r * np.sin(theta)[None, :]
    jac = r * r_s
    if not np.all(np.isfinite(jac) & (jac > 0)):
        raise InvalidDomainError("grid Jacobian is not positive and finite")

    ws = np.full(ns, ds)
    ws[0] = ws[-1] = 0.5 * ds
    area_w = jac * ws[:, None] * dtheta

    # The domain-outward normal on the inner boundary is the negative of the
    # curve's normal.
    arc_w = (spec.inner.speed(theta) * dtheta, spec.outer.speed(theta) * dtheta)
    normal = (-_normal(spec.inner, theta), _normal(spec.outer, theta))
    for arr in (theta, x, y, jac, area_w, *arc_w, *normal):
        arr.flags.writeable = False
    return CurvGrid(spec=spec, ns=ns, ntheta=ntheta, ds=ds, dtheta=dtheta, theta=theta,
                    x=x, y=y, jac=jac, area_w=area_w, arc_w=arc_w, normal=normal)


def _normal(curve, theta):
    # Right-hand normal of the counterclockwise parametrization: it points
    # away from the enclosed disk.
    rho, dp = curve.radius(theta), curve.radius_prime(theta)
    tx = dp * np.cos(theta) - rho * np.sin(theta)
    ty = dp * np.sin(theta) + rho * np.cos(theta)
    norm = np.hypot(tx, ty)
    return np.stack([ty / norm, -tx / norm])


def boundary_length(spec: DomainSpec, which: str) -> float:
    """Arc length of one boundary component."""
    return spec.curve(which).length()


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
