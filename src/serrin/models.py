"""Radial model solutions of the torsion equation on annuli.

The family ``u(r) = L - r^2/2 + M log r`` solves ``Delta u = -2`` on any
annulus ``0 < r_i <= r <= r_o``.  Prescribing constant Dirichlet values and
constant outward normal derivatives on both boundary circles overdetermines
the four parameters, and the data are consistent exactly when a scalar
compatibility function of ``M`` vanishes.  This module classifies boundary
data, fits the model by locating that root, and evaluates the derived
quantities the identity checks are built on: the pseudo-radius (inverse of
``u`` along the profile), the model gradient bound, and the weight functions
of the refined integral identity for decreasing profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidInputError,
    OutOfRangeError,
    RootBracketError,
    SingularEvaluationError,
    UnsupportedRegimeError,
)

# Relative slack for monotonicity checks: fitted radii satisfy r_o = sqrt(M)
# only up to a couple of ulps when the outer slope vanishes.
_REL_SLACK = 1e-12

# Relative half-width of the singular part of degenerate_band, at M = psi^2.
SINGULAR_CUTOFF = 1e-9

# |F(M)| at the fitted root must not exceed _FIT_TOL * (1 + |large-M limit|).
_FIT_TOL = 1e-12

_BRACKET_CEILING = 1e12

# Profile samples behind pseudo_radius's interpolated Newton start.
_SEED_RADII = 65


class ProblemCase(Enum):
    """Classification of constant boundary data quadruples."""

    INCREASING = "Increasing"
    DECREASING_COVERED = "DecreasingCovered"
    DECREASING_UNCOVERED = "DecreasingUncovered"
    INADMISSIBLE = "Inadmissible"

    def __str__(self):
        return self.value

    @property
    def exit_code(self) -> int:
        """Exit status of a run this regime stops: 3 if unproven, else 2."""
        return 3 if self is ProblemCase.DECREASING_UNCOVERED else 2


@dataclass(frozen=True)
class BoundaryData:
    """Constant boundary data for the overdetermined problem.

    Parameters
    ----------
    a, b : float
        Dirichlet values on the inner and outer boundary.
    alpha, beta : float
        Outward normal derivatives on the inner and outer boundary.  The
        outward normal of the domain points toward the origin on the inner
        boundary.
    """

    a: float
    b: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("a", "b", "alpha", "beta"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInputError(f"boundary datum {name!r} must be finite")
            object.__setattr__(self, name, v)

    def as_tuple(self):
        return (self.a, self.b, self.alpha, self.beta)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a monotone radial model on the annulus [r_i, r_o].

    The profile is ``u(r) = L - r^2/2 + M log r`` with ``u'(r) = (M - r^2)/r``,
    so the model is monotone on the annulus iff ``sqrt(M)`` does not fall
    strictly between the radii.  Construction enforces that, ``M >= 0`` and
    ``0 < r_i < r_o``.
    """

    L: float
    M: float
    r_i: float
    r_o: float

    def __post_init__(self):
        for name in ("L", "M", "r_i", "r_o"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInputError(f"model parameter {name!r} must be finite")
            object.__setattr__(self, name, v)
        if self.M < 0:
            raise InvalidInputError("M must be nonnegative")
        if not 0 < self.r_i < self.r_o:
            raise InvalidInputError("radii must satisfy 0 < r_i < r_o")
        ri2 = self.r_i * self.r_i
        ro2 = self.r_o * self.r_o
        if self.M > ri2 * (1 + _REL_SLACK) and self.M < ro2 * (1 - _REL_SLACK):
            raise InvalidInputError(
                "sqrt(M) lies strictly inside the annulus; the profile is not monotone"
            )

    @property
    def case(self) -> ProblemCase:
        """Monotonicity class of the profile (increasing iff r_o <= sqrt(M))."""
        if self.r_o * self.r_o <= self.M * (1 + _REL_SLACK):
            return ProblemCase.INCREASING
        return ProblemCase.DECREASING_COVERED

    @property
    def value_range(self) -> tuple:
        """Closed range ``(lo, hi)`` of the profile's values on the annulus."""
        ua = model_u(self, self.r_i)
        ub = model_u(self, self.r_o)
        return min(ua, ub), max(ua, ub)


def _positive(x, message):
    """``x`` as a float array, raising InvalidInputError(message) unless every entry is > 0."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError(message)
    return arr


def model_u(params: ModelParams, r):
    """Evaluate the model profile ``L - r^2/2 + M log r``.

    ``r`` may be a scalar or an array; every entry must be positive.  The
    result has the shape of ``r``, so a scalar gives a numpy scalar, a
    ``float``.  The other profile functions follow the same rule.
    """
    arr = _positive(r, "model_u requires r > 0")
    return params.L - 0.5 * arr * arr + params.M * np.log(arr)


def model_u_prime(params: ModelParams, r):
    """Radial derivative ``(M - r^2)/r`` of the model profile."""
    arr = _positive(r, "model_u_prime requires r > 0")
    return (params.M - arr * arr) / arr


def boundary_data_of(params: ModelParams) -> BoundaryData:
    """Boundary data generated by a model (outward normals of the annulus)."""
    ri, ro = params.r_i, params.r_o
    return BoundaryData(
        a=model_u(params, ri),
        b=model_u(params, ro),
        # 0.0 - u', not -u': a zero inner slope stays +0.0, as (r_i^2 - M)/r_i gives
        alpha=0.0 - model_u_prime(params, ri),
        beta=model_u_prime(params, ro),
    )


def classify_case(data: BoundaryData) -> ProblemCase:
    """Classify boundary data into the regimes the fitter distinguishes.

    Increasing demands ``a < b``, ``alpha < 0``, ``beta >= 0``; decreasing
    demands the opposite Dirichlet/Neumann signs.  Both demand that the
    combination ``4*value + slope^2`` is larger on the inner boundary, which
    every monotone model satisfies.  A decreasing quadruple is covered by the
    comparison argument iff ``2a + alpha^2 <= 2b + beta^2``.
    """
    a, b, al, be = data.as_tuple()
    inner_excess = 4 * a + al * al - (4 * b + be * be)
    if a < b and al < 0 and be >= 0 and inner_excess > 0:
        return ProblemCase.INCREASING
    if a > b and al >= 0 and be < 0 and inner_excess > 0:
        if 2 * a + al * al <= 2 * b + be * be:
            return ProblemCase.DECREASING_COVERED
        return ProblemCase.DECREASING_UNCOVERED
    return ProblemCase.INADMISSIBLE


def compatibility(data: BoundaryData, m: float) -> float:
    """Compatibility function whose root in ``m`` fits the model.

    The value is

        4a + alpha^2 - 4b - beta^2 + alpha*s_a + beta*s_b
        + 4m * log((-beta + s_b) / (alpha + s_a)),

    with ``s_a = sqrt(alpha^2 + 4m)`` and ``s_b = sqrt(beta^2 + 4m)``.  At
    ``m = 0`` the logarithm term is dropped: it vanishes with its prefactor,
    so ``F`` is continuous at 0 for every sign of ``alpha`` and ``beta``.
    The value is 4 times the Dirichlet mismatch left at the outer radius
    when the slopes are matched exactly.
    """
    m = float(m)
    if not math.isfinite(m) or m < 0:
        raise InvalidInputError("compatibility requires m >= 0")
    a, b, al, be = data.as_tuple()
    sa = math.sqrt(al * al + 4 * m)
    sb = math.sqrt(be * be + 4 * m)
    value = (4 * a + al * al - 4 * b - be * be) + al * sa + be * sb
    if m == 0.0:
        return value
    den = al + sa
    num = -be + sb
    if den <= 0 or num <= 0:
        raise SingularEvaluationError("degenerate logarithm argument in compatibility")
    return value + 4 * m * math.log(num / den)


def _build_params(data: BoundaryData, m: float) -> ModelParams:
    a, _, al, be = data.as_tuple()
    ri = 0.5 * (al + math.sqrt(al * al + 4 * m))
    ro = 0.5 * (-be + math.sqrt(be * be + 4 * m))
    if ri <= 0 or ro <= ri:
        raise RootBracketError(
            "fitted radii are degenerate (the model collapses to a punctured disk)"
        )
    L = a + 0.5 * ri * ri - m * math.log(ri)
    return ModelParams(L=L, M=m, r_i=ri, r_o=ro)


def fit_model(data: BoundaryData) -> ModelParams:
    """Fit the radial model matching the boundary data exactly.

    Raises :class:`UnsupportedRegimeError` unless the data classify as
    Increasing or DecreasingCovered.  The root of the compatibility
    function ``F`` is bracketed along one path: ``M = 0`` is returned when
    ``|F(0)|`` is within the fit tolerance, :class:`RootBracketError` is
    raised when ``F(0) > 0`` or when ``m0 = max(1, alpha^2, beta^2)``
    overflows, and otherwise ``lo = 0`` while ``hi`` doubles from ``m0``
    until ``F(hi) > 0``, up to a ceiling.  Bisection then narrows the
    bracket until its ends are adjacent floats, and the end with the
    smaller ``|F|`` is returned; :class:`RootBracketError` is raised if
    that ``|F|`` exceeds the fit tolerance.
    """
    case = classify_case(data)
    if case not in (ProblemCase.INCREASING, ProblemCase.DECREASING_COVERED):
        raise UnsupportedRegimeError(
            f"cannot fit a model for {case} data", case=case
        )
    a, b, al, be = data.as_tuple()
    limit = 4 * a + al * al - 4 * b - be * be
    ftol = _FIT_TOL * (1.0 + abs(limit))

    def F(m):
        return compatibility(data, m)

    # Invariant once bracketed: F(lo) <= 0 < F(hi).
    lo, f_lo = 0.0, F(0.0)
    if abs(f_lo) <= ftol:
        return _build_params(data, 0.0)
    if f_lo > 0:
        raise RootBracketError("compatibility has no sign change down to m = 0")
    hi = max(1.0, al * al, be * be)
    if not math.isfinite(hi):
        raise RootBracketError(
            f"the bracket [0, {hi:g}] is not finite: alpha^2 or beta^2 overflows")
    f_hi = F(hi)
    while f_hi <= 0:
        if hi > _BRACKET_CEILING:
            raise RootBracketError("compatibility stayed nonpositive up to the "
                                   f"bracket ceiling {_BRACKET_CEILING:g}")
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        f_hi = F(hi)

    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = F(mid)
        if f_mid <= 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
    m, f_m = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    if abs(f_m) > ftol:
        raise RootBracketError(
            f"bisection left |F| = {abs(f_m):.3e}, above tolerance {ftol:.3e}"
        )
    return _build_params(data, m)


def _tangent_step(params: ModelParams, r, target):
    """One Newton step on ``u(r) = target`` from ``r``, clipped to ``[r_i, r_o]``.

    The profile is concave (``u'' = -1 - M/r^2``), so its tangent at ``r``
    lies above it and meets ``target`` on the near side of the root, where
    ``u <= target``, whatever side ``r`` is on.  That needs a slope of the
    profile's sign: a zero or wrong-signed one, which rounding leaves only
    next to a degenerate end (``r = sqrt(M)``), gives the near end instead.
    """
    increasing = params.case is ProblemCase.INCREASING
    slope = model_u_prime(params, r)
    nxt = np.clip(r - (model_u(params, r) - target) / slope, params.r_i, params.r_o)
    return np.where(slope > 0 if increasing else slope < 0, nxt,
                    params.r_i if increasing else params.r_o)


def pseudo_radius(params: ModelParams, value):
    """Invert the monotone profile: the radius in [r_i, r_o] where u attains value.

    ``value`` may be scalar or array, and the result has its shape (a numpy
    scalar for a scalar); entries outside the closed range of the profile (or
    NaN) raise :class:`OutOfRangeError`.  Solved by Newton's
    method on ``u(r) = value`` from a seeded start: ``np.interp`` on the
    profile at ``_SEED_RADII`` equally spaced radii, then one tangent step
    (:func:`_tangent_step`).  The profile is concave, so that step lands on
    the near side of the root, where ``u`` is below the value, from any
    start, and every later step stays there.  Steps are clipped to ``[r_i,
    r_o]``, and an entry stops at the first step that does not move it
    forward, so each entry's iterates move one way over finite floats and the
    loop ends.
    """
    arr = np.asarray(value, dtype=float)
    lo_v, hi_v = params.value_range
    if not np.all((arr >= lo_v) & (arr <= hi_v)):
        worst = float(np.max(np.maximum(lo_v - arr, arr - hi_v)))
        raise OutOfRangeError(
            f"value outside the profile range [{lo_v:.12g}, {hi_v:.12g}] by {worst:.3e}"
        )
    increasing = params.case is ProblemCase.INCREASING
    target = arr.ravel()
    radii = np.linspace(params.r_i, params.r_o, _SEED_RADII)
    table = model_u(params, radii)
    if not increasing:
        radii, table = radii[::-1], table[::-1]
    # np.interp needs nondecreasing samples, which rounding can break where
    # the profile is flat.
    start = np.interp(target, np.maximum.accumulate(table), radii)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = _tangent_step(params, start, target)
        todo = np.arange(psi.size)  # the entries still moving
        while todo.size:
            r = psi[todo]
            nxt = _tangent_step(params, r, target[todo])
            forward = nxt > r if increasing else nxt < r
            todo = todo[forward]
            psi[todo] = nxt[forward]
    return psi.reshape(arr.shape)[()]


def model_gradient_sq(params: ModelParams, psi):
    """Squared model gradient ``u'(psi)^2`` at pseudo-radius psi."""
    g = model_u_prime(params, psi)
    return g * g


def refined_k(params: ModelParams) -> float:
    """Canonical constant ``K(r_i) = 4*M*r_i^2 - r_i^4 - 4*M^2*log(r_i)`` of
    the refined identity on decreasing models (see :func:`refined_k_at`)."""
    if params.case is not ProblemCase.DECREASING_COVERED:
        raise UnsupportedRegimeError(
            "the refined identity applies to covered decreasing profiles", case=params.case
        )
    return float(refined_k_at(params, params.r_i))


def refined_k_at(params: ModelParams, r):
    """``K(r) = 4 M r^2 - r^4 - 4 M^2 log r``, so :func:`refined_k` is ``K(r_i)``;
    ``np.log`` for a float ``r`` too, so :func:`refined_phi_dot` is 0 at ``r_i``."""
    M = params.M
    r2 = r * r
    return 4 * M * r2 - r2 * r2 - 4 * M * M * np.log(r)


def degenerate_band(params: ModelParams, r, cutoff: float = 0.0):
    """True where ``|M - r^2| <= SINGULAR_CUTOFF * max(1, M)`` (the refined
    weights are singular there) or ``|r - sqrt(M)| <= cutoff * sqrt(M)``: the
    band around the level where the model gradient vanishes, which holds for
    no positive ``r`` at ``M = 0``."""
    arr = np.asarray(r, dtype=float)
    M = params.M
    rt = math.sqrt(M)
    return ((np.abs(M - arr * arr) <= SINGULAR_CUTOFF * max(1.0, M))
            | (np.abs(arr - rt) <= cutoff * rt))


def _singular_guard(params: ModelParams, arr):
    if np.any(degenerate_band(params, arr)):
        raise SingularEvaluationError("psi within the singular band of sqrt(M)")


def refined_phi(params: ModelParams, k: float, psi):
    """Weight ``2u - (psi^4 - 4M psi^2 + 4M^2 log psi + k)/(2(M - psi^2))``.

    Building block of the refined integral identity for decreasing profiles.
    Raises :class:`SingularEvaluationError` within the cutoff neighbourhood
    of ``psi = sqrt(M)``.
    """
    arr = _positive(psi, "refined_phi requires psi > 0")
    _singular_guard(params, arr)
    M = params.M
    p2 = arr * arr
    num = p2 * p2 - 4 * M * p2 + 4 * M * M * np.log(arr) + k
    return 2 * model_u(params, arr) - num / (2 * (M - p2))


def refined_phi_dot(params: ModelParams, k: float, psi):
    """Density ``psi^2 (4M psi^2 - psi^4 - 4M^2 log psi - k) / (M - psi^2)^3``.

    Derivative of :func:`refined_phi` with respect to the model value; it is
    nonnegative on decreasing profiles when ``k = refined_k(params)``.  Same
    singular guard as :func:`refined_phi`.
    """
    arr = _positive(psi, "refined_phi_dot requires psi > 0")
    _singular_guard(params, arr)
    p2 = arr * arr
    den = params.M - p2
    return p2 * (refined_k_at(params, arr) - k) / (den * den * den)
