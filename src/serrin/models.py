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
    InconsistentModelError,
    InvalidInputError,
    OutOfRangeError,
    RootBracketError,
    SingularEvaluationError,
    UnsupportedRegimeError,
)

# Relative slack for monotonicity checks: fitted radii satisfy r_o = sqrt(M)
# only up to a couple of ulps when the outer slope vanishes.
_REL_SLACK = 1e-12

# Relative half-width of the excluded neighbourhood around M - psi^2 = 0.
SINGULAR_CUTOFF = 1e-9

# |F(M)| at the fitted root must not exceed _FIT_TOL * (1 + |large-M limit|).
_FIT_TOL = 1e-12

_BRACKET_CEILING = 1e12


class ProblemCase(Enum):
    """Classification of constant boundary data quadruples."""

    INCREASING = "Increasing"
    DECREASING_COVERED = "DecreasingCovered"
    DECREASING_UNCOVERED = "DecreasingUncovered"
    INADMISSIBLE = "Inadmissible"

    def __str__(self):
        return self.value


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


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def model_u(params: ModelParams, r):
    """Evaluate the model profile ``L - r^2/2 + M log r``.

    ``r`` may be a scalar or an array; every entry must be positive.
    """
    arr, scalar = _as_array(r)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError("model_u requires r > 0")
    out = params.L - 0.5 * arr * arr + params.M * np.log(arr)
    return _ret(out, scalar)


def model_u_prime(params: ModelParams, r):
    """Radial derivative ``(M - r^2)/r`` of the model profile."""
    arr, scalar = _as_array(r)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError("model_u_prime requires r > 0")
    return _ret((params.M - arr * arr) / arr, scalar)


def boundary_data_of(params: ModelParams) -> BoundaryData:
    """Boundary data generated by a model (outward normals of the annulus)."""
    ri, ro, M = params.r_i, params.r_o, params.M
    return BoundaryData(
        a=model_u(params, ri),
        b=model_u(params, ro),
        alpha=(ri * ri - M) / ri,
        beta=(M - ro * ro) / ro,
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

    For ``m > 0`` the value is

        4a + alpha^2 - 4b - beta^2 + alpha*s_a + beta*s_b
        + 4m * log((-beta + s_b) / (alpha + s_a)),

    with ``s_a = sqrt(alpha^2 + 4m)`` and ``s_b = sqrt(beta^2 + 4m)``.  At
    ``m = 0`` the logarithm term vanishes with its prefactor and the closed
    form ``4a + 2*alpha^2 - 4b - 2*beta^2`` is used instead.  The value is
    4 times the Dirichlet mismatch left at the outer radius when the slopes
    are matched exactly.
    """
    m = float(m)
    if not math.isfinite(m) or m < 0:
        raise InvalidInputError("compatibility requires m >= 0")
    a, b, al, be = data.as_tuple()
    if m == 0.0:
        return 4 * a + 2 * al * al - 4 * b - 2 * be * be
    sa = math.sqrt(al * al + 4 * m)
    sb = math.sqrt(be * be + 4 * m)
    den = al + sa
    num = -be + sb
    if den <= 0 or num <= 0:
        raise SingularEvaluationError("degenerate logarithm argument in compatibility")
    return (4 * a + al * al - 4 * b - be * be) + al * sa + be * sb + 4 * m * math.log(num / den)


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
    Increasing or DecreasingCovered.  The compatibility root is bracketed by
    a geometric ladder started at ``max(1, alpha^2, beta^2)``, which stops at
    its first sign change (falling back to ``m = 0`` when halving never
    finds one).  Bisection then narrows that bracket until its ends are
    adjacent floats, and the end with the smaller ``|F|`` is returned;
    :class:`RootBracketError` is raised if that ``|F|`` exceeds the fit
    tolerance.
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
    lo = hi = max(1.0, al * al, be * be)
    f_lo = f_hi = F(lo)
    if f_lo > 0:
        for _ in range(1100):
            lo, hi, f_hi = 0.5 * lo, lo, f_lo
            f_lo = F(lo)
            if f_lo <= 0 or lo < 1e-300:
                break
        if f_lo > 0:
            hi, f_hi = lo, f_lo
            lo, f_lo = 0.0, F(0.0)
            if abs(f_lo) <= ftol:
                return _build_params(data, 0.0)
            if f_lo > 0:
                raise RootBracketError("compatibility has no sign change down to m = 0")
    else:
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


def pseudo_radius(params: ModelParams, value):
    """Invert the monotone profile: the radius in [r_i, r_o] where u attains value.

    ``value`` may be scalar or array; entries outside the closed range of the
    profile (or NaN) raise :class:`OutOfRangeError`.  Solved by vectorised
    bisection alone, run until each bracket is two adjacent floats; the end
    whose profile value is nearer ``value`` is returned.

    A sweep evaluates ``u(mid)`` into preallocated buffers and moves the
    bracket ends without a masked select: the comparison becomes a 0/1
    float ``step``, and ``lo = max(lo, mid*step)``, ``hi = max(mid, hi*step)``
    keep ``lo`` or move it to ``mid`` (step 1), or move ``hi`` to ``mid``
    (step 0).  This is exact because ``0 < lo <= mid <= hi``, and it costs
    a fraction of ``np.where``'s data-dependent select.  The in-loop ``u``
    must equal :func:`model_u` bit for bit (same operations in the same
    order), or comparisons near the root flip and ``psi`` moves by an ulp.
    """
    arr, scalar = _as_array(value)
    ua = model_u(params, params.r_i)
    ub = model_u(params, params.r_o)
    lo_v, hi_v = min(ua, ub), max(ua, ub)
    if not np.all((arr >= lo_v) & (arr <= hi_v)):
        worst = float(np.max(np.maximum(lo_v - arr, arr - hi_v)))
        raise OutOfRangeError(
            f"value outside the profile range [{lo_v:.12g}, {hi_v:.12g}] by {worst:.3e}"
        )
    # step = 1 where lo moves to mid: u(mid) <= value on an increasing
    # profile, u(mid) > value on a decreasing one.
    lo_moves = np.less_equal if params.case is ProblemCase.INCREASING else np.greater
    L, M = params.L, params.M
    lo = np.full(arr.shape, params.r_i)
    hi = np.full(arr.shape, params.r_o)
    mid = np.empty_like(lo)
    u = np.empty_like(lo)
    step = np.empty_like(lo)
    live = np.empty(arr.shape, dtype=bool)
    live_hi = np.empty_like(live)
    while True:
        np.add(lo, hi, out=mid)
        np.multiply(mid, 0.5, out=mid)
        np.less(lo, mid, out=live)
        np.less(mid, hi, out=live_hi)
        np.logical_and(live, live_hi, out=live)
        if not live.any():
            break
        # u = L - 0.5*mid*mid + M*log(mid), in model_u's order
        np.multiply(mid, 0.5, out=u)
        np.multiply(u, mid, out=u)
        np.subtract(L, u, out=u)
        np.log(mid, out=step)
        np.multiply(step, M, out=step)
        np.add(u, step, out=u)
        lo_moves(u, arr, out=step)
        np.multiply(hi, step, out=u)
        np.maximum(mid, u, out=hi)
        np.multiply(mid, step, out=u)
        np.maximum(lo, u, out=lo)
    nearer_hi = np.abs(model_u(params, hi) - arr) < np.abs(model_u(params, lo) - arr)
    return _ret(np.where(nearer_hi, hi, lo), scalar)


def model_gradient_sq(params: ModelParams, psi):
    """Squared model gradient ``((M - psi^2)/psi)^2`` at pseudo-radius psi."""
    arr, scalar = _as_array(psi)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError("model_gradient_sq requires psi > 0")
    g = (params.M - arr * arr) / arr
    return _ret(g * g, scalar)


def refined_k(params: ModelParams) -> float:
    """Canonical constant for the refined identity on decreasing models.

    Computed as ``4*M*r_i^2 - r_i^4 - 4*M^2*log(r_i)`` and cross-checked
    against the equivalent boundary-data form
    ``4*L*M + M^2 - 4*a*M - alpha^2*r_i^2``; disagreement beyond 1e-10
    (relative to max(1, |k|)) raises :class:`InconsistentModelError`.
    """
    if params.case is not ProblemCase.DECREASING_COVERED:
        raise UnsupportedRegimeError(
            "refined_k is defined for decreasing profiles only", case=params.case
        )
    ri, M, L = params.r_i, params.M, params.L
    ri2 = ri * ri
    k1 = 4 * M * ri2 - ri2 * ri2 - 4 * M * M * math.log(ri)
    d = boundary_data_of(params)
    k2 = 4 * L * M + M * M - 4 * d.a * M - d.alpha * d.alpha * ri2
    if abs(k1 - k2) > 1e-10 * max(1.0, abs(k1)):
        raise InconsistentModelError(
            f"the two closed forms of k disagree: {k1!r} vs {k2!r}"
        )
    return k1


def _singular_guard(params: ModelParams, arr):
    gap = np.abs(params.M - arr * arr)
    cut = SINGULAR_CUTOFF * max(1.0, params.M)
    if arr.size and np.any(gap < cut):
        raise SingularEvaluationError(
            f"psi within the singular cutoff {cut:.3e} of sqrt(M)"
        )


def refined_phi(params: ModelParams, k: float, psi):
    """Weight ``2u - (psi^4 - 4M psi^2 + 4M^2 log psi + k)/(2(M - psi^2))``.

    Building block of the refined integral identity for decreasing profiles.
    Raises :class:`SingularEvaluationError` within the cutoff neighbourhood
    of ``psi = sqrt(M)``.
    """
    arr, scalar = _as_array(psi)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError("refined_phi requires psi > 0")
    _singular_guard(params, arr)
    M = params.M
    p2 = arr * arr
    num = p2 * p2 - 4 * M * p2 + 4 * M * M * np.log(arr) + k
    out = 2 * model_u(params, arr) - num / (2 * (M - p2))
    return _ret(out, scalar)


def refined_phi_dot(params: ModelParams, k: float, psi):
    """Density ``psi^2 (4M psi^2 - psi^4 - 4M^2 log psi - k) / (M - psi^2)^3``.

    Derivative of :func:`refined_phi` with respect to the model value; it is
    nonnegative on decreasing profiles when ``k = refined_k(params)``.  Same
    singular guard as :func:`refined_phi`.
    """
    arr, scalar = _as_array(psi)
    if arr.size and not np.all(arr > 0):
        raise InvalidInputError("refined_phi_dot requires psi > 0")
    _singular_guard(params, arr)
    M = params.M
    p2 = arr * arr
    bracket = 4 * M * p2 - p2 * p2 - 4 * M * M * np.log(arr) - k
    den = M - p2
    out = p2 * bracket / (den * den * den)
    return _ret(out, scalar)
