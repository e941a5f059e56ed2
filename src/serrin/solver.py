"""Finite-difference Poisson solver on curvilinear annular grids.

The Laplacian is discretized in conservative flux form on the blended polar
grid: with metric coefficients A, B, C sampled from the blended map at cell
interfaces,

    J * Lap(u) ~ d_s(A u_s + B u_t) + d_t(B u_s + C u_t),

using second-order centered differences for both flux divergences.  The
resulting 9-point operator annihilates constants exactly and is mildly
nonsymmetric through the mixed-term interfaces.  It is kept only as its nine
coefficient arrays (the stencil) and applied matrix-free, as a sum of
coefficient-times-shifted-slice products; the preconditioner below averages
the same stencil.  Dirichlet rows are eliminated exactly into the
right-hand side.

The system is solved by restarted GMRES (Saad & Schultz 1986), preconditioned
on the right by the exact inverse of a theta-averaged operator: each
equation is first scaled so that its theta column has unit mean diagonal,
then each of the nine stencil coefficients is replaced by its mean over
theta.  That operator is circulant in theta, so a real DFT in theta splits
it into one tridiagonal system in s per Fourier mode -- the fast Poisson
solver on circles (Hockney 1965; Buzbee, Golub & Nielson 1970), used here as
a separable preconditioner (Concus & Golub 1973).  The DFT pair is numpy's
rfft and irfft, or, where ntheta has a large prime factor (257, 129 = 3 *
43) and the FFT falls back to Bluestein's slower algorithm, one dense matrix
product each way, the matrices being rfft and irfft applied once to identity
blocks; the choice depends on ntheta alone.  One pivot-free tridiagonal
elimination serves the modes here and the theta columns of the start below,
and it is the one place a singular line system raises.

Without the scaling the average would be dominated by the narrowest part of
the annulus, where the radial coefficients grow like 1/gap, and the
iteration count would grow as the boundaries approach each other.  With it
the count does not depend on the gap; it grows with the boundary slope, and
for steep boundaries also with the grid.

GMRES starts from one line solve (the "J" of line relaxation; Trottenberg,
Oosterlee & Schueller 2001, ch. 5): each equation's theta couplings are
lumped into its own column, which leaves one tridiagonal system in s per
theta column.  The lumped operator is the operator itself on theta-constant
vectors.  On circles the metric coefficients depend on s alone and the
mixed terms vanish, so with theta-constant data the start is the discrete
solution and GMRES takes no iteration; off the circle it saves about two
of the eight or so iterations of a mildly perturbed domain.

The GMRES iteration and the tridiagonal sweeps are a few dozen lines of
numpy each, so the solver, like the rest of the package, needs numpy alone.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, SolverFailureError
from .geometry import CurvGrid, DomainSpec, blend_map, build_grid
from .models import ModelParams, model_u

# GMRES restart length, and the number of restart cycles, each ending in one
# true-residual check, before the solve is declared failed (at most 600
# iterations; the steepest boundaries measured, harmonic 16 at amplitude 0.49,
# need 165 at 257^2 and 333 at 513^2).
_RESTART = 60
_MAX_RESTARTS = 10


@dataclass(frozen=True)
class SolveOptions:
    """Linear-solver controls, fixed at construction.

    ``tol`` is the relative residual the returned solution must satisfy,
    required to lie in (0, 1e-4).  It is checked on the true residual of the
    solved system.
    """

    tol: float = 1e-11

    def __post_init__(self):
        if not 0 < self.tol < 1e-4:
            raise InvalidInputError("tol must lie in (0, 1e-4)")


@dataclass
class SolveStats:
    """Solve diagnostics.

    ``residuals`` is the GMRES history of relative residual estimates, one
    per iteration, followed by the true relative residual ``residual``.
    ``seconds`` is the sum of the three stage times: assembly, the
    preconditioner factorization with the start (``setup_s``) and the
    iteration.
    """

    unknowns: int
    iterations: int
    residual: float
    seconds: float
    residuals: list
    assemble_s: float
    setup_s: float
    solve_s: float


@dataclass(frozen=True)
class ScalarField:
    """Node values of a scalar quantity on a grid.

    ``values`` is a read-only copy of the array given, and the field cannot
    be rebound, so the quantities derived from it (:meth:`derived`) are
    computed once and never go stale; a caller's array is never frozen.
    """

    grid: CurvGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.ns, self.grid.ntheta):
            raise InvalidInputError("field values must be shaped (ns, ntheta)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_derived", {})

    def derived(self, compute: Callable, *args):
        """``compute(self, *args)``, computed on the first call with the same
        ``compute`` and (hashable) ``args`` and kept with the field.  The
        result is shared between callers, who must not write into it."""
        key = (compute, *args)
        if key not in self._derived:
            self._derived[key] = compute(self, *args)
        return self._derived[key]


@dataclass
class GradientField:
    gx: np.ndarray
    gy: np.ndarray
    w: np.ndarray


def _per_angle(value, ntheta, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(ntheta, float(arr))
    if arr.shape != (ntheta,):
        raise InvalidInputError(f"{name} must be a scalar or a length-ntheta array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def _stencil(grid: CurvGrid) -> dict:
    """The 9-point coefficients ``{(di, dj): (ns-2, ntheta) array}``: row
    ``i - 1`` of entry ``(di, dj)`` multiplies ``u[i + di, j + dj]`` in the
    equation of interior node ``(i, j)``.

    The stencil owns the staggering of the flux form.  It samples the
    blended map (:func:`~serrin.geometry.blend_map`) at the s-interfaces
    ``(i +- 1/2, j)``, for the s-flux coefficients ``A = (r_t^2 + r^2) /
    (r r_s)`` and ``B = -r_t / r``, and at the theta-interfaces
    ``(i, j + 1/2)`` of the interior rows, for ``B`` and ``C = r_s / r``;
    the ``(i, j - 1/2)`` values are those of column ``j - 1``."""
    ns = grid.ns
    ds, dt = grid.ds, grid.dtheta
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


def _apply(stencil, u: np.ndarray) -> np.ndarray:
    """The 9-point operator of ``stencil`` applied to a full ``(ns, ntheta)``
    array: row ``i - 1`` of the result is the equation of interior node
    ``(i, j)``.  Theta is periodic, so ``u`` is padded by one wrapped column
    on each side and each coefficient multiplies a shifted slice of it."""
    ns, nt = u.shape
    padded = np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)
    return sum(coef * padded[1 + di:ns - 1 + di, 1 + dj:nt + 1 + dj]
               for (di, dj), coef in stencil.items())


@functools.lru_cache(maxsize=8)
def _theta_transform(nt: int):
    """The exact real DFT pair along axis 1 of length ``nt``, ``(forward,
    inverse)``, built once per ``nt``: ``forward(x)`` is ``numpy.fft.rfft(x,
    axis=1)`` and ``inverse(x_hat)`` is ``numpy.fft.irfft(x_hat, nt,
    axis=1)``, which ignores the imaginary parts of mode 0 and of the Nyquist
    mode of an even ``nt``.

    pocketfft costs ``O(nt log nt)`` only for lengths with small prime
    factors: a length with a large prime factor ``p`` goes through
    Bluestein's chirp-z algorithm, at several times the cost.  A dense
    product costs ``O(nt^2)`` but runs at BLAS speed.  Timed with one BLAS
    thread, the dense pair was the faster one at 65 = 5 * 13, 129 = 3 * 43,
    257, 401 and 449, and the slower one at 128, 256, 289 = 17^2, 301 = 7 *
    43, 513 = 3^3 * 19 and 1025; ``nt <= 5 p`` and ``nt <= 450`` separate
    the two sets, and there the pair is ``(x @ D).view(complex)`` and
    ``x_hat.view(float) @ E``, with ``m = nt // 2 + 1``.  The read-only ``(nt,
    2 m)`` matrix ``D`` is ``rfft`` of the identity, its real and imaginary
    parts interleaved, and row ``2 k`` (``2 k + 1``) of ``E`` is ``irfft`` of
    a real (imaginary) unit in mode ``k``.  Both transforms are linear, so
    the dense pair is numpy's pair, ``irfft``'s mode weights and dropped
    imaginary parts included.
    """
    # Trial division: p is the largest factor divided out, n what is left (1
    # or a prime), so the largest prime factor is max(p, n).
    n, p = nt, 1
    for f in range(2, int(nt**0.5) + 1):
        while n % f == 0:
            n, p = n // f, f
    if nt > min(5 * max(p, n), 450):
        return (functools.partial(np.fft.rfft, axis=1),
                functools.partial(np.fft.irfft, n=nt, axis=1))
    m = nt // 2 + 1
    dft = np.fft.rfft(np.eye(nt), axis=1).view(float)
    inv = np.fft.irfft(np.kron(np.eye(m), [1, 1j]), nt, axis=0).T  # F-ordered
    dft.flags.writeable = inv.flags.writeable = False
    return (lambda x: (x @ dft).view(complex)), (lambda x_hat: x_hat.view(float) @ inv)


def _tridiagonal_solver(lower, pivot, upper):
    """Factor the tridiagonal systems whose three bands are the columns of
    ``lower``, ``pivot`` and ``upper``, all at once and in place: returns
    ``solve(x)``, which overwrites ``x``, shaped as the bands, with the
    solution of each column's system and returns it.

    Row ``i`` of a band multiplies row ``i + di`` of the unknowns, ``di = -1,
    0, 1``.  The first and last interior rows couple to the Dirichlet rows,
    which are eliminated into the right-hand side, so ``lower[0]`` and
    ``upper[-1]`` are never read.  Gaussian
    elimination without pivoting (Golub & Van Loan, Matrix Computations,
    4.3), over row views, so that each step of the factorization and of a
    sweep is one multiply and one in-place update vectorised over the
    columns.  Unless every pivot and every inverse pivot is finite (a zero,
    an overflowing or a nan pivot), :class:`SolverFailureError` is raised.
    """
    lower_rows, pivot_rows, upper_rows = list(lower), list(pivot), list(upper)
    with np.errstate(all="ignore"):
        for lo, piv, prev_piv, prev_up in zip(lower_rows[1:], pivot_rows[1:],
                                              pivot_rows, upper_rows):
            lo /= prev_piv
            piv -= lo * prev_up
        inv_pivot = 1.0 / pivot
        upper *= inv_pivot
    if not np.all(np.isfinite(pivot) & np.isfinite(inv_pivot)):
        raise SolverFailureError("singular tridiagonal line system")

    def solve(x):
        rows = list(x)
        for lo, prev, row in zip(lower_rows[1:], rows, rows[1:]):
            row -= lo * prev
        x *= inv_pivot
        for up, nxt, row in zip(upper_rows[-2::-1], rows[::-1], rows[-2::-1]):
            row -= up * nxt
        return x

    return solve


def _lumped_start(stencil, rhs):
    """The start of the iteration: the solution of the operator with the
    theta couplings of each row lumped, ``sum_dj stencil[di, dj]``, which
    leaves one tridiagonal system in s per theta column (the line solve of
    line relaxation; Trottenberg, Oosterlee & Schueller, Multigrid, 2001,
    ch. 5).  The lumped operator equals the operator on theta-constant
    vectors, so on circles with theta-constant data the start is the
    discrete solution.  The bands are freed on return, before the
    iteration allocates its basis.
    """
    solve = _tridiagonal_solver(*(sum(stencil[di, dj] for dj in (-1, 0, 1))
                                  for di in (-1, 0, 1)))
    return solve(rhs.reshape(stencil[0, 0].shape).copy()).ravel()


def _theta_averaged_inverse(stencil) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of ``W^-1 avg(W L)``, as a function of a flattened
    interior vector: ``L`` is the operator of ``stencil``, ``W`` scales the
    equations of theta column ``j`` by one over the mean magnitude of their
    diagonal, and ``avg`` replaces each coefficient by its mean over theta.

    ``avg(W L)`` is circulant in theta.  Each of its nine averages is one
    matrix-vector product, ``coef @ w / ntheta``.  With the real DFT along
    theta (:func:`_theta_transform`), a shift by ``dj`` nodes multiplies
    mode ``k`` by ``omega_k**dj``, ``omega_k = exp(2 pi i k / ntheta)``, so
    each band is its ``dj = 0`` average plus the outer products of the ``dj
    = 1`` and ``dj = -1`` averages with ``omega`` and its conjugate, and one
    tridiagonal system in s is left per mode.  The three bands are kept as
    ``(n_in, modes)`` arrays, the layout ``rfft`` returns, and all modes are
    eliminated together (:func:`_tridiagonal_solver`, which raises on a
    singular system): the bands are factored once, and each application is
    one forward transform, one forward and one backward sweep over the rows,
    and one inverse transform.
    """
    n_in, nt = stencil[0, 0].shape
    omega = np.exp(2j * np.pi * np.arange(nt // 2 + 1) / nt)
    with np.errstate(all="ignore"):
        # A column with a zero diagonal makes w, and so every pivot, non-finite.
        w = 1.0 / np.abs(stencil[0, 0]).mean(axis=0)
        avg = {key: coef @ w / nt for key, coef in stencil.items()}
        solve = _tridiagonal_solver(*(avg[di, 0][:, None] + np.outer(avg[di, 1], omega)
                                      + np.outer(avg[di, -1], omega.conj())
                                      for di in (-1, 0, 1)))
    forward, inverse = _theta_transform(nt)
    return lambda r: inverse(solve(forward(r.reshape(n_in, nt) * w))).ravel()


def _gmres(operator, precondition, rhs, x0, tol):
    """Solve ``operator(x) = rhs`` by restarted GMRES (Saad & Schultz 1986),
    preconditioned on the right, from the start ``x0``, which is updated in
    place: returns ``(x, residual, history)``, the solution, its true
    relative residual ``|rhs - operator(x)| / |rhs|`` and the residual
    estimates.  A start that meets ``tol`` is returned after 0 iterations.
    A non-finite ``|rhs|`` makes every relative residual nan, so that the
    solve fails rather than reading a finite residual over it as 0.

    Each cycle builds an orthonormal basis of the Krylov space of
    ``operator(precondition(.))`` started from the current residual, by two
    passes of classical Gram-Schmidt, and reduces the small Hessenberg matrix
    to triangular form by Givens rotations.  The rotated right-hand side
    ``g`` gives the residual estimate ``|g[k+1]| / |rhs|``, appended to
    ``history`` once per iteration.  A cycle ends when the estimate falls to
    ``tol / 2``, when the basis breaks down, or after ``_RESTART``
    iterations; then ``x`` moves by ``precondition(V y)``, ``y`` solving the
    triangular system with ``numpy.linalg.solve``.  Each cycle starts from
    the true residual, the one place it is formed: the solve returns when it
    meets ``tol``.  Otherwise a breakdown in the cycle before, a non-finite
    residual or ``_MAX_RESTARTS`` spent cycles raise
    :class:`SolverFailureError` carrying ``history`` followed by that
    residual.
    """
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    if not np.isfinite(scale):
        scale = np.nan
    eps = np.finfo(float).eps
    history = []
    basis = np.empty((_RESTART + 1, rhs.size))
    x, breakdown = x0, False
    for cycle in range(_MAX_RESTARTS + 1):
        np.subtract(rhs, operator(x), out=basis[0])
        beta = float(np.linalg.norm(basis[0]))
        residual = beta / scale
        if residual <= tol:
            return x, residual, history
        if cycle == _MAX_RESTARTS or breakdown or not np.isfinite(residual):
            raise SolverFailureError(
                f"relative residual {residual:.3e} exceeds tol {tol:.3e} "
                f"after {len(history)} GMRES iterations",
                residuals=history + [residual],
            )
        basis[0] /= beta
        tri = np.zeros((_RESTART, _RESTART))  # the rotated Hessenberg matrix
        cs, sn = [], []
        g = [beta]
        for k in range(_RESTART):
            v = operator(precondition(basis[k]))
            norm0 = np.linalg.norm(v)
            h = basis[:k + 1] @ v
            v -= h @ basis[:k + 1]
            h2 = basis[:k + 1] @ v
            v -= h2 @ basis[:k + 1]
            col = (h + h2).tolist()
            sub = float(np.linalg.norm(v))
            breakdown = sub <= eps * norm0
            if breakdown:
                sub = 0.0
            else:
                np.divide(v, sub, out=basis[k + 1])
            for i, (c, s) in enumerate(zip(cs, sn)):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = float(np.hypot(col[k], sub))
            c, s = (col[k] / rho, sub / rho) if rho > 0 else (1.0, 0.0)
            cs.append(c)
            sn.append(s)
            col[k] = rho
            tri[:k + 1, k] = col
            g.append(-s * g[k])
            g[k] *= c
            history.append(abs(g[k + 1]) / scale)
            if history[-1] <= tol / 2 or breakdown:
                break
        # After a breakdown with a zero pivot the last direction adds nothing
        # and is dropped, so the triangle left has a nonzero diagonal.
        m = k + 1 if tri[k, k] != 0 else k
        x += precondition(np.linalg.solve(tri[:m, :m], g[:m]) @ basis[:m])


def solve_dirichlet(grid: CurvGrid, f, inner_value, outer_value,
                    options: Optional[SolveOptions] = None):
    """Solve ``Lap(u) = f`` with Dirichlet data on both boundary rows.

    Parameters
    ----------
    f : float
        Constant right-hand side of the equation (``-2`` for the torsion
        problem); it must be a finite scalar.
    inner_value, outer_value : float or (ntheta,) array
        Finite Dirichlet data on the boundary rows.
    options : SolveOptions, optional

    Returns
    -------
    (ScalarField, SolveStats)
        The solution field and solve diagnostics.  The true relative
        residual of the eliminated linear system is checked against
        ``options.tol``; if the contract is missed, :class:`SolverFailureError`
        is raised carrying the residual history.
    """
    opts = options or SolveOptions()
    ns, nt = grid.ns, grid.ntheta
    f = np.asarray(f, dtype=float)
    if f.ndim != 0 or not np.isfinite(f):
        raise InvalidInputError("f must be a finite scalar")
    a_arr = _per_angle(inner_value, nt, "inner_value")
    b_arr = _per_angle(outer_value, nt, "outer_value")

    t0 = time.perf_counter()
    stencil = _stencil(grid)
    # The Dirichlet rows are eliminated: their stencil terms move to the
    # right-hand side, and the operator sees zero boundary rows.  Only the
    # first and last interior rows reach a Dirichlet row, through the di = -1
    # and di = 1 coefficients; summed in the stencil's order from 0, as in
    # _apply, these rows are bit for bit those of _apply on the boundary
    # array, whose other terms are all zero.  The solution array is made
    # after the iteration, so that it is not held alongside the Krylov basis.
    padded = np.zeros((ns, nt))  # the iterate between zero boundary rows

    def operator(x):
        padded[1:-1] = x.reshape(ns - 2, nt)
        return _apply(stencil, padded).ravel()

    # Huge finite data can overflow the right-hand side or its norm; the
    # solve then fails in GMRES as a non-finite residual, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = grid.jac[1:-1] * f
        rhs[0] -= sum(coef[0] * np.roll(a_arr, -dj)
                      for (di, dj), coef in stencil.items() if di == -1)
        rhs[-1] -= sum(coef[-1] * np.roll(b_arr, -dj)
                       for (di, dj), coef in stencil.items() if di == 1)
        rhs = rhs.ravel()
        t1 = time.perf_counter()
        precondition = _theta_averaged_inverse(stencil)
        x0 = _lumped_start(stencil, rhs)
        t2 = time.perf_counter()
        x, residual, history = _gmres(operator, precondition, rhs, x0, opts.tol)
    t3 = time.perf_counter()

    values = np.vstack([a_arr, x.reshape(ns - 2, nt), b_arr])
    stats = SolveStats(unknowns=rhs.size, iterations=len(history), residual=residual,
                       seconds=t3 - t0, residuals=history + [residual], assemble_s=t1 - t0,
                       setup_s=t2 - t1, solve_s=t3 - t2)
    return ScalarField(grid=grid, values=values), stats


def gradient_field(field: ScalarField) -> GradientField:
    """Cartesian gradient and its squared magnitude at every node.

    Both the field and the node coordinates are differenced with the same
    stencils, ``numpy.gradient`` with second-order one-sided ends in s and
    the periodic centered difference in theta, taken with ``numpy.roll``,
    and the 2x2 map is inverted per node, so the reconstruction is exact for
    fields that are affine in x and y regardless of the grid mapping.
    """
    grid, u = field.grid, field.values
    us, xs, ys = (np.gradient(a, grid.ds, axis=0, edge_order=2) for a in (u, grid.x, grid.y))
    ut, xt, yt = ((np.roll(a, -1, 1) - np.roll(a, 1, 1)) / (2 * grid.dtheta)
                  for a in (u, grid.x, grid.y))
    det = xs * yt - xt * ys
    if np.any(np.abs(det) < 1e-14 * np.max(np.abs(det))):
        raise InvalidInputError("discrete Jacobian is degenerate")
    gx = (us * yt - ut * ys) / det
    gy = (ut * xs - us * xt) / det
    return GradientField(gx=gx, gy=gy, w=gx * gx + gy * gy)


def neumann_trace(field: ScalarField, which: str) -> np.ndarray:
    """Outward normal derivative along one boundary row."""
    row, normal = field.grid.row(which), field.grid.outward_normal(which)
    g = field.derived(gradient_field)
    return g.gx[row] * normal[0] + g.gy[row] * normal[1]


@dataclass(frozen=True)
class ManufacturedField:
    """Exact field with constant Laplacian, for convergence studies."""

    name: str
    fn: Callable
    rhs: float


def manufactured_field(kind: str, params: Optional[ModelParams] = None) -> ManufacturedField:
    """Build a manufactured exact solution.

    ``kind`` is one of ``model`` (radial model profile, needs ``params``),
    ``saddle`` (model plus the harmonic x^2 - y^2, needs ``params``),
    ``linear`` (u = x, zero right-hand side) or ``constant``.
    """
    fields = {
        "model": (lambda x, y: model_u(params, np.hypot(x, y)), -2.0),
        "saddle": (lambda x, y: x * x - y * y + model_u(params, np.hypot(x, y)), -2.0),
        "linear": (lambda x, y: x + 0.0 * y, 0.0),
        "constant": (lambda x, y: np.ones_like(x), 0.0),
    }
    if kind not in fields:
        raise InvalidInputError(f"unknown manufactured field kind {kind!r}")
    if kind in ("model", "saddle") and params is None:
        raise InvalidInputError(f"kind {kind!r} needs model parameters")
    return ManufacturedField(kind, *fields[kind])


@dataclass
class MmsResult:
    sizes: list
    hs: list
    linf: list
    l2: list
    order_linf: Optional[float]
    order_l2: Optional[float]
    exact: bool

    def describe(self) -> str:
        if self.exact:
            return "exact"
        return f"order_linf={self.order_linf:.3f} order_l2={self.order_l2:.3f}"


def mms_convergence(spec: DomainSpec, exact: ManufacturedField, sizes: Sequence[int],
                    options: Optional[SolveOptions] = None) -> MmsResult:
    """Convergence study of the manufactured field ``exact`` on square grids.

    Each entry of ``sizes``, of which at least two must differ, is used for
    both grid directions.  Errors below 1e-12 relative to the field magnitude
    are reported as ``exact`` with no fitted order; otherwise the slopes of
    log-error against log-h are fitted by least squares for both norms.
    """
    sizes = list(sizes)  # an iterator would be spent by the check below
    if len(set(sizes)) < 2:  # one log h would leave the fitted order arbitrary
        raise InvalidInputError("mms needs at least two distinct grid sizes")
    ns, hs, linf, l2, scale = [], [], [], [], 0.0
    for n in sizes:
        grid = build_grid(spec, n, n)
        ue = np.asarray(exact.fn(grid.x, grid.y), dtype=float)
        fld, _ = solve_dirichlet(grid, exact.rhs, ue[0], ue[-1], options)
        err = fld.values - ue
        ns.append(grid.ns)
        hs.append(1.0 / (grid.ns - 1))
        linf.append(float(np.max(np.abs(err))))
        l2.append(float(np.sqrt(np.average(err * err, weights=grid.area_w))))
        scale = max(scale, float(np.max(np.abs(ue))))
    if max(linf) <= 1e-12 * (1.0 + scale):
        return MmsResult(ns, hs, linf, l2, None, None, True)
    lh = np.log(hs)
    o_inf = float(np.polyfit(lh, np.log(np.maximum(linf, 1e-300)), 1)[0])
    o_l2 = float(np.polyfit(lh, np.log(np.maximum(l2, 1e-300)), 1)[0])
    return MmsResult(ns, hs, linf, l2, o_inf, o_l2, False)


def write_field(field: ScalarField, path) -> None:
    """Write a field to disk: header with sizes and domain hash, then rows
    ``i j x1 x2 value`` in row-major node order.  Deterministic bytes."""
    g = field.grid
    i, j = np.indices((g.ns, g.ntheta))
    table = np.stack([i, j, g.x, g.y, field.values], axis=-1)  # (ns, ntheta, 5)
    row_text = "%d %d %.17g %.17g %.17g\n" * g.ntheta  # a grid row at a time bounds peak memory
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# scalar field on a blended polar grid\n"
                 f"{g.ns} {g.ntheta} {g.spec.spec_hash()}\n# i j x1 x2 value\n")
        for block in table:
            fh.write(row_text % tuple(block.ravel().tolist()))


def read_field(path):
    """Read a field file; returns ``(meta, values)`` with values (ns, ntheta).

    Raises :class:`InvalidInputError` unless the file parses, every number in
    it is finite and its rows list every node exactly once, in the row-major
    order :func:`write_field` uses.
    """
    try:
        with open(path) as fh:
            fh.readline()
            head = fh.readline().split()
        ns, ntheta, digest = int(head[0]), int(head[1]), head[2]
        with warnings.catch_warnings():  # a file without node rows fails the row count
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, skiprows=3, ndmin=2)
    except (ValueError, IndexError) as e:
        raise InvalidInputError(f"field file does not parse: {e}") from None
    if ns < 1 or ntheta < 1 or table.shape != (ns * ntheta, 5):
        raise InvalidInputError("field file row count does not match header")
    if not np.all(np.isfinite(table)):
        raise InvalidInputError("field file holds a non-finite number")
    cols = np.ascontiguousarray(table.T).reshape(5, ns, ntheta)
    if not np.array_equal(cols[:2], np.indices((ns, ntheta))):
        raise InvalidInputError("field file rows are not the nodes in row-major order")
    meta = {"ns": ns, "ntheta": ntheta, "domain_hash": digest, "x": cols[2], "y": cols[3]}
    return meta, cols[4]
