"""Finite-difference Poisson solver on curvilinear annular grids.

The Laplacian is discretized in conservative flux form on the blended polar
grid: with metric coefficients A, B, C at cell interfaces,

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
theta.  That operator is circulant in theta, so an FFT in theta splits it
into one tridiagonal system in s per Fourier mode -- the fast Poisson solver
on circles (Hockney 1965; Buzbee, Golub & Nielson 1970), used here as a
separable preconditioner (Concus & Golub 1973).  On circles the metric
coefficients depend on s alone and the mixed terms vanish, so the
preconditioner is the operator itself and GMRES stops after one iteration.
Without the scaling the average would be dominated by the narrowest part of
the annulus, where the radial coefficients grow like 1/gap, and the
iteration count would grow as the boundaries approach each other.  With it
the count does not depend on the gap; it grows with the boundary slope, and
for steep boundaries also with the grid.

SciPy is imported inside the functions that use it, so that importing the
package (and the CLI's ``fit`` and ``--help``) does not pay for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError, SolverFailureError
from .geometry import CurvGrid, DomainSpec, build_grid
from .models import ModelParams, model_u

# GMRES restart length, and the number of restart cycles before the solve is
# declared failed (at most 600 iterations; the steepest boundaries measured,
# harmonic 16 at amplitude 0.49, need ~210 at 257^2 and ~410 at 513^2).
_RESTART = 60
_MAX_RESTARTS = 10


@dataclass
class SolveOptions:
    """Linear-solver controls.

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
    preconditioner factorization (``setup_s``) and the iteration.
    """

    unknowns: int
    iterations: int
    residual: float
    seconds: float
    residuals: list
    assemble_s: float
    setup_s: float
    solve_s: float


@dataclass
class ScalarField:
    """Node values of a scalar quantity on a grid."""

    grid: CurvGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ns, self.grid.ntheta):
            raise InvalidInputError("field values must be shaped (ns, ntheta)")


@dataclass
class GradientField:
    gx: np.ndarray
    gy: np.ndarray
    w: np.ndarray


def _per_angle(value, ntheta, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(ntheta, float(arr))
    if arr.shape != (ntheta,):
        raise InvalidInputError(f"{name} must be a scalar or a length-ntheta array")
    return arr


def _stencil(grid: CurvGrid) -> dict:
    """The 9-point coefficients ``{(di, dj): (ns-2, ntheta) array}``: row
    ``i - 1`` of entry ``(di, dj)`` multiplies ``u[i + di, j + dj]`` in the
    equation of interior node ``(i, j)``."""
    ns = grid.ns
    ds, dt = grid.ds, grid.dtheta
    q = 1.0 / (4.0 * ds * dt)

    as_p = grid.coef_a[1:ns - 1] / ds**2
    as_m = grid.coef_a[0:ns - 2] / ds**2
    bs_p = grid.coef_b_s[1:ns - 1] * q
    bs_m = grid.coef_b_s[0:ns - 2] * q
    bt_p = grid.coef_b_t[1:ns - 1] * q
    bt_m = np.roll(grid.coef_b_t[1:ns - 1], 1, axis=1) * q
    ct_p = grid.coef_c[1:ns - 1] / dt**2
    ct_m = np.roll(grid.coef_c[1:ns - 1], 1, axis=1) / dt**2

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


def _theta_averaged_inverse(stencil) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of ``W^-1 avg(W L)``, as a function of a flattened
    interior vector: ``L`` is the operator of ``stencil``, ``W`` scales the
    equations of theta column ``j`` by one over the mean magnitude of their
    diagonal, and ``avg`` replaces each coefficient by its mean over theta.

    ``avg(W L)`` is circulant in theta.  With ``numpy.fft.rfft`` along
    theta, a shift by ``dj`` nodes multiplies mode ``k`` by
    ``omega_k**dj``, ``omega_k = exp(2 pi i k / ntheta)``, which leaves one
    tridiagonal system in s per mode.  The systems are stacked mode by mode
    into one block-diagonal tridiagonal matrix (the couplings between blocks
    are zero) and factored by a single LAPACK ``zgttrf``.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    n_in, nt = stencil[0, 0].shape
    diag = np.abs(stencil[0, 0]).mean(axis=0)
    if not np.all(diag > 0):
        raise SolverFailureError("the theta-averaged preconditioner is singular")
    w = 1.0 / diag
    omega = np.exp(2j * np.pi * np.arange(nt // 2 + 1) / nt)
    band = {di: sum((coef * w).mean(axis=1) * omega[:, None] ** dj
                    for (d, dj), coef in stencil.items() if d == di)
            for di in (-1, 0, 1)}  # each (modes, n_in)
    band[-1][:, 0] = 0.0   # the first and last interior rows couple to the
    band[1][:, -1] = 0.0   # Dirichlet rows, eliminated into the right-hand side
    dl, d, du, du2, ipiv, info = zgttrf(band[-1].ravel()[1:], band[0].ravel(),
                                        band[1].ravel()[:-1])
    if info > 0:
        raise SolverFailureError("the theta-averaged preconditioner is singular")

    def apply(r):
        r_hat = np.fft.rfft(r.reshape(n_in, nt) * w, axis=1)
        x_hat, _ = zgttrs(dl, d, du, du2, ipiv, r_hat.T.reshape(-1, 1))
        return np.fft.irfft(x_hat.reshape(-1, n_in).T, n=nt, axis=1).ravel()

    return apply


def solve_dirichlet(grid: CurvGrid, f, inner_value, outer_value,
                    options: Optional[SolveOptions] = None):
    """Solve ``Lap(u) = f`` with Dirichlet data on both boundary rows.

    Parameters
    ----------
    f : float or (ns, ntheta) array
        Right-hand side of the equation (``-2`` for the torsion problem).
    inner_value, outer_value : float or (ntheta,) array
        Dirichlet data on the boundary rows.
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
    f_arr = np.asarray(f, dtype=float)
    if f_arr.ndim == 0:
        f_arr = np.full((ns, nt), float(f_arr))
    elif f_arr.shape != (ns, nt):
        raise InvalidInputError("f must be a scalar or an (ns, ntheta) array")
    if not np.all(np.isfinite(f_arr)):
        raise InvalidInputError("f must be finite")
    a_arr = _per_angle(inner_value, nt, "inner_value")
    b_arr = _per_angle(outer_value, nt, "outer_value")

    import scipy.sparse.linalg as spla

    t0 = time.perf_counter()
    stencil = _stencil(grid)
    # The Dirichlet rows are eliminated: their stencil terms move to the
    # right-hand side, and the operator sees zero boundary rows.
    values = np.zeros((ns, nt))
    values[0], values[-1] = a_arr, b_arr
    rhs = (grid.jac[1:-1] * f_arr[1:-1] - _apply(stencil, values)).ravel()

    def operator(x):
        return _apply(stencil, np.pad(x.reshape(ns - 2, nt), ((1, 1), (0, 0)))).ravel()

    t1 = time.perf_counter()
    precondition = _theta_averaged_inverse(stencil)
    t2 = time.perf_counter()
    # Right preconditioning: GMRES solves (A P^-1) y = rhs, so its residual
    # estimates are those of x = P^-1 y in the unpreconditioned norm.  Half
    # of tol leaves room for the rounding of the final P^-1 y.
    history = []
    op = spla.LinearOperator((rhs.size, rhs.size),
                             matvec=lambda v: operator(precondition(v)), dtype=float)
    y, _ = spla.gmres(op, rhs, rtol=opts.tol / 2, restart=_RESTART,
                      maxiter=_MAX_RESTARTS, callback=history.append,
                      callback_type="pr_norm")
    x = precondition(y)
    residual = float(
        np.linalg.norm(operator(x) - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )
    residuals = [float(r) for r in history] + [residual]
    if not np.isfinite(residual) or residual > opts.tol:
        raise SolverFailureError(
            f"relative residual {residual:.3e} exceeds tol {opts.tol:.3e} "
            f"after {len(history)} GMRES iterations",
            residuals=residuals,
        )
    t3 = time.perf_counter()

    values[1:-1] = x.reshape(ns - 2, nt)
    stats = SolveStats(unknowns=rhs.size, iterations=len(history), residual=residual,
                       seconds=t3 - t0, residuals=residuals, assemble_s=t1 - t0,
                       setup_s=t2 - t1, solve_s=t3 - t2)
    return ScalarField(grid=grid, values=values), stats


def _d_s(arr, ds):
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2 * ds)
    out[0] = (-3 * arr[0] + 4 * arr[1] - arr[2]) / (2 * ds)
    out[-1] = (3 * arr[-1] - 4 * arr[-2] + arr[-3]) / (2 * ds)
    return out


def _d_t(arr, dt):
    return (np.roll(arr, -1, axis=1) - np.roll(arr, 1, axis=1)) / (2 * dt)


def gradient_field(grid: CurvGrid, field: ScalarField) -> GradientField:
    """Cartesian gradient and its squared magnitude at every node.

    Both the field and the node coordinates are differenced with the same
    stencils (centered inside, one-sided second order on the boundary rows)
    and the 2x2 map is inverted per node, so the reconstruction is exact for
    fields that are affine in x and y regardless of the grid mapping.
    """
    fg = field.grid
    if fg is not grid and (fg.ns, fg.ntheta, fg.spec.spec_hash()) != (
            grid.ns, grid.ntheta, grid.spec.spec_hash()):
        raise InvalidInputError("field does not match the grid")
    u = field.values
    us, ut = _d_s(u, grid.ds), _d_t(u, grid.dtheta)
    xs, xt = _d_s(grid.x, grid.ds), _d_t(grid.x, grid.dtheta)
    ys, yt = _d_s(grid.y, grid.ds), _d_t(grid.y, grid.dtheta)
    det = xs * yt - xt * ys
    if np.any(np.abs(det) < 1e-14 * np.max(np.abs(det))):
        raise InvalidInputError("discrete Jacobian is degenerate")
    gx = (us * yt - ut * ys) / det
    gy = (ut * xs - us * xt) / det
    return GradientField(gx=gx, gy=gy, w=gx * gx + gy * gy)


def neumann_trace(grid: CurvGrid, field: ScalarField, which: str) -> np.ndarray:
    """Outward normal derivative along one boundary row."""
    row, normal = grid.row(which), grid.outward_normal(which)
    g = gradient_field(grid, field)
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
    if kind == "model":
        if params is None:
            raise InvalidInputError("kind 'model' needs model parameters")
        return ManufacturedField(
            "model", lambda x, y, p=params: model_u(p, np.hypot(x, y)), -2.0
        )
    if kind == "saddle":
        if params is None:
            raise InvalidInputError("kind 'saddle' needs model parameters")
        return ManufacturedField(
            "saddle",
            lambda x, y, p=params: x * x - y * y + model_u(p, np.hypot(x, y)),
            -2.0,
        )
    if kind == "linear":
        return ManufacturedField("linear", lambda x, y: x + 0.0 * y, 0.0)
    if kind == "constant":
        return ManufacturedField("constant", lambda x, y: np.ones_like(x), 0.0)
    raise InvalidInputError(f"unknown manufactured field kind {kind!r}")


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


def mms_convergence(spec: DomainSpec, exact: Union[ManufacturedField, ModelParams],
                    sizes: Sequence[int],
                    options: Optional[SolveOptions] = None) -> MmsResult:
    """Manufactured-solution convergence study on square grids.

    Each entry of ``sizes``, of which at least two must differ, is used for
    both grid directions.  Errors below 1e-12 relative to the field magnitude
    are reported as ``exact`` with no fitted order; otherwise the slopes of
    log-error against log-h are fitted by least squares for both norms.
    """
    if isinstance(exact, ModelParams):
        exact = manufactured_field("model", exact)
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) < 2:  # one log h would leave the fitted order arbitrary
        raise InvalidInputError("mms needs at least two distinct grid sizes")
    hs, linf, l2, scale = [], [], [], 0.0
    for n in sizes:
        grid = build_grid(spec, n, n)
        ue = np.asarray(exact.fn(grid.x, grid.y), dtype=float)
        fld, _ = solve_dirichlet(grid, exact.rhs, ue[0], ue[-1], options)
        err = fld.values - ue
        hs.append(1.0 / (n - 1))
        linf.append(float(np.max(np.abs(err))))
        wsum = float(np.sum(grid.area_w))
        l2.append(float(np.sqrt(np.sum(err * err * grid.area_w) / wsum)))
        scale = max(scale, float(np.max(np.abs(ue))))
    if max(linf) <= 1e-12 * (1.0 + scale):
        return MmsResult(sizes, hs, linf, l2, None, None, True)
    lh = np.log(hs)
    o_inf = float(np.polyfit(lh, np.log(np.maximum(linf, 1e-300)), 1)[0])
    o_l2 = float(np.polyfit(lh, np.log(np.maximum(l2, 1e-300)), 1)[0])
    return MmsResult(sizes, hs, linf, l2, o_inf, o_l2, False)


def write_field(field: ScalarField, path) -> None:
    """Write a field to disk: header with sizes and domain hash, then rows
    ``i j x1 x2 value`` in row-major node order.  Deterministic bytes."""
    g = field.grid
    header = "\n".join([
        "# scalar field on a blended polar grid",
        f"{g.ns} {g.ntheta} {g.spec.spec_hash()}",
        "# i j x1 x2 value",
    ])
    i, j = np.indices((g.ns, g.ntheta))
    rows = np.column_stack([a.ravel() for a in (i, j, g.x, g.y, field.values)])
    np.savetxt(path, rows, fmt="%d %d %.17g %.17g %.17g", header=header, comments="")


def read_field(path):
    """Read a field file; returns ``(meta, values)`` with values (ns, ntheta).

    Raises :class:`InvalidInputError` unless the file parses and its rows list
    every node exactly once, in the row-major order :func:`write_field` uses.
    """
    try:
        with open(path) as fh:
            fh.readline()
            head = fh.readline().split()
        ns, ntheta, digest = int(head[0]), int(head[1]), head[2]
        table = np.loadtxt(path, skiprows=3, ndmin=2)
    except (ValueError, IndexError) as e:
        raise InvalidInputError(f"field file does not parse: {e}") from None
    if ns < 1 or ntheta < 1 or table.shape != (ns * ntheta, 5):
        raise InvalidInputError("field file row count does not match header")
    cols = np.ascontiguousarray(table.T).reshape(5, ns, ntheta)
    if not np.array_equal(cols[:2], np.indices((ns, ntheta))):
        raise InvalidInputError("field file rows are not the nodes in row-major order")
    meta = {"ns": ns, "ntheta": ntheta, "domain_hash": digest, "x": cols[2], "y": cols[3]}
    return meta, cols[4]
