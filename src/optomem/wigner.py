"""Wigner quasi-probability evaluation on a rectangular phase-space grid.

Quadrature convention: x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2))
with hbar = 1, so the vacuum has variance 1/2, peak value 1/pi, and a
coherent state |alpha> peaks at (sqrt(2) Re alpha, sqrt(2) Im alpha).  In
this convention every Wigner value lies in [-1/pi, 1/pi] and the function
integrates to the state's trace.

The field is an exact finite separable sum (Beijersbergen et al., Opt.
Commun. 96, 123, 1993: Laguerre-Gauss modes are finite sums of
Hermite-Gauss modes of the same order).  The Wigner function of |m><n| is a
Laguerre-Gauss function of (x, p) of order m + n, so for an N-level state

    W(x_i, p_j) = (Phi_x C Phi_p^T)[i, j],
    Phi_x[i, a] = psi_a(sqrt(2) x_i),   Phi_p[j, b] = psi_b(sqrt(2) p_j),
    C_ab = pi^(-1/2) Re[(-i)^b sum_{m+n=a+b} rho_mn U^{a+b}[m, a]],

for a, b < K = 2N - 1, where psi_a are the orthonormal Hermite functions
and U^M = diag((-1)^(M-m)) expm((pi/4) J_M) is a real orthogonal
(M+1) x (M+1) matrix, J_M the generator of ``_shell_rotation``.
The map rho -> C is block diagonal by shell M = m + n and has O(N^3)
entries (27 000 at N = 30).  ``wigner_map`` builds it and the two Phi
once (13 ms at N = 30 on a 2-vCPU Xeon VM, one BLAS thread); each grid is
then one sparse product and two small dense ones (0.2 ms on the default
201 x 201 grid).  A state's field depends only on that state.

The error is absolute, not relative.  Against a 40-digit evaluation of
Fock |N-1> at N = 30, 60 and 90 (every 7th point of the default grid and of
one reaching past the state's turning radius) it is at most 1.6e-15; on the
``fig2-combined`` snapshots the fields agree with the earlier Laguerre
recurrence kernel to 7.2e-16.  Cells far below that, in the tails, carry
no guaranteed relative accuracy: on those snapshots, cells under 1e-16
differ from the earlier kernel's by up to 7% of their value.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .states import DensityMatrix


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular grid in the (x, p) quadrature plane."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid extents must satisfy x_max > x_min and p_max > p_min")
        if self.nx < 2 or self.np < 2:
            raise ValueError("need at least 2 samples along each axis")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    @property
    def cell_area(self) -> float:
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        dp = (self.p_max - self.p_min) / (self.np - 1)
        return dx * dp


DEFAULT_GRID = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201)


@dataclass(frozen=True)
class WignerField:
    """Wigner values sampled on a grid; values[i, j] = W(x_i, p_j).

    ``values`` is held read-only.  A read-only float array that owns its
    data, as ``wigner_map`` makes, is held as it is; anything else is copied.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.flags.writeable or not vals.flags.owndata:
            vals = vals.copy()
        if vals.shape != (self.grid.nx, self.grid.np):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.np})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        """Riemann-sum normalisation over the grid."""
        return float(np.sum(self.values) * self.grid.cell_area)


def wigner(rho: DensityMatrix, grid: PhaseSpaceGrid = DEFAULT_GRID) -> WignerField:
    """Evaluate the Wigner function of a single-mode density matrix."""
    return next(wigner_fields([rho], grid))


def wigner_fields(
    states: Iterable[DensityMatrix], grid: PhaseSpaceGrid = DEFAULT_GRID
) -> Iterator[WignerField]:
    """Evaluate the Wigner functions of several single-mode states on one grid.

    All states must share one truncation (checked at the call).  The shell
    table and the Hermite functions are built once (:func:`wigner_map`);
    fields are then yielded in order, each from its own state alone.
    """
    states = list(states)
    sizes = {_levels(rho) for rho in states}
    if len(sizes) > 1:
        raise ValueError("wigner_fields expects states of one truncation")
    return map(wigner_map(sizes.pop(), grid), states) if states else iter(())


def wigner_map(
    n: int, grid: PhaseSpaceGrid = DEFAULT_GRID
) -> Callable[[DensityMatrix], WignerField]:
    """The map from an ``n``-level single-mode state to its field on ``grid``.

    The shell table and the Hermite functions are built here, once; each
    call then costs one sparse and two small dense products and only reads
    them, so the map may be called from several threads at once.
    """
    k = 2 * n - 1
    table = _shell_table(n)
    phi_x = _hermite_functions(np.sqrt(2.0) * grid.x_axis(), k)
    phi_p = _hermite_functions(np.sqrt(2.0) * grid.p_axis(), k)

    def field(rho: DensityMatrix) -> WignerField:
        if _levels(rho) != n:
            raise ValueError(f"a map for {n} levels got a {rho.dims.total_dim}-level state")
        # (Re rho_mn, Im rho_mn) interleaved, as the table's columns expect
        parts = np.ascontiguousarray(rho.data, dtype=np.complex128).reshape(-1).view(np.float64)
        coeffs = (table @ parts).reshape(k, k)
        values = phi_x @ coeffs @ phi_p.T
        values.setflags(write=False)
        return WignerField(grid, values)

    return field


def _levels(rho: DensityMatrix) -> int:
    """The truncation of a single-mode state; ValueError for more modes."""
    if rho.dims.n_modes != 1:
        raise ValueError(
            f"wigner expects a single-mode state; got {rho.dims.n_modes} modes "
            "(reduce with partial_trace first)"
        )
    return rho.dims.total_dim


def _hermite_functions(s: np.ndarray, k: int) -> np.ndarray:
    """psi_a(s) for a < k, one column per order: the orthonormal Hermite
    functions from psi_0 = pi^(-1/4) e^(-s^2/2) and the normalised recurrence
    psi_{a+1} = sqrt(2/(a+1)) s psi_a - sqrt(a/(a+1)) psi_{a-1}.
    """
    psi = np.empty((k, s.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * s * s)
    if k > 1:
        psi[1] = np.sqrt(2.0) * s * psi[0]
    for a in range(1, k - 1):
        psi[a + 1] = np.sqrt(2.0 / (a + 1)) * s * psi[a] - np.sqrt(a / (a + 1)) * psi[a - 1]
    return psi.T


def _shell_rotation(shell: int) -> np.ndarray:
    """U^M for M = ``shell``: diag((-1)^(M-m)) expm((pi/4) J_M), where J_M is
    the real antisymmetric tridiagonal matrix with
    J_M[a+1, a] = -J_M[a, a+1] = sqrt((a+1)(M-a)).

    With D = diag(i^a), D^-1 J_M D = -i S for the real symmetric tridiagonal
    S of the same off-diagonal, whose eigenvalues are the integers
    l = -M, -M+2, ..., M.  So with S = V diag(l) V^T from LAPACK,
    expm((pi/4) J_M)[r, c] = Re(i^(r-c) sum_k V[r, k] V[c, k] e^(-i pi l_k/4))
                           = (-1)^(((r-c) mod 4) // 2) G[r, c],
    G = V diag(cos(pi l/4) + sin(pi l/4)) V^T, whose weights
    sqrt(2) sin(pi (l+1)/4) are taken exactly from a table.  Against a
    40-digit expm, at M = 5, 10, 20, 30 and 40, this is off by at most
    5.1e-15, scipy.linalg.expm of (pi/4) J_M by up to 7.1e-14.
    """
    a = np.arange(shell)
    off = np.sqrt((a + 1.0) * (shell - a))
    _, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(shell + 1), off)
    levels = np.arange(-shell, shell + 1, 2)
    weights = np.array([0.0, 1.0, np.sqrt(2.0), 1.0, 0.0, -1.0, -np.sqrt(2.0), -1.0])
    g = (vecs * weights[(levels + 1) % 8]) @ vecs.T
    r = np.arange(shell + 1)
    signs = (-1.0) ** ((r[:, None] - r[None, :]) % 4 // 2 + (shell - r)[:, None])
    return signs * g


def _shell_table(n: int) -> sp.csr_array:
    """The linear map rho -> C for an n-level mode, as a sparse matrix.

    Its columns are the interleaved (Re, Im) parts of the row-major rho,
    its rows the row-major C of shape (k, k), k = 2n - 1.  Since
    (-i)^b is real for even b and imaginary for odd b,
    C_ab = pi^(-1/2) sum_{m+n=a+b} (-1)^(b//2) U^{a+b}[m, a] x_mn, where x_mn
    is Re rho_mn for even b and Im rho_mn for odd b.  The map is block
    diagonal by shell M = m + n = a + b, with O(n^3) entries.  Row
    a k + b holds one entry per m of its shell, in increasing m, so the
    arrays are filled shell by shell in their final CSR order.
    """
    k = 2 * n - 1
    shells = np.add.outer(np.arange(k), np.arange(k)).ravel()
    first = np.maximum(0, shells - n + 1)
    counts = np.maximum(np.minimum(shells, n - 1) + 1 - first, 0)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for shell in range(k):
        u = _shell_rotation(shell)
        m = np.arange(max(0, shell - n + 1), min(shell, n - 1) + 1)
        a = np.arange(shell + 1)[:, None]
        b = shell - a
        at = indptr[a * k + b] + np.arange(m.size)
        indices[at] = 2 * (m * n + shell - m) + b % 2
        data[at] = (-1.0) ** (b // 2) * u[m].T
    data /= np.sqrt(np.pi)
    return sp.csr_array((data, indices, indptr), shape=(k * k, 2 * n * n))


def min_value(field: WignerField) -> tuple[float, float, float]:
    """Global minimum of the field and its (x, p) location."""
    idx = np.unravel_index(np.argmin(field.values), field.values.shape)
    x = field.grid.x_axis()[idx[0]]
    p = field.grid.p_axis()[idx[1]]
    return float(field.values[idx]), float(x), float(p)


def negativity_volume(field: WignerField) -> float:
    """Riemann sum of the negative part, sum (|W| - W)/2 * cell area."""
    vals = field.values
    return float(np.sum((np.abs(vals) - vals) * 0.5) * field.grid.cell_area)
