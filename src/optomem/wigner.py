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
and U^M[m, a] = (-1)^(M-m) d^{M/2}[m, a] is a real orthogonal
(M+1) x (M+1) matrix, d^j the Wigner small-d matrix of spin j at angle
pi/2 with rows and columns indexed from the top weight.  The matrices of
every shell come from d^0 = [[1]] by the spin-1/2 coupling recursion
(``_shell_rotations``).  The map rho -> C is block diagonal by shell
M = m + n and has O(N^3) entries (27 000 at N = 30).  ``wigner_map``
builds it and the two Phi once; each grid is then one sparse product and
two small dense ones (0.2 ms on the default 201 x 201 grid, 2-vCPU Xeon
VM, one BLAS thread).  A state's field depends only on that state.

The error is absolute, not relative.  Against a 40-digit evaluation of
Fock |N-1> at N = 30, 60 and 90 (every 7th point of the default grid and of
one reaching past the state's turning radius) it is at most 1.6e-15; on the
``fig2-combined`` snapshots the fields agree with the earlier Laguerre
recurrence kernel to 7.2e-16.  Cells far below that, in the tails, carry
no guaranteed relative accuracy: on those snapshots, cells under 1e-16
differ from the earlier kernel's by up to 7% of their value.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
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
        for name in ("x_min", "x_max", "p_min", "p_max"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"grid extent {name} must be finite, got {value}")
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
    return wigner_map(_levels(rho), grid)(rho)


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


def _shell_rotations(top: int) -> list[np.ndarray]:
    """U^M for M = 0..``top``, by the stretched spin-1/2 coupling recursion
    (Risbo, J. Geodesy 70, 383, 1996).

    With p = q = cos(pi/4) = sin(pi/4) and d = d^{(M-1)/2}(pi/2) indexed
    0..M-1, d^{M/2}(pi/2) is four weighted, shifted copies of d:

        M d'[i, k] = p sqrt((M-i)(M-k)) d[i, k]   + q sqrt(i (M-k)) d[i-1, k]
                   - q sqrt((M-i) k) d[i, k-1] + p sqrt(i k) d[i-1, k-1],

    a term dropped where its index leaves 0..M-1.  U^M[r, c] is
    (-1)^(M-r) d^{M/2}[r, c].  Against the eigendecomposition of the
    rotation generator kept in the tests, every shell up to 178 agrees to
    8.3e-15.
    """
    half = np.sqrt(0.5)
    d = np.ones((1, 1))
    rotations = [d]
    for shell in range(1, top + 1):
        stay = np.sqrt(np.arange(shell, 0, -1.0))  # sqrt(M - i) for i < M
        move = np.sqrt(np.arange(1.0, shell + 1))  # sqrt(i + 1) for i < M
        scaled = (half / shell) * d
        new = np.zeros((shell + 1, shell + 1))
        new[:-1, :-1] += stay[:, None] * scaled * stay
        new[1:, :-1] += move[:, None] * scaled * stay
        new[:-1, 1:] -= stay[:, None] * scaled * move
        new[1:, 1:] += move[:, None] * scaled * move
        d = new
        rotations.append((-1.0) ** (shell - np.arange(shell + 1.0))[:, None] * d)
    return rotations


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
    for shell, u in enumerate(_shell_rotations(k - 1)):
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
