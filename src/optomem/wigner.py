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
all shells come together from one three-term recurrence along their
columns (``_shell_rotations``).  The map rho -> C is block diagonal by
shell M = m + n and has O(N^3) entries (27 000 at N = 30), held as index
arrays.  ``wigner_map`` builds it and the two Phi once; each grid is then
one sparse product (a gather and one ``np.bincount``) and two small
dense ones (0.2 ms on the default 201 x 201 grid, 2-vCPU Xeon
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
    rows, columns, weights = _shell_table(n)
    phi_x = _hermite_functions(np.sqrt(2.0) * grid.x_axis(), k)
    phi_p = _hermite_functions(np.sqrt(2.0) * grid.p_axis(), k)

    def field(rho: DensityMatrix) -> WignerField:
        if _levels(rho) != n:
            raise ValueError(f"a map for {n} levels got a {rho.dims.total_dim}-level state")
        # (Re rho_mn, Im rho_mn) interleaved, as the table's columns expect
        parts = np.ascontiguousarray(rho.data, dtype=np.complex128).reshape(-1).view(np.float64)
        coeffs = np.bincount(rows, weights * parts[columns], k * k).reshape(k, k)
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


def _shell_rotations(top: int) -> np.ndarray:
    """U^M for M = 0..``top``, zero padded: U^M is ``u[M, :M+1, :M+1]``.

    U^M is symmetric, and with S the symmetric tridiagonal matrix with
    S[c, c+1] = sqrt((c+1)(M-c)) and Z = diag(M - 2r), U^M S = -Z U^M (the
    rotation by pi/2 takes J_x to J_z).  So row r obeys the three-term
    recurrence

        sqrt((c+1)(M-c)) U[r, c+1] = (2r - M) U[r, c] - sqrt(c (M-c+1)) U[r, c-1]

    from U[r, 0] = (-1)^(M-r) 2^(-M/2) sqrt(C(M, r)), a running product
    over r.  It runs over the first half of the columns, c <= M/2, for
    every shell and row at once, where it grows with each row's solution
    and is stable; U[r, M-c] = (-1)^(M+r) U[r, c] gives the second half.
    Against the eigendecomposition of the rotation generator kept in the
    tests, every shell up to 178 agrees to 8.2e-15.
    """
    t = top + 1
    shell = np.arange(t)
    # u[M, c] is column c of U^M, and so also its row c
    u = np.zeros((t, t, t))
    factors = np.empty((t, t))
    factors[:, 0] = (-1.0) ** shell * 2.0 ** (-0.5 * shell)
    factors[:, 1:] = -np.sqrt(np.maximum(shell[:, None] - shell[:-1], 0) / (shell[:-1] + 1.0))
    u[:, 0] = np.cumprod(factors, axis=1)
    twice_r_less_m = 2.0 * shell - shell[:, None]
    for c in range(top // 2):
        lo = 2 * c + 2  # the shells whose column c + 1 is in their first half
        m = shell[lo:, None]
        column = twice_r_less_m[lo:] * u[lo:, c]
        if c:
            column -= np.sqrt(c * (m - c + 1.0)) * u[lo:, c - 1]
        u[lo:, c + 1] = column / np.sqrt((c + 1.0) * (m - c))
    m, c = np.nonzero((shell > shell[:, None] // 2) & (shell <= shell[:, None]))
    u[m, c] = u[m, m - c] * (1 - 2 * ((m[:, None] + shell) & 1))
    return u


def _shell_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear map rho -> C for an n-level mode, as sparse entries.

    Returns ``(rows, columns, values)``: row a k + b of the map is entry
    a k + b of the row-major C of shape (k, k), k = 2n - 1, and column c the
    c-th of the interleaved (Re, Im) parts of the row-major rho.  Since
    (-i)^b is real for even b and imaginary for odd b,
    C_ab = pi^(-1/2) sum_{m+n=a+b} (-1)^(b//2) U^{a+b}[m, a] x_mn, where x_mn
    is Re rho_mn for even b and Im rho_mn for odd b.  The map is block
    diagonal by shell M = m + n = a + b, with O(n^3) entries, listed row by
    row and, within a row, in increasing m.
    """
    k = 2 * n - 1
    shells = np.add.outer(np.arange(k), np.arange(k)).ravel()
    first = np.maximum(0, shells - n + 1)
    counts = np.maximum(np.minimum(shells, n - 1) + 1 - first, 0)
    rows = np.repeat(np.arange(k * k), counts)
    m = first[rows] + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    a, b = np.divmod(rows, k)
    shell = a + b
    # (-1)^(b//2) is -1 where b has its bit of value 2 set
    values = np.where(b & 2, -1.0, 1.0) * _shell_rotations(k - 1)[shell, m, a] / np.sqrt(np.pi)
    return rows, 2 * (m * n + shell - m) + b % 2, values


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
