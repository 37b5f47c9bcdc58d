"""Hamiltonian and Lindblad-generator assembly as sparse superoperators.

Density matrices are vectorised by column stacking, so ``vec(A rho B)``
equals ``(B^T kron A) vec(rho)``.  A generator

    d(rho)/dt = -i [H, rho] + sum_k r_k (c_k rho c_k^dag - {c_k^dag c_k, rho}/2)

in the canonical, trace-preserving GKSL form is then

    L = I kron K + conj(K) kron I + sum_k r_k conj(c_k) kron c_k,
    K = -i H - (1/2) sum_k r_k c_k^dag c_k,

and a thermal dissipator of a mode with lowering operator c, rate gamma
and bath occupation n has the two jumps (gamma (n+1), c) and
(gamma n, c^dag).  :func:`lindblad` sums the d x d operators into K first,
so the generator is three or more Kronecker products, whose entries are
concatenated, sorted once (stably, so entries at one position are summed
in term order) and summed with one ``np.add.reduceat``.  numpy alone
builds it; scipy is loaded only when a caller reads
:attr:`Superoperator.matrix`.

Two generator assemblies are provided: the literal two-mode optomechanical
generator (optical Kerr mode radiation-pressure-coupled to an anharmonic
mechanical mode, each with its own thermal dissipator) and an effective
single-mode picture in which the two anharmonicities act as one Kerr mode of
strength k_c + k_m carrying the mechanical mode's frequency, damping and bath
occupation.  The two are different models.  A two-mode state stored in the
mechanical mode, with the optical mode in vacuum and its bath empty, evolves
exactly as the effective mode at k_c = 0: only k_m acts, and it revives with
period 2 pi / k_m rather than 2 pi / (k_c + k_m).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fock import (
    HilbertDims,
    QOperator,
    annihilation,
    as_dims,
    embed,
    number,
)

# 1 atomic unit of temperature expressed in Kelvin (hbar = k_B = 1).
KELVIN_PER_ATOMIC_UNIT = 3.1577464e5


def kelvin_to_au(temp_kelvin: float) -> float:
    return temp_kelvin / KELVIN_PER_ATOMIC_UNIT


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the optomechanical memory, in atomic units.

    ``bath_temp`` is in Kelvin and is converted internally; both modes see
    the same bath temperature.
    """

    omega_c: float
    omega_m: float
    k_c: float
    k_m: float
    g0: float
    gamma_c: float
    gamma_m: float
    bath_temp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_c", "omega_m", "k_c", "k_m", "g0", "gamma_c", "gamma_m",
                     "bath_temp"):
            value = getattr(self, name)
            # NaN passes a "< 0" test, and inf fills L with NaN
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def temp_au(self) -> float:
        return kelvin_to_au(self.bath_temp)

    def n_optical(self) -> float:
        """Mean photon occupation of the optical mode's bath."""
        return thermal_occupation(self.omega_c, self.temp_au)

    def n_mech(self) -> float:
        """Mean phonon occupation of the mechanical mode's bath."""
        return thermal_occupation(self.omega_m, self.temp_au)


class Superoperator:
    """Sparse linear map acting on column-stacked density matrices.

    Its nonzero entries are held as three arrays in canonical order: ``row``
    and ``col`` sorted row by row and by column within a row, each position
    once, and ``data``.  ``matrix`` is a scipy sparse matrix: the one given,
    or else a CSR copy of the entries built on first access.  The package
    reads only the arrays, except for products (``superop @ z``), which go
    through ``matrix`` when there is one.
    """

    def __init__(self, dims: HilbertDims, matrix) -> None:
        """``matrix`` is a scipy sparse matrix or the canonical arrays
        ``(row, col, data)`` of the nonzero entries."""
        self.dims = dims
        n2 = dims.total_dim ** 2
        if isinstance(matrix, tuple):
            self.row, self.col, self.data = matrix
            self._matrix = None
        else:
            if matrix.shape != (n2, n2):
                raise ValueError(
                    f"superoperator shape {matrix.shape} does not match "
                    f"total dimension {dims.total_dim}"
                )
            coo = matrix.tocoo(copy=True)
            coo.sum_duplicates()  # and sorts it row by row
            nonzero = coo.data != 0
            self.row, self.col = (x[nonzero].astype(np.intp) for x in coo.coords)
            self.data = coo.data[nonzero].astype(np.complex128)
            self._matrix = matrix

    @property
    def matrix(self):
        if self._matrix is None:
            import scipy.sparse as sp

            n2 = self.dims.total_dim ** 2
            indptr = np.searchsorted(self.row, np.arange(n2 + 1))
            self._matrix = sp.csr_matrix((self.data, self.col, indptr), shape=(n2, n2),
                                         copy=True)
        return self._matrix

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """L z for a vector z."""
        if self._matrix is not None:
            return self._matrix @ z
        terms = self.data * z[self.col]
        n2 = self.dims.total_dim ** 2
        return (np.bincount(self.row, terms.real, n2)
                + 1j * np.bincount(self.row, terms.imag, n2))


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((n, n), order="F")


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def thermal_occupation(omega: float, temp: float) -> float:
    """Mean thermal occupation 1/(exp(omega/T) - 1), both in a.u. (hbar=k_B=1).

    Exactly 0 at T = 0, and 0 once exp(omega/T) overflows a float (the true
    value is then below 1e-308).
    """
    if temp < 0:
        raise ValueError(f"temperature must be >= 0, got {temp}")
    if temp == 0.0:
        return 0.0
    if omega <= 0:
        raise ValueError(
            f"thermal occupation diverges for omega={omega} at finite temperature"
        )
    ratio = omega / temp
    if ratio > _LOG_FLOAT_MAX:
        return 0.0
    return 1.0 / math.expm1(ratio)


def hamiltonian(params: SystemParams, dims) -> QOperator:
    """Two-mode Hamiltonian: Kerr optical mode, quadratic-anharmonic
    mechanical mode, and number-position radiation-pressure coupling.

    H = w_c n_a + k_c n_a^2 + w_m n_b + k_m n_b^2 - g0 n_a (b + b^dag)
    """
    dims = as_dims(dims)
    if dims.n_modes != 2:
        raise ValueError(f"hamiltonian expects two modes, got {dims.n_modes}")
    d0, d1 = dims.dims
    n_a = embed(number(d0), 0, dims)
    n_b = embed(number(d1), 1, dims)
    b = embed(annihilation(d1), 1, dims)
    x_b = b + b.dag()
    h = (
        params.omega_c * n_a
        + params.k_c * (n_a @ n_a)
        + params.omega_m * n_b
        + params.k_m * (n_b @ n_b)
        - params.g0 * (n_a @ x_b)
    )
    return h


def kron(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries ``(row, col, data)`` of ``a kron b`` for dense matrices.

    The product of a[i, j] and b[k, l] sits at (i p + k, j q + l) for a
    p x q ``b``; the products are listed by a's nonzeros in row-major order,
    each with all of b's, also in row-major order.
    """
    ia, ja = np.nonzero(a)
    ib, jb = np.nonzero(b)
    p, q = b.shape
    return (((ia * p)[:, None] + ib).ravel(), ((ja * q)[:, None] + jb).ravel(),
            (a[ia, ja][:, None] * b[ib, jb]).ravel())


def lindblad(h: QOperator, jumps: Sequence[tuple[float, QOperator]]) -> Superoperator:
    """The GKSL generator of Hamiltonian ``h`` and jumps ``(rate, c)``.

    L = I kron K + conj(K) kron I + sum_k r_k conj(c_k) kron c_k with
    K = -i H - (1/2) sum_k r_k c_k^dag c_k.  The entries at one position
    are summed in this order of the terms, and a sum that is exactly 0 is
    not stored.
    """
    d = h.dims.total_dim
    k = -1j * h.data
    for rate, c in jumps:
        k = k - (0.5 * rate) * (c.data.conj().T @ c.data)
    ident = np.eye(d)
    terms = [kron(ident, k), kron(k.conj(), ident)]
    for rate, c in jumps:
        row, col, data = kron(c.data.conj(), c.data)
        terms.append((row, col, rate * data))
    row, col, data = (np.concatenate(parts) for parts in zip(*terms))
    key = row * (d * d) + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    summed = np.add.reduceat(data[order], first) if first.size else data[:0]
    stored = summed != 0
    at = order[first[stored]]
    return Superoperator(h.dims, (row[at], col[at], summed[stored]))


def _thermal_jumps(c: QOperator, gamma: float, n_th: float) -> list[tuple[float, QOperator]]:
    """The jumps of a thermal dissipator, without those of rate 0."""
    jumps = [(gamma * (n_th + 1.0), c), (gamma * n_th, c.dag())]
    return [(rate, op) for rate, op in jumps if rate != 0]


def commutator_superop(h: QOperator) -> Superoperator:
    """-i [H, .] on column-stacked density matrices."""
    return lindblad(h, [])


def dissipator(c_op: QOperator, gamma: float, n_th: float) -> Superoperator:
    """Thermal Lindblad dissipator for collapse operator ``c_op``."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if n_th < 0:
        raise ValueError(f"n_th must be >= 0, got {n_th}")
    zero = QOperator(c_op.dims, np.zeros_like(c_op.data))
    return lindblad(zero, _thermal_jumps(c_op, gamma, n_th))


def liouvillian(params: SystemParams, dims) -> Superoperator:
    """Full two-mode generator: -i[H, .] plus one thermal dissipator per mode."""
    dims = as_dims(dims)
    if dims.n_modes != 2:
        raise ValueError(f"liouvillian expects two modes, got {dims.n_modes}")
    jumps = []
    for mode, gamma, occupation in ((0, params.gamma_c, params.n_optical),
                                    (1, params.gamma_m, params.n_mech)):
        if gamma > 0:
            lower = embed(annihilation(dims.dims[mode]), mode, dims)
            jumps += _thermal_jumps(lower, gamma, occupation())
    return lindblad(hamiltonian(params, dims), jumps)


def combined_kerr_liouvillian(params: SystemParams, n: int) -> Superoperator:
    """Effective single-mode generator for the combined system.

    One Kerr mode with anharmonicity chi = k_c + k_m at the storage-mode
    frequency omega_m, damped at gamma_m against a bath with occupation
    taken at omega_m.
    """
    chi = params.k_c + params.k_m
    num = number(n)
    h = params.omega_m * num + chi * (num @ num)
    jumps = []
    if params.gamma_m > 0:
        jumps = _thermal_jumps(annihilation(n), params.gamma_m, params.n_mech())
    return lindblad(h, jumps)
