"""Hamiltonian and Lindblad-generator assembly as sparse superoperators.

Density matrices are vectorised by column stacking, so ``vec(A rho B)``
equals ``(B^T kron A) vec(rho)`` and the commutator part of the generator is
``-i (I kron H - H^T kron I)``.  Dissipators use the canonical GKSL form

    gamma (n+1) [c rho c+ - (c+ c rho + rho c+ c)/2]
  + gamma  n   [c+ rho c - (c c+ rho + rho c c+)/2]

which is the trace-preserving form required for Markovian dynamics.

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class Superoperator:
    """Sparse linear map acting on column-stacked density matrices."""

    dims: HilbertDims
    matrix: sp.csr_matrix

    def __post_init__(self) -> None:
        n2 = self.dims.total_dim ** 2
        if self.matrix.shape != (n2, n2):
            raise ValueError(
                f"superoperator shape {self.matrix.shape} does not match "
                f"total dimension {self.dims.total_dim}"
            )


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


def kron(a: sp.spmatrix, b: sp.spmatrix) -> sp.csr_matrix:
    """The Kronecker product of two sparse matrices, built directly in CSR.

    Its arrays are those of ``scipy.sparse.kron(a, b).tocsr()`` bit for bit
    when ``b`` is less than half full or has no zero (for a denser ``b``
    scipy also stores the products with its zeros); neither factor may hold
    duplicate entries.  Entry (s, t), the product of a's stored entry s in row i and
    b's stored entry t in row k, lands in row i p + k (p rows in b), after
    the entries of a's row i stored before s, each taken with all entries
    of b's row k.  Both factors' rows are sorted first, so each output row
    is sorted too.
    """
    a, b = (sp.csr_matrix(x) for x in (a, b))
    a, b = (x if x.has_sorted_indices else x.sorted_indices() for x in (a, b))
    p, q = b.shape
    na, nb = np.diff(a.indptr), np.diff(b.indptr)
    indptr = np.concatenate([[0], np.cumsum(np.outer(na, nb))])
    # the row of each stored entry and its place within that row
    a_row = np.repeat(np.arange(na.size), na)
    b_row = np.repeat(np.arange(nb.size), nb)
    a_at = np.arange(a.nnz) - a.indptr[a_row]
    b_at = np.arange(b.nnz) - b.indptr[b_row]
    at = (indptr[(a_row * p)[:, None] + b_row] + a_at[:, None] * nb[b_row] + b_at).ravel()
    data = np.empty(at.size, dtype=np.result_type(a.dtype, b.dtype))
    indices = np.empty(at.size, dtype=np.int64)
    data[at] = (a.data[:, None] * b.data).ravel()
    indices[at] = (a.indices[:, None].astype(np.int64) * q + b.indices).ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(a.shape[0] * p, a.shape[1] * q))


def commutator_superop(h: QOperator) -> sp.csr_matrix:
    """-i [H, .] on column-stacked density matrices."""
    hs = sp.csr_matrix(h.data)
    ident = sp.identity(h.dims.total_dim, dtype=np.complex128, format="csr")
    return (-1j * (kron(ident, hs) - kron(hs.T, ident))).tocsr()


def dissipator(c_op: QOperator, gamma: float, n_th: float) -> Superoperator:
    """Thermal Lindblad dissipator for collapse operator ``c_op``."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if n_th < 0:
        raise ValueError(f"n_th must be >= 0, got {n_th}")
    d = c_op.dims.total_dim
    if gamma == 0:
        return Superoperator(c_op.dims, sp.csr_matrix((d * d, d * d), dtype=np.complex128))
    ident = sp.identity(d, dtype=np.complex128, format="csr")
    c = sp.csr_matrix(c_op.data)
    cd = sp.csr_matrix(c_op.data.conj().T)

    def _one_sided(jump: sp.csr_matrix) -> sp.csr_matrix:
        jd_j = (jump.conj().T @ jump).tocsr()
        sandwich = kron(jump.conj(), jump)
        anti = kron(ident, jd_j) + kron(jd_j.T, ident)
        return (sandwich - 0.5 * anti).tocsr()

    total = gamma * (n_th + 1.0) * _one_sided(c)
    if n_th > 0:
        total = total + gamma * n_th * _one_sided(cd)
    return Superoperator(c_op.dims, total.tocsr())


def liouvillian(params: SystemParams, dims) -> Superoperator:
    """Full two-mode generator: -i[H, .] plus one thermal dissipator per mode."""
    dims = as_dims(dims)
    if dims.n_modes != 2:
        raise ValueError(f"liouvillian expects two modes, got {dims.n_modes}")
    total = commutator_superop(hamiltonian(params, dims))
    if params.gamma_c > 0:
        a_full = embed(annihilation(dims.dims[0]), 0, dims)
        total = total + dissipator(a_full, params.gamma_c, params.n_optical()).matrix
    if params.gamma_m > 0:
        b_full = embed(annihilation(dims.dims[1]), 1, dims)
        total = total + dissipator(b_full, params.gamma_m, params.n_mech()).matrix
    return Superoperator(dims, total.tocsr())


def combined_kerr_liouvillian(params: SystemParams, n: int) -> Superoperator:
    """Effective single-mode generator for the combined system.

    One Kerr mode with anharmonicity chi = k_c + k_m at the storage-mode
    frequency omega_m, damped at gamma_m against a bath with occupation
    taken at omega_m.
    """
    dims = HilbertDims((n,))
    chi = params.k_c + params.k_m
    num = number(n)
    h = params.omega_m * num + chi * (num @ num)
    total = commutator_superop(h)
    if params.gamma_m > 0:
        total = total + dissipator(annihilation(n), params.gamma_m, params.n_mech()).matrix
    return Superoperator(dims, total.tocsr())

