"""Initial-state construction and state-level reductions.

Coherent amplitudes are built with the stable recurrence
``c_{m+1} = c_m * alpha / sqrt(m+1)`` starting from
``c_0 = exp(-|alpha|^2 / 2)``.  Kets keep the raw truncated amplitudes (their
norm sits slightly below one, which is the honest truncation loss), while
density matrices are renormalised to unit trace at construction so that trace
conservation during evolution can be tested against exactly 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .fock import HilbertDims, QOperator

TRUNCATION_NORM_WARN = 1e-3


@dataclass(frozen=True)
class Ket:
    """State vector on a truncated tensor-product Fock space."""

    dims: HilbertDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dims.total_dim,):
            raise ValueError(
                f"amplitude vector shape {amps.shape} does not match "
                f"total dimension {self.dims.total_dim}"
            )
        if np.linalg.norm(amps) > 1.0 + 1e-12:
            raise ValueError("ket norm exceeds 1: amplitudes must be (sub)normalised")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator representing a (possibly mixed) state.

    The trace is normalised to exactly 1 at construction; Hermiticity is
    required of the input (max |rho - rho^dag| < 1e-10).
    """

    matrix: QOperator

    def __post_init__(self) -> None:
        data = self.matrix.data
        herm_dev = float(np.max(np.abs(data - data.conj().T)))
        if herm_dev > 1e-10:
            raise ValueError(f"density matrix not Hermitian: max deviation {herm_dev:.3e}")
        tr = np.trace(data).real
        if tr <= 0.0:
            raise ValueError(f"density matrix trace must be positive, got {tr}")
        object.__setattr__(self, "matrix", QOperator(self.matrix.dims, data / tr))

    @property
    def dims(self) -> HilbertDims:
        return self.matrix.dims

    @property
    def data(self) -> np.ndarray:
        return self.matrix.data

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.sum(np.abs(self.data) ** 2))


def coherent_amplitudes(alpha: complex, n: int) -> np.ndarray:
    """Truncated coherent-state amplitudes c_m = e^{-|a|^2/2} a^m / sqrt(m!)."""
    if n < 1:
        raise ValueError(f"invalid truncation size {n}: must be >= 1")
    amps = np.zeros(n, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for m in range(n - 1):
        amps[m + 1] = amps[m] * alpha / np.sqrt(m + 1.0)
    return amps


def coherent_ket(alpha: complex, n: int) -> Ket:
    """Truncated coherent state |alpha> on an n-level mode (unnormalised)."""
    amps = coherent_amplitudes(alpha, n)
    captured = float(np.linalg.norm(amps))
    if captured < 1.0 - TRUNCATION_NORM_WARN:
        warnings.warn(
            f"coherent state |alpha|={abs(alpha):.3g} captures only "
            f"norm {captured:.6f} at truncation {n}; increase the truncation",
            stacklevel=2,
        )
    return Ket(HilbertDims((n,)), amps)


def fock_ket(m: int, n: int) -> Ket:
    """Number state |m> on an n-level mode."""
    if not 0 <= m < n:
        raise ValueError(f"Fock index {m} out of range for truncation {n}")
    amps = np.zeros(n, dtype=np.complex128)
    amps[m] = 1.0
    return Ket(HilbertDims((n,)), amps)


def vacuum_ket(n: int) -> Ket:
    return fock_ket(0, n)


def product_dm(kets: Sequence[Ket]) -> DensityMatrix:
    """|psi><psi| for the tensor product of per-mode kets, unit-trace."""
    if not kets:
        raise ValueError("need at least one mode")
    psi = reduce(np.kron, [k.amplitudes for k in kets])
    dims = HilbertDims(tuple(d for k in kets for d in k.dims.dims))
    return DensityMatrix(QOperator(dims, np.outer(psi, psi.conj())))


def partial_trace(rho: DensityMatrix, keep_mode: int) -> DensityMatrix:
    """Reduce a two-mode density matrix to one mode's marginal state."""
    dims = rho.dims
    if dims.n_modes != 2:
        raise ValueError(f"partial_trace expects a two-mode state, got {dims.n_modes} modes")
    if keep_mode not in (0, 1):
        raise ValueError(f"keep_mode must be 0 or 1, got {keep_mode}")
    d0, d1 = dims.dims
    blocks = rho.data.reshape(d0, d1, d0, d1)
    if keep_mode == 0:
        reduced = np.einsum("imjm->ij", blocks)
    else:
        reduced = np.einsum("mimj->ij", blocks)
    return DensityMatrix(QOperator(HilbertDims((dims.dims[keep_mode],)), reduced))
