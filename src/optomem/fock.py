"""Operator algebra on truncated bosonic Fock spaces.

Everything downstream (state preparation, generator assembly, observables)
is built from the ladder matrices and tensor embeddings defined here.  The
Kronecker convention is fixed once and for all: mode 0 (optical) is the slow
index and mode 1 (mechanical) the fast one, so a two-mode lift is
``kron(optical, mechanical)``.  All values are immutable after construction
and every operation is a pure function, so they are safe to share across
concurrent workers.

Units are atomic units with hbar = k_B = 1 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from numbers import Number

import numpy as np


@dataclass(frozen=True)
class HilbertDims:
    """Ordered per-mode truncation sizes of a tensor-product Fock space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("at least one mode is required")
        if any(d < 1 for d in dims):
            raise ValueError(f"mode dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)


def as_dims(dims) -> HilbertDims:
    """Coerce an int, a sequence of ints, or a HilbertDims into HilbertDims."""
    if isinstance(dims, HilbertDims):
        return dims
    if isinstance(dims, (int, np.integer)):
        return HilbertDims((int(dims),))
    return HilbertDims(tuple(dims))


@dataclass(frozen=True)
class QOperator:
    """Complex matrix acting on a truncated tensor-product Fock space."""

    dims: HilbertDims
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=np.complex128)
        n = self.dims.total_dim
        if data.shape != (n, n):
            raise ValueError(
                f"operator shape {data.shape} does not match dims {self.dims.dims}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def dag(self) -> "QOperator":
        """Adjoint (conjugate transpose)."""
        return QOperator(self.dims, self.data.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def _check_same_dims(self, other: "QOperator") -> None:
        if self.dims != other.dims:
            raise ValueError(
                f"dimension mismatch: {self.dims.dims} vs {other.dims.dims}"
            )

    def __matmul__(self, other: "QOperator") -> "QOperator":
        if not isinstance(other, QOperator):
            return NotImplemented
        self._check_same_dims(other)
        return QOperator(self.dims, self.data @ other.data)

    def __add__(self, other: "QOperator") -> "QOperator":
        if not isinstance(other, QOperator):
            return NotImplemented
        self._check_same_dims(other)
        return QOperator(self.dims, self.data + other.data)

    def __sub__(self, other: "QOperator") -> "QOperator":
        if not isinstance(other, QOperator):
            return NotImplemented
        self._check_same_dims(other)
        return QOperator(self.dims, self.data - other.data)

    def __mul__(self, scalar) -> "QOperator":
        if not isinstance(scalar, Number):
            return NotImplemented
        return QOperator(self.dims, scalar * self.data)

    __rmul__ = __mul__


def _check_truncation(n: int) -> None:
    if n < 1:
        raise ValueError(f"invalid truncation size {n}: must be >= 1")


def annihilation(n: int) -> QOperator:
    """Single-mode lowering operator, A[m, m+1] = sqrt(m+1)."""
    _check_truncation(n)
    data = np.zeros((n, n), dtype=np.complex128)
    m = np.arange(n - 1)
    data[m, m + 1] = np.sqrt(m + 1.0)
    return QOperator(HilbertDims((n,)), data)


def number(n: int) -> QOperator:
    """Single-mode number operator diag(0, 1, ..., n-1)."""
    _check_truncation(n)
    return QOperator(HilbertDims((n,)), np.diag(np.arange(n, dtype=np.complex128)))


def identity(dims) -> QOperator:
    dims = as_dims(dims)
    return QOperator(dims, np.eye(dims.total_dim, dtype=np.complex128))


def embed(op: QOperator, mode_index: int, dims) -> QOperator:
    """Lift a single-mode operator into the full tensor-product space.

    The result is ``id (x) ... (x) op (x) ... (x) id`` with ``op`` in slot
    ``mode_index``.  Mode 0 is the slowest-varying Kronecker index.
    """
    dims = as_dims(dims)
    if not 0 <= mode_index < dims.n_modes:
        raise ValueError(
            f"mode index {mode_index} out of range for {dims.n_modes} modes"
        )
    if op.dims.n_modes != 1:
        raise ValueError("embed expects a single-mode operator")
    if op.dims.total_dim != dims.dims[mode_index]:
        raise ValueError(
            f"operator dimension {op.dims.total_dim} does not match "
            f"mode {mode_index} size {dims.dims[mode_index]}"
        )
    out = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims.dims):
        factor = op.data if k == mode_index else np.eye(d, dtype=np.complex128)
        out = np.kron(out, factor)
    return QOperator(dims, out)


def expectation(op: QOperator, rho: QOperator) -> complex:
    """Tr(op . rho) without forming the full product."""
    if op.dims != rho.dims:
        raise ValueError(
            f"dimension mismatch: {op.dims.dims} vs {rho.dims.dims}"
        )
    return complex(np.einsum("ij,ji->", op.data, rho.data))
