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

Given the initial state, :func:`lindblad` lists only the columns of the
coordinates that rho(0) can reach: its support, closed under rho_ij <->
rho_ji and under the d x d nonzero patterns of K and of each jump
(:func:`_reachable`).  Each stored entry is then the full generator's,
bit for bit, and L rho(t) never leaves those coordinates.  The two-mode
run with the optical mode in vacuum at zero temperature keeps 180 of the
58 599 entries; a combined-Kerr coherent state reaches every column, and
its generator is the full one.  Without a state every column is listed,
by the same code.

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
from .states import DensityMatrix

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


def entries(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries ``(i, j, a[i, j])`` of a dense matrix, row-major."""
    i, j = np.nonzero(a)
    return i, j, a[i, j]


def kron(a, b, shape: tuple[int, int],
         active: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries ``(row, col, data)`` of A kron B, for matrices
    given by their nonzero entries ``a`` and ``b`` (as :func:`entries`
    lists them), B of ``shape`` (p, q).

    The product of A[i, j] and B[k, l] sits at (i p + k, j q + l); the
    products are listed by a's entries, each with all of b's.  Given a
    boolean ``active`` over the q columns of both factors, only the
    products with ``active[j]`` and ``active[l]`` are listed, in the same
    order.
    """
    (ia, ja, va), (ib, jb, vb) = a, b
    if active is not None:
        ia, ja, va = (x[active[ja]] for x in (ia, ja, va))
        ib, jb, vb = (x[active[jb]] for x in (ib, jb, vb))
    p, q = shape
    return (((ia * p)[:, None] + ib).ravel(), ((ja * q)[:, None] + jb).ravel(),
            (va[:, None] * vb).ravel())


def _reachable(k: tuple[np.ndarray, np.ndarray], jumps: list[tuple[np.ndarray, np.ndarray]],
               rho: np.ndarray) -> np.ndarray:
    """The d x d mask of the entries rho_ij that a generator can make
    nonzero from ``rho``, given the positions ``(i, j)`` of the nonzero
    entries of its K (``k``) and of each of its jump operators c (``jumps``).

    The support of ``rho``, closed under rho_ij <-> rho_ji, is closed under
    the terms of :func:`lindblad`: rho_ij feeds (K rho)_i'j where
    K[i', i] != 0, (rho K^dag)_ij' where K[j', j] != 0, and
    (c rho c^dag)_i'j' where c[i', i] != 0 and c[j', j] != 0.  With T the
    reflexive transitive closure of K's pattern, found by squaring, a round
    is S <- T S T^T and then S <- S + c S c^T for each jump c in turn, until
    a round adds nothing; each step keeps S symmetric.  The patterns are
    0/1 float32 matrices, so a step is two BLAS products, and a sum of such
    products is positive exactly where one of its terms is.
    """
    support = rho != 0
    support |= support.T
    if support.all():
        return support

    def pattern(at):
        out = np.zeros(rho.shape, dtype=np.float32)
        out[at] = 1
        return out

    step = pattern(k)
    np.fill_diagonal(step, 1)
    while True:
        longer = np.minimum(step @ step, 1)
        if np.count_nonzero(longer) == np.count_nonzero(step):
            break
        step = longer
    hops = [pattern(at) for at in jumps]
    s = support.astype(np.float32)
    while True:
        reached = np.count_nonzero(s)
        s = np.minimum(step @ s @ step.T, 1)
        for hop in hops:
            s += hop @ s @ hop.T
            np.minimum(s, 1, out=s)
        if np.count_nonzero(s) == reached:
            return s > 0


def lindblad(h: QOperator, jumps: Sequence[tuple[float, QOperator]],
             rho0: DensityMatrix | None = None) -> Superoperator:
    """The GKSL generator of Hamiltonian ``h`` and jumps ``(rate, c)``.

    L = I kron K + conj(K) kron I + sum_k r_k conj(c_k) kron c_k with
    K = -i H - (1/2) sum_k r_k c_k^dag c_k.  The entries at one position
    are summed in this order of the terms, and a sum that is exactly 0 is
    not stored.  Given ``rho0``, only the columns of the coordinates that
    rho(0) can reach (:func:`_reachable`, column-stacked) are listed, and
    each entry there is the full generator's, bit for bit: L rho never
    leaves those coordinates, so the generator evolves rho(0) as the full
    one does.  Without it every column is listed.
    """
    d = h.dims.total_dim
    k = -1j * h.data
    for rate, c in jumps:
        k = k - (0.5 * rate) * (c.data.conj().T @ c.data)
    # the nonzero entries of each factor, found once: conj(K) and conj(c)
    # have K's and c's positions
    ident = (np.arange(d), np.arange(d), np.ones(d))
    ik, jk, vk = entries(k)
    hops = [entries(c.data) for _, c in jumps]
    # the columns kept (None: all) and the indices that the reached rho_ij
    # use (active): kron lists the columns j d + l with j and l active,
    # and the unreached ones among them are dropped after the sums
    columns = active = None
    if rho0 is not None:
        if rho0.dims != h.dims:
            raise ValueError(
                f"dimension mismatch: state {rho0.dims.dims} vs generator {h.dims.dims}"
            )
        reach = _reachable((ik, jk), [(i, j) for i, j, _ in hops], rho0.data)
        if not reach.all():
            columns = vec(reach)
            active = reach.any(axis=0)
    shape = (d, d)
    terms = [kron(ident, (ik, jk, vk), shape, active),
             kron((ik, jk, vk.conj()), ident, shape, active)]
    for (rate, _), (i, j, v) in zip(jumps, hops):
        row, col, data = kron((i, j, v.conj()), (i, j, v), shape, active)
        terms.append((row, col, rate * data))
    row, col, data = (np.concatenate(parts) for parts in zip(*terms))
    key = row * (d * d) + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    # the first product at each position
    starts = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    summed = np.add.reduceat(data[order], first) if first.size else data[:0]
    at = order[first]
    col = col[at]
    stored = summed != 0
    if columns is not None:
        stored &= columns[col]
    return Superoperator(h.dims, (row[at[stored]], col[stored], summed[stored]))


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


def liouvillian(params: SystemParams, dims,
                rho0: DensityMatrix | None = None) -> Superoperator:
    """Full two-mode generator: -i[H, .] plus one thermal dissipator per mode.

    Given ``rho0``, only the columns that it can reach (see :func:`lindblad`).
    """
    dims = as_dims(dims)
    if dims.n_modes != 2:
        raise ValueError(f"liouvillian expects two modes, got {dims.n_modes}")
    jumps = []
    for mode, gamma, occupation in ((0, params.gamma_c, params.n_optical),
                                    (1, params.gamma_m, params.n_mech)):
        if gamma > 0:
            lower = embed(annihilation(dims.dims[mode]), mode, dims)
            jumps += _thermal_jumps(lower, gamma, occupation())
    return lindblad(hamiltonian(params, dims), jumps, rho0)


def combined_kerr_liouvillian(params: SystemParams, n: int,
                              rho0: DensityMatrix | None = None) -> Superoperator:
    """Effective single-mode generator for the combined system.

    One Kerr mode with anharmonicity chi = k_c + k_m at the storage-mode
    frequency omega_m, damped at gamma_m against a bath with occupation
    taken at omega_m.  Given ``rho0``, only the columns that it can reach
    (see :func:`lindblad`).
    """
    chi = params.k_c + params.k_m
    num = number(n)
    h = params.omega_m * num + chi * (num @ num)
    jumps = []
    if params.gamma_m > 0:
        jumps = _thermal_jumps(annihilation(n), params.gamma_m, params.n_mech())
    return lindblad(h, jumps, rho0)
