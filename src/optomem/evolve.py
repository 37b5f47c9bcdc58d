"""Time integration of d(rho)/dt = L rho and time-series observables.

Only the live coordinates of the column-stacked density matrix are advanced:
those reachable from the support of rho(0) along the nonzero pattern of L,
closed under rho_ij <-> rho_ji (:func:`live_coordinates`).  Every other
coordinate stays exactly 0 under L.  The two-mode run with the optical mode in
vacuum and a zero-temperature optical bath keeps 100 of 10 000 coordinates; a
combined-Kerr coherent state keeps all of them.

Both generators are phase-covariant, so the live generator splits further
into symmetry blocks with no entries between them: the weakly connected
components of its nonzero pattern (59 blocks of at most 30 coordinates for
the combined-Kerr presets, 19 of at most 10 for the two-mode run).  Both
also keep rho Hermitian: with M the permutation rho_ij <-> rho_ji of the
coordinates, L[M, M] == conj(L) holds exactly, and ``evolve`` raises
ValueError on a generator for which it does not.  M therefore maps block k
(coherence index k) onto block -k, and the state of block -k is the complex
conjugate of block k's.  Only one block of each such pair is propagated,
plus every block that is its own mirror image (k = 0): 465 of 900
coordinates for the combined-Kerr presets, 55 of 100 for the two-mode run.

The kept blocks are stored one after another, the self-mirror blocks first.
L is time-independent, so the kept coordinates go from one event time (a
sample or snapshot time) to the next by exp(L gap), evaluated exactly to
double precision on both paths.  When no block is larger than
:data:`MAX_DENSE_BLOCK`, the propagator is the block diagonal
(``scipy.sparse.block_diag``) of a dense exp(L_b gap) per kept block;
propagators for gaps the time grid repeats are cached, one-off gaps (next
to snapshot times) are built, applied once and dropped.  Otherwise each gap
applies the action exp(L gap) z with a truncated Taylor series (Al-Mohy &
Higham, SISC 33, 488, 2011; ``scipy.sparse.linalg.expm_multiply``).  Its
cost grows with ||L||_1 gap and it cannot fail, so the run is refused up
front, with :class:`IntegrationFailure`, when that product exceeds
:data:`MAX_ACTION_NORM`.

On both paths every state, the initial one included, is re-symmetrised
(rho <- (rho + rho^dag)/2) on the self-mirror blocks, where its Hermiticity
deviation is also measured (for rho(0), on every live coordinate); each
left-out coordinate is the conjugate of its mirror, so every state the
observables, the trace gate and the snapshots see is exactly Hermitian.

The step loop does only what the chain of states needs: per event it
propagates, symmetrises, copies the kept vector and the self-mirror slice
from before the symmetrisation into one row each of a block of
:data:`SAMPLE_BLOCK` rows, and scatters a full d x d snapshot at snapshot
times.  When a block fills, and once more at the end, the block is
evaluated at once on the kept coordinates: each functional w of the live
vector (<a_k> of every mode, the trace, the coherent overlap) is folded
into w[kept] on the kept vector plus w[partners] on the conjugate of its
paired part, the purity counts each paired coordinate twice, the
Hermiticity deviation is the largest over the block, and the trace gate
raises for the first sample of the block whose drift is not within
:data:`TRACE_DRIFT_LIMIT`.  The trace is never renormalised; its largest
drift is recorded as an integration quality signal.  Repeated runs are
bitwise reproducible.

A plain fixed-step classical RK4 driver (:func:`evolve_rk4`) is kept as an
independent cross-validation route and deliberately shares no stepping logic
with either path; it integrates the full space, so it also checks the
restriction to the live coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply
from scipy.sparse.linalg import norm as sparse_norm

from .fock import HilbertDims, QOperator, annihilation, embed
from .liouvillian import Superoperator, unvec, vec
from .states import DensityMatrix, coherent_amplitudes

__all__ = [
    "TimeGrid",
    "Trajectory",
    "EvolveOptions",
    "IntegrationFailure",
    "evolve",
    "evolve_rk4",
    "generator_check",
    "live_coordinates",
    "symmetry_blocks",
]


class IntegrationFailure(RuntimeError):
    """The integration left its quality envelope (trace drift) or its cost bound."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times starting at t = 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("time grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"time grid must be finite, got {times[~np.isfinite(times)]}")
        if times[0] != 0.0:
            raise ValueError(f"time grid must start at 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.size


@dataclass
class EvolveOptions:
    snapshot_times: tuple[float, ...] = ()
    # Reference coherent amplitude for the per-sample overlap column; None
    # disables the column.
    overlap_alpha: complex | None = None
    overlap_mode: int = 0


@dataclass
class Trajectory:
    """Per-sample observables plus optional full-state snapshots."""

    times: np.ndarray
    # <a_k>(t) of mode k in row k: complex, shape (n_modes, n_samples)
    amplitudes: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    coherent_overlap: np.ndarray | None
    snapshots: list[tuple[float, DensityMatrix]] = field(default_factory=list)
    max_hermiticity_error: float = 0.0
    max_trace_drift: float = 0.0
    # propagator applications (RK4: substeps); no step is ever rejected, so
    # n_rejected is always 0, kept for the report's quality record and for
    # the benchmark, which reads it
    n_steps: int = 0
    n_rejected: int = 0
    # live coordinates of vec(rho), the propagation path ("expm" or
    # "expm_multiply"), the sizes of the live generator's symmetry blocks
    # and the coordinates actually advanced (one block of each conjugate
    # pair); None when the full space was integrated (RK4)
    n_live: int | None = None
    path: str | None = None
    block_sizes: tuple[int, ...] | None = None
    n_propagated: int | None = None


# Largest symmetry block propagated by a dense exp(L_b gap); a larger block
# sends the whole run to expm_multiply.  The cached propagators hold
# sum(s_b^2) entries each and cost O(s_b^3) per distinct gap.  Two-mode
# optical storage at (n, 10), 2 000 samples, one thread (2-vCPU Xeon VM),
# dense blocks vs expm_multiply, wall time and peak RSS: largest block 200:
# 0.19 s / 84 MB vs 0.80 s / 69 MB; 300: 0.63 s / 110 MB vs 0.98 s / 69 MB;
# 400: 1.3 s / 154 MB vs 1.2 s / 70 MB; 500: 2.5 s / 227 MB vs 1.4 s /
# 71 MB; 600: 4.4 s / 318 MB vs 1.8 s / 71 MB.
MAX_DENSE_BLOCK = 300

# Largest ||L||_1 * gap that expm_multiply is asked to cross.  One gap costs
# O(||L||_1 gap) products: one thread (2-vCPU Xeon VM), 1.5 -> 4.9 ms,
# 1e2 -> 0.10 s and 1e3 -> 0.63 s on the 9 820 live coordinates of two-mode
# optical storage at (10, 10); 18 ms at 1e3 and 0.15 s at 1e4 on a 16-dim
# damped mode.  The presets sit at 0.25 (fig4) to 5.3 (fig2-combined).
MAX_ACTION_NORM = 1e3

# Largest |Tr rho(t) - 1| a run may reach.  Both paths are exact, so a
# trace-preserving generator stays at rounding level (<= 8.3e-14 on the presets).
TRACE_DRIFT_LIMIT = 1e-4

# Events whose kept states are held and then evaluated together: their
# observables, Hermiticity deviation and trace gate.  One thread (2-vCPU Xeon
# VM), median of 7 `simulate` calls, blocks of 1 / 8 / 16 / 64 / 256 events:
# fig4 146 / 83 / 79 / 64 / 74 ms, fig2-combined 390 / 301 / 308 / 272 /
# 310 ms.  At 64 the block holds 64 x 465 complex entries (0.5 MB) on the
# combined presets; the peak RSS of `simulate --preset fig4` (73.1 MB) and
# `wigner-snapshots --preset fig2-combined` (85.3 MB) does not move.
SAMPLE_BLOCK = 64


def _block_exp(dense: list[np.ndarray], gap: float) -> sp.csr_matrix:
    """exp(L gap) for L = block_diag(dense): one dense expm per block.

    Every entry of each block, exact zeros included, is stored row by row,
    so a row of the product sums its block's columns in increasing order.
    """
    return sp.block_diag([scipy.linalg.expm(block * gap) for block in dense], format="csr")


class _Observables:
    """Flat-functional extraction of Tr(A rho) quantities from vec(rho).

    The functionals act on the coordinates ``live`` of vec(rho) (all of them
    when None), in that order; there is one amplitude <a_k> per mode.
    """

    def __init__(self, dims: HilbertDims, overlap_alpha, overlap_mode,
                 live: np.ndarray | None = None):
        d = dims.total_dim
        coords = np.arange(d * d) if live is None else live
        # Tr(A rho) = sum_ij A[i, j] rho[j, i] = A.flatten(C) . vec_F(rho).
        self.w_amp = [embed(annihilation(n_k), k, dims).data.flatten(order="C")[coords]
                      for k, n_k in enumerate(dims.dims)]
        # rho_ii sits at i * (d + 1) in vec(rho)
        self.trace_idx = np.flatnonzero(coords % (d + 1) == 0)
        self.w_overlap = None
        if overlap_alpha is not None:
            c = coherent_amplitudes(overlap_alpha, dims.dims[overlap_mode])
            proj = QOperator(HilbertDims((dims.dims[overlap_mode],)), np.outer(c, c.conj()))
            self.w_overlap = embed(proj, overlap_mode, dims).data.flatten(order="C")[coords]

    def amplitudes(self, z: np.ndarray, out: np.ndarray) -> None:
        """Write <a_k> of each mode k into ``out[k]``."""
        # one 1-d product per mode: a 2-d product sums in another order
        for k, w in enumerate(self.w_amp):
            out[k] = w @ z

    def trace(self, z: np.ndarray) -> float:
        return float(np.sum(z[self.trace_idx]).real)

    def purity(self, z: np.ndarray) -> float:
        return float(np.real(np.vdot(z, z)))

    def overlap(self, z: np.ndarray) -> float:
        return float(np.real(self.w_overlap @ z))


class _KeptObservables:
    """The observables of :class:`_Observables` on rows of kept vectors.

    A kept vector zk stands for the live vector z with z[kept] = zk and
    z[partners] = conj(zk[n_self:]), so a functional w of z is
    w[kept] . zk + w[partners] . conj(zk[n_self:]), and the purity
    z^dag z is the sum of |zk|^2 over the self-mirror slice plus twice the
    sum over the rest.
    """

    def __init__(self, obs: _Observables, kept: np.ndarray, partners: np.ndarray,
                 n_self: int):
        trace_w = np.zeros(kept.size + partners.size)
        trace_w[obs.trace_idx] = 1.0
        # one column per functional: <a_k> of each mode, the trace, the overlap
        weights = np.column_stack([*obs.w_amp, trace_w]
                                  + ([] if obs.w_overlap is None else [obs.w_overlap]))
        self.w_kept = weights[kept]
        self.w_partners = weights[partners]
        self.n_modes = len(obs.w_amp)
        self.n_self = n_self

    def evaluate(self, rows: np.ndarray):
        """<a_k> (one row per mode), trace, purity and overlap of each row."""
        values = rows @ self.w_kept + rows[:, self.n_self:].conj() @ self.w_partners
        sq = rows.view(np.float64) ** 2
        purity = sq[:, :2 * self.n_self].sum(axis=1) + 2.0 * sq[:, 2 * self.n_self:].sum(axis=1)
        n = self.n_modes
        overlap = values[:, n + 1].real if values.shape[1] > n + 1 else None
        return values[:, :n].T, values[:, n].real, purity, overlap


def _transpose_index(d: int) -> np.ndarray:
    """For each coordinate of vec(rho), the coordinate of the mirrored entry."""
    return np.arange(d * d).reshape((d, d)).flatten(order="F")


def live_coordinates(matrix: sp.spmatrix, z0: np.ndarray, d: int) -> np.ndarray:
    """Sorted indices of the coordinates of vec(rho) that can become nonzero.

    Starts from the support of ``z0`` = vec(rho(0)) and adds every coordinate
    reachable along the nonzero pattern of the generator (coordinate j feeds
    coordinate i when L[i, j] != 0), closed under rho_ij <-> rho_ji.  Every
    other coordinate stays exactly 0 under d(rho)/dt = L rho.
    """
    pattern = matrix != 0
    mirror = _transpose_index(d)
    live = z0 != 0
    live |= live[mirror]
    frontier = live.copy()
    while frontier.any():
        reached = pattern @ frontier
        reached |= reached[mirror]
        frontier = reached & ~live
        live |= frontier
    return np.flatnonzero(live)


def symmetry_blocks(lmat: sp.spmatrix) -> list[np.ndarray]:
    """Coordinates of each weakly connected component of ``lmat``'s pattern.

    No entry of ``lmat`` links two blocks, so exp(L t) is block diagonal over
    them.  Each block lists its coordinates in increasing order; blocks are
    ordered by their smallest coordinate.
    """
    n_blocks, labels = connected_components(lmat != 0, directed=True, connection="weak")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])


def _conjugate_symmetric(lmat: sp.csr_matrix, mirror: np.ndarray) -> bool:
    """Whether L[M, M] == conj(L) entry for entry, NaN equal to NaN.

    ``mirror`` is the permutation M of the coordinates of ``lmat``.  ``lmat``
    must have sorted indices and no stored zeros (a sparse product has none).
    NaN entries compare equal to themselves, so a NaN generator still runs
    and fails the trace gate.
    """
    mirrored = lmat[mirror][:, mirror]
    mirrored.sort_indices()
    return (np.array_equal(mirrored.indptr, lmat.indptr)
            and np.array_equal(mirrored.indices, lmat.indices)
            and np.array_equal(mirrored.data, lmat.data.conj(), equal_nan=True))


def _fold(blocks: list[np.ndarray], mirror: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The blocks to propagate, self-mirror blocks first, and their size.

    For a generator with L[M, M] == conj(L), M maps each block onto a block:
    block k (coherence index k) onto block -k, whose state is then the
    complex conjugate of block k's.  Each block is paired with the block
    that holds the mirror of its first coordinate.  Of each pair the block
    listed first is kept; a block that is its own partner is kept whole.
    The kept blocks are returned in the order they are stored: the
    self-mirror blocks, then one block of each pair.  The second value is
    the number of coordinates in the self-mirror blocks.
    """
    label = np.empty(mirror.size, dtype=np.intp)
    for b, idx in enumerate(blocks):
        label[idx] = b
    partner = label[mirror[[idx[0] for idx in blocks]]]
    self_blocks = [idx for b, idx in enumerate(blocks) if partner[b] == b]
    pair_blocks = [idx for b, idx in enumerate(blocks) if partner[b] > b]
    return self_blocks + pair_blocks, sum(idx.size for idx in self_blocks)


def evolve(rho0: DensityMatrix, superop: Superoperator, grid: TimeGrid,
           opts: EvolveOptions | None = None) -> Trajectory:
    """Integrate d(rho)/dt = L rho and sample observables on ``grid``.

    The observables are <a_k> of every mode k, the trace, the purity and
    the optional coherent overlap.  Of the coordinates returned by
    :func:`live_coordinates`, one block of each conjugate pair of
    :func:`symmetry_blocks` and every self-mirror block are advanced by
    exp(L gap) from event to event: with cached dense block propagators
    when no block exceeds :data:`MAX_DENSE_BLOCK`, and with
    ``expm_multiply`` otherwise.  Full density matrices are stored
    only at ``opts.snapshot_times`` (which must be finite and lie within the
    grid span).  Raises ValueError when the generator does not preserve
    Hermiticity, and :class:`IntegrationFailure` when the trace drift is not
    within :data:`TRACE_DRIFT_LIMIT` or, on the ``expm_multiply`` path,
    when ||L||_1 times the largest gap exceeds :data:`MAX_ACTION_NORM`.
    """
    opts = opts or EvolveOptions()
    dims = rho0.dims
    if dims != superop.dims:
        raise ValueError(
            f"dimension mismatch: state {dims.dims} vs generator {superop.dims.dims}"
        )
    d = dims.total_dim
    m = d * d
    z0 = vec(rho0.data)
    live = live_coordinates(superop.matrix, z0, d)
    n = live.size
    # Restrict by one product with a 0/1 column selector rather than by
    # slicing, so a matrix type that counts its products (the traced
    # benchmark) still sees the generator used.  CSR products leave row
    # entries unsorted; sorting restores the assembled generator's column
    # order, so each row sums exactly as in the full space.
    select = sp.csr_matrix((np.ones(n), (live, np.arange(n))), shape=(m, n))
    lmat = (superop.matrix @ select)[live]
    lmat.sort_indices()
    mirror = np.searchsorted(live, _transpose_index(d)[live])
    if not _conjugate_symmetric(lmat, mirror):
        raise ValueError(
            "generator does not preserve Hermiticity: L[M, M] != conj(L) on the "
            "live coordinates, where M maps rho_ij to rho_ji"
        )
    blocks = symmetry_blocks(lmat)
    block_sizes = tuple(idx.size for idx in blocks)
    kept_blocks, n_self = _fold(blocks, mirror)
    # the kept vector zk holds the coordinates kept[k], block by block; its
    # leading n_self entries are the self-mirror blocks, whose mirrors sit at
    # self_dag, and each later entry has its conjugate written to partners
    kept = np.concatenate(kept_blocks)
    pos = np.empty(n, dtype=np.intp)
    pos[kept] = np.arange(kept.size)
    self_dag = pos[mirror[kept[:n_self]]]
    partners = mirror[kept[n_self:]]

    times = grid.times
    span = float(times[-1])
    snapshot_times = np.array(sorted(set(float(t) for t in opts.snapshot_times)))
    if np.any(~np.isfinite(snapshot_times) | (snapshot_times < 0) | (snapshot_times > span)):
        raise ValueError(
            f"snapshot times must be finite and lie within the time grid span [0, {span:g}]"
        )

    events = np.unique(np.concatenate([times, snapshot_times]))
    sampled = np.isin(events, times)
    snap_set = set(snapshot_times.tolist())

    obs = _KeptObservables(_Observables(dims, opts.overlap_alpha, opts.overlap_mode, live),
                           kept, partners, n_self)

    gaps = np.diff(events)
    if max(block_sizes) <= MAX_DENSE_BLOCK:
        path = "expm"
        dense = [lmat[idx][:, idx].toarray() for idx in kept_blocks]
        distinct, counts = np.unique(gaps, return_counts=True)
        repeated = set(distinct[counts > 1].tolist())
        cache: dict[float, sp.csr_matrix] = {}

        def propagate(zk: np.ndarray, gap: float) -> np.ndarray:
            prop = cache.get(gap)
            if prop is None:
                prop = _block_exp(dense, gap)
                if gap in repeated:
                    cache[gap] = prop
            return prop @ zk
    else:
        path = "expm_multiply"
        kmat = lmat[kept][:, kept]
        kmat.sort_indices()
        # one gap costs about ||L||_1 gap products and expm_multiply never
        # gives up, so refuse a run it would not finish (NaN included)
        cost = float(sparse_norm(kmat, 1)) * float(np.max(gaps, initial=0.0))
        if not cost <= MAX_ACTION_NORM:
            raise IntegrationFailure(
                f"||L||_1 * largest gap = {cost:.3e} exceeds {MAX_ACTION_NORM:.0e}; "
                "shrink the rates, the sample spacing or the truncation"
            )

        def propagate(zk: np.ndarray, gap: float) -> np.ndarray:
            return expm_multiply(kmat * gap, zk)

    n_ev = events.size
    amps = np.empty((dims.n_modes, n_ev), dtype=np.complex128)
    tr = np.empty(n_ev)
    pur = np.empty(n_ev)
    ovl = np.empty(n_ev) if opts.overlap_alpha is not None else None
    # each event's kept state after, and its self-mirror slice before,
    # symmetrisation; evaluated once per block of events
    rows = np.empty((SAMPLE_BLOCK, kept.size), dtype=np.complex128)
    pre = np.empty((SAMPLE_BLOCK, n_self), dtype=np.complex128)
    kept_full = live[kept]
    partners_full = live[partners]
    snapshots: list[tuple[float, np.ndarray]] = []
    # rho(0) over every live coordinate: only one of a pair's blocks is kept
    herm_dev = float(np.max(np.abs(z0[live] - z0[live[mirror]].conj())))
    zk = z0[kept_full]
    t_prev = 0.0

    for start in range(0, n_ev, SAMPLE_BLOCK):
        block = events[start:start + SAMPLE_BLOCK]
        for j, t in enumerate(block.tolist()):
            if t > 0.0:
                zk = propagate(zk, t - t_prev)
                t_prev = t
            # only self-mirror blocks hold both rho_ij and rho_ji among the
            # kept coordinates; each other kept block's mirror is its conjugate
            pre[j] = zk[:n_self]
            zk[:n_self] = 0.5 * (zk[:n_self] + zk[self_dag].conj())
            rows[j] = zk
            if t in snap_set:
                full = np.zeros(m, dtype=np.complex128)
                full[kept_full] = zk
                full[partners_full] = zk[n_self:].conj()
                # Hermitian exactly as it stands; C order like every operator
                # the package builds, so reductions over its entries sum in
                # one order
                snapshots.append((t, np.ascontiguousarray(unvec(full, d))))

        k = block.size
        stop = start + k
        dev = float(np.max(np.abs(pre[:k] - pre[:k, self_dag].conj())))
        if dev > herm_dev:
            herm_dev = dev
        amps[:, start:stop], tr[start:stop], pur[start:stop], overlap = obs.evaluate(rows[:k])
        if ovl is not None:
            ovl[start:stop] = overlap
        # written so that a NaN drift fails the gate
        drift = np.abs(tr[start:stop] - 1.0)
        bad = np.flatnonzero(sampled[start:stop] & ~(drift <= TRACE_DRIFT_LIMIT))
        if bad.size:
            raise IntegrationFailure(
                f"trace drifted by {drift[bad[0]]:.3e} at t={block[bad[0]]:.6g} "
                f"(limit {TRACE_DRIFT_LIMIT:.1e})"
            )

    tr = tr[sampled]
    return Trajectory(
        times=times.copy(),
        amplitudes=amps[:, sampled],
        trace=tr,
        purity=pur[sampled],
        coherent_overlap=ovl[sampled] if ovl is not None else None,
        # wrapped only now, so that a failing trace gate is what a broken
        # run raises, not a later snapshot's check
        snapshots=[(t, DensityMatrix(QOperator(dims, rho))) for t, rho in snapshots],
        max_hermiticity_error=herm_dev,
        max_trace_drift=float(np.max(np.abs(tr - 1.0))),
        n_steps=events.size - 1,
        n_live=n,
        path=path,
        block_sizes=block_sizes,
        n_propagated=kept.size,
    )


def evolve_rk4(rho0: DensityMatrix, superop: Superoperator, grid: TimeGrid,
               dt: float) -> Trajectory:
    """Fixed-step classical RK4 integration; independent cross-check route.

    Each grid interval is split into ceil(interval/dt) equal substeps.  No
    symmetrisation, no adaptivity, no trace gate: the raw fourth-order result
    is returned for comparison against :func:`evolve`.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dims = rho0.dims
    if dims != superop.dims:
        raise ValueError(
            f"dimension mismatch: state {dims.dims} vs generator {superop.dims.dims}"
        )
    d = dims.total_dim
    lmat = superop.matrix
    obs = _Observables(dims, None, 0)
    times = grid.times

    z = vec(rho0.data).astype(np.complex128)
    n_t = times.size
    amps = np.zeros((dims.n_modes, n_t), dtype=np.complex128)
    tr = np.zeros(n_t)
    pur = np.zeros(n_t)
    n_steps = 0

    def record(i: int) -> None:
        obs.amplitudes(z, amps[:, i])
        tr[i] = obs.trace(z)
        pur[i] = obs.purity(z)

    record(0)
    stage = np.empty_like(z)
    for i in range(1, n_t):
        interval = times[i] - times[i - 1]
        n_sub = max(1, int(np.ceil(interval / dt)))
        h = interval / n_sub
        for _ in range(n_sub):
            # z + (h/6) (k1 + 2 k2 + 2 k3 + k4), each stage z + c k formed in
            # one buffer; the same operations in the same order as the
            # expressions written out
            k1 = lmat @ z
            np.add(z, np.multiply(0.5 * h, k1, out=stage), out=stage)
            k2 = lmat @ stage
            np.add(z, np.multiply(0.5 * h, k2, out=stage), out=stage)
            k3 = lmat @ stage
            np.add(z, np.multiply(h, k3, out=stage), out=stage)
            k4 = lmat @ stage
            np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
            np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
            np.add(k1, k4, out=k1)
            np.add(z, np.multiply(h / 6.0, k1, out=k1), out=z)
            n_steps += 1
        record(i)

    return Trajectory(
        times=times.copy(),
        amplitudes=amps,
        trace=tr,
        purity=pur,
        coherent_overlap=None,
        snapshots=[],
        n_steps=n_steps,
    )


def generator_check(superop: Superoperator, rho: DensityMatrix, dt: float) -> float:
    """First-order finite-difference residual of the generator.

    Returns ||(rho(dt) - rho(0))/dt - L rho(0)||_max / ||L rho(0)||_max,
    which is O(dt) for a correct generator; 0 when ||L rho(0)|| vanishes.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if rho.dims != superop.dims:
        raise ValueError(f"dimension mismatch: {rho.dims.dims} vs {superop.dims.dims}")
    deriv = unvec(superop.matrix @ vec(rho.data), rho.dims.total_dim)
    deriv = 0.5 * (deriv + deriv.conj().T)
    denom = float(np.max(np.abs(deriv)))
    if denom < 1e-14:
        return 0.0
    grid = TimeGrid(np.array([0.0, dt]))
    opts = EvolveOptions(snapshot_times=(dt,))
    traj = evolve(rho, superop, grid, opts)
    # DensityMatrix renormalises the trace; undo against the sampled trace so
    # the finite difference sees the raw evolved matrix.
    raw = traj.snapshots[0][1].data * traj.trace[-1]
    fd = (raw - rho.data) / dt
    return float(np.max(np.abs(fd - deriv)) / denom)
