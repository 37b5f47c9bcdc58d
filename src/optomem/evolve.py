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
L is time-independent and the grid uniform (:class:`TimeGrid`), so the kept
coordinates go from one sample to the next by exp(L h), h = times[1],
evaluated exactly to double precision on both paths: sample k is the exact
state at k h, which is times[k] bitwise, and no time error builds up.  A
snapshot at s branches off the chain: exp(L (s - t_k)) applied to the state
of the last sample t_k <= s (none when s == t_k), so the trajectory does not
depend on the snapshot times.  When no block is larger than
:data:`MAX_DENSE_BLOCK`, the step propagator is the block diagonal
(``scipy.sparse.block_diag``) of a dense exp(L_b h) per kept block (scaling
and squaring, Al-Mohy & Higham, SIMAX 31, 970, 2009), built from the dense
blocks that one scatter of L's entries fills (:func:`_dense_blocks`).  It
fills the first block of :data:`SAMPLE_BLOCK` samples only: each later
block is exp(L times[SAMPLE_BLOCK]) (bitwise SAMPLE_BLOCK h) applied to the
block before it, one dense product per kept block, and the step propagator
is dropped at the first jump.  So at most SAMPLE_BLOCK - 1 steps and
n_t / SAMPLE_BLOCK jumps separate a sample from rho(0).

Every snapshot branch, and on the other path every step, applies the action
exp(L gap) z to the kept vector alone with a truncated Taylor series
(Al-Mohy & Higham, SISC 33, 488, 2011; ``scipy.sparse.linalg.expm_multiply``)
of the kept generator, which is built only when a run has such a gap.  Its
cost grows with ||L||_1 gap and it cannot fail, so the run is refused up
front, with :class:`IntegrationFailure`, when that product exceeds
:data:`MAX_ACTION_NORM` for the largest gap it is asked to cross.

On both paths every state, the initial one and each snapshot included, is
re-symmetrised (rho <- (rho + rho^dag)/2) on the self-mirror blocks, where
its Hermiticity deviation is also measured (for rho(0), on every live
coordinate); each left-out coordinate is the conjugate of its mirror, so
every state the observables, the trace gate and the snapshots see is
exactly Hermitian.

The loop fills one block of :data:`SAMPLE_BLOCK` rows at a time with the
kept vectors of its samples, after symmetrisation, and the self-mirror
slices from before it: by one jump of the whole block on the dense path
after the first block, else sample by sample, each row propagated from the
one before.  It then branches off and scatters a full d x d state for each
snapshot at or after a sample of the block and before
the next sample, and evaluates the block at once on the kept coordinates:
each observable Tr(A rho)
(<a_k> of every mode, the trace, the coherent overlap) has the weight
w = A.flatten(C) on vec(rho), folded into w[kept] on the kept vector plus
w[partners] on the conjugate of its paired part, the purity counts each
paired coordinate twice, the Hermiticity deviation is the largest over the
block, and the trace gate raises for the first sample of the block whose
drift is not within :data:`TRACE_DRIFT_LIMIT`.  The trace is never renormalised; its largest
drift is recorded as an integration quality signal.  Repeated runs are
bitwise reproducible.

The tests cross-check both paths against a fixed-step RK4 on the full space
(``evolve_rk4`` in ``tests/helpers.py``), which shares no stepping or
observable code with this module.
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
    "live_coordinates",
    "symmetry_blocks",
]


class IntegrationFailure(RuntimeError):
    """The integration left its quality envelope (trace drift) or its cost bound."""


@dataclass(frozen=True)
class TimeGrid:
    """``n`` uniform sample times from t = 0 across ``span``.

    ``times`` is ``np.arange(n) * (span / (n - 1))``: ``np.linspace(0, span,
    n)`` bitwise, except that the last time may lie an ulp from ``span``.
    A single sample is t = 0 alone, with span 0.
    """

    span: float
    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"time grid needs an integer number of samples >= 1, got {self.n!r}")
        span = float(self.span)
        if self.n > 1 and not (np.isfinite(span) and span > 0.0):
            raise ValueError(f"time grid span must be positive and finite, got {span}")
        if self.n == 1 and span != 0.0:
            raise ValueError(f"a single-sample time grid has span 0, got {span}")
        object.__setattr__(self, "span", span)

    @property
    def times(self) -> np.ndarray:
        if self.n == 1:
            return np.zeros(1)
        return np.arange(self.n) * (self.span / (self.n - 1))

    def __len__(self) -> int:
        return self.n


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
    # samples advanced past t = 0, stepped or jumped, plus off-grid snapshot
    # branches: the propagator applications of a sample-by-sample chain
    # (RK4: substeps); no step is ever rejected, so n_rejected is always 0,
    # kept for the report's quality record and for the benchmark, which
    # reads it
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
# sends the whole run to expm_multiply.  A propagator holds sum(s_b^2)
# entries and costs O(s_b^3) to build: twice per run (the step and the
# block jump); snapshot branches build none.  Two-mode optical storage
# at (n, 10), 2 000 samples, one thread (2-vCPU Xeon VM), `simulate` with
# dense blocks vs expm_multiply, wall time and peak RSS: largest block 200:
# 0.11 s / 78 MB vs 2.6 s / 70 MB; 300: 0.33 s / 90 MB vs 2.8 s / 70 MB;
# 400: 0.67 s / 108 MB vs 3.3 s / 72 MB; 500: 1.4 s / 132 MB vs 4.0 s /
# 74 MB; 600: 2.4 s / 165 MB vs 5.3 s / 76 MB.  expm_multiply varies most
# between runs: 1.6 to 2.6 s at 200.
MAX_DENSE_BLOCK = 300

# Largest ||L||_1 * gap that expm_multiply is asked to cross, on either path
# (on the dense one, the snapshot branches only).  One gap costs
# O(||L||_1 gap) products: one thread (2-vCPU Xeon VM), 1.5 -> 4.9 ms,
# 1e2 -> 0.10 s and 1e3 -> 0.63 s on the 9 820 live coordinates of two-mode
# optical storage at (10, 10); 18 ms at 1e3 and 0.15 s at 1e4 on a 16-dim
# damped mode.  The presets sit at 0.25 (fig4) to 5.3 (fig2-combined).
MAX_ACTION_NORM = 1e3

# Largest |Tr rho(t) - 1| a run may reach.  Both paths are exact, so a
# trace-preserving generator stays at rounding level (<= 3.3e-15 on the presets).
TRACE_DRIFT_LIMIT = 1e-4

# Samples whose kept states are held and then evaluated together: their
# observables, Hermiticity deviation and trace gate.  It also sets the jump
# length of the dense path, where each block of samples after the first is
# exp(L times[SAMPLE_BLOCK]) applied to the block before it.  One thread
# (2-vCPU Xeon VM), median of 7 `simulate` calls,
# blocks of 1 / 8 / 16 / 64 / 256 samples: fig4 215 / 58 / 34 / 37 / 44 ms,
# fig2-combined 487 / 188 / 158 / 132 / 146 ms.  At 64 the block holds
# 64 x 465 complex entries (0.5 MB) on the combined presets; the peak RSS of
# `simulate --preset fig4` is 73.4 MB and of `wigner-snapshots --preset
# fig2-combined` 71.9 MB.
SAMPLE_BLOCK = 64


def _block_exp(dense: list[np.ndarray], gap: float) -> list[np.ndarray]:
    """exp(L_b gap) of each block L_b of ``dense``: one dense expm per block."""
    return [scipy.linalg.expm(block * gap) for block in dense]


def _dense_blocks(lmat: sp.csr_matrix, kept_blocks: list[np.ndarray]) -> list[np.ndarray]:
    """``lmat[idx][:, idx].toarray()`` for each ``idx`` of ``kept_blocks``.

    One scatter of ``lmat``'s entries: each entry in a kept block goes to
    its block's row-major slice of one buffer at its local indices.  No
    entry links two blocks, and a canonical matrix stores each entry once,
    so every entry is assigned, not summed.
    """
    assert lmat.has_canonical_format
    kept = np.concatenate(kept_blocks)
    sizes = np.array([idx.size for idx in kept_blocks])
    # each live coordinate's kept block (-1: not kept) and index within it
    owner = np.full(lmat.shape[0], -1)
    owner[kept] = np.repeat(np.arange(sizes.size), sizes)
    local = np.empty(lmat.shape[0], dtype=np.intp)
    local[kept] = np.arange(kept.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    coo = lmat.tocoo()
    inside = owner[coo.row] >= 0
    row, col, block = coo.row[inside], coo.col[inside], owner[coo.row[inside]]
    starts = np.concatenate([[0], np.cumsum(sizes * sizes)])
    flat = np.zeros(starts[-1], dtype=lmat.dtype)
    flat[starts[block] + local[row] * sizes[block] + local[col]] = coo.data[inside]
    return [flat[a:b].reshape(s, s) for a, b, s in zip(starts[:-1], starts[1:], sizes)]


class _KeptObservables:
    """<a_k> of every mode, the trace, the purity and the overlap of kept vectors.

    Each observable but the purity is Tr(A rho) = sum_ij A[i, j] rho[j, i]
    = A.flatten(C) . vec_F(rho), for A = a_k embedded in the full space,
    the identity and the embedded coherent projector |c><c| (when
    ``overlap_alpha`` is not None).  A kept vector zk stands for the vector
    z = vec(rho) with z[kept] = zk, z[partners] = conj(zk[n_self:]) and 0
    elsewhere, so a weight w = A.flatten(C) gives
    w[kept] . zk + w[partners] . conj(zk[n_self:]), and the purity z^dag z
    is the sum of |zk|^2 over the self-mirror slice plus twice the sum over
    the rest.
    """

    def __init__(self, dims: HilbertDims, overlap_alpha, overlap_mode: int,
                 kept: np.ndarray, partners: np.ndarray, n_self: int):
        ops = [embed(annihilation(n_k), k, dims).data for k, n_k in enumerate(dims.dims)]
        ops.append(np.eye(dims.total_dim))
        if overlap_alpha is not None:
            c = coherent_amplitudes(overlap_alpha, dims.dims[overlap_mode])
            proj = QOperator(HilbertDims((dims.dims[overlap_mode],)), np.outer(c, c.conj()))
            ops.append(embed(proj, overlap_mode, dims).data)
        # one column per observable: <a_k> of each mode, the trace, the overlap
        weights = np.column_stack([op.flatten(order="C") for op in ops])
        self.w_kept = weights[kept]
        self.w_partners = weights[partners]
        self.n_modes = dims.n_modes
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
    exp(L h) from sample to sample: with dense block propagators when no
    block exceeds :data:`MAX_DENSE_BLOCK`, which also advance each later
    block of :data:`SAMPLE_BLOCK` samples at once, and with
    ``expm_multiply`` otherwise.  Full density matrices are stored
    only at ``opts.snapshot_times`` (which must be finite and lie within the
    grid span), each branched off the last sample at or before it by
    ``expm_multiply`` on the kept vector, so the samples do not depend on
    them.  Raises ValueError when the generator does not preserve
    Hermiticity, and :class:`IntegrationFailure` when the trace drift is not
    within :data:`TRACE_DRIFT_LIMIT` or when ||L||_1 times the largest gap
    that ``expm_multiply`` crosses (each snapshot branch, and on that path
    each step) exceeds :data:`MAX_ACTION_NORM`.
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
    n_t = times.size
    snapshot_times = np.array(sorted(set(float(t) for t in opts.snapshot_times)))
    # against the span, not times[-1], which may lie an ulp short of it
    if np.any(~np.isfinite(snapshot_times) | (snapshot_times < 0)
              | (snapshot_times > grid.span)):
        raise ValueError(
            "snapshot times must be finite and lie within the time grid span "
            f"[0, {grid.span:g}]"
        )

    # one step h serves every sample: times[k] == k h bitwise
    h = times[1] if n_t > 1 else 0.0
    # each snapshot branches off the last sample at or before it
    base = np.searchsorted(times, snapshot_times, side="right") - 1
    offsets = snapshot_times - times[base]
    branch_gaps = offsets[offsets > 0]

    dense_path = max(block_sizes) <= MAX_DENSE_BLOCK
    # expm_multiply crosses the branches, and on its own path the step
    acted = branch_gaps if dense_path else np.append(branch_gaps, h)
    if acted.size:
        kmat = lmat[kept][:, kept]
        kmat.sort_indices()
        # one gap costs about ||L||_1 gap products and expm_multiply never
        # gives up, so refuse a run it would not finish (NaN included)
        cost = float(sparse_norm(kmat, 1)) * float(np.max(acted))
        if not cost <= MAX_ACTION_NORM:
            raise IntegrationFailure(
                f"||L||_1 * largest gap = {cost:.3e} exceeds {MAX_ACTION_NORM:.0e}; "
                "shrink the rates, the sample spacing or the truncation"
            )

    def act(zk: np.ndarray, gap: float) -> np.ndarray:
        return expm_multiply(kmat * gap, zk)

    if dense_path:
        path = "expm"
        dense = _dense_blocks(lmat, kept_blocks)
        ends = np.cumsum([idx.size for idx in kept_blocks]).tolist()
        spans = list(zip([0, *ends[:-1]], ends))
        step_prop = jump_blocks = None

        def step(zk: np.ndarray) -> np.ndarray:
            nonlocal step_prop
            if step_prop is None:
                # every entry of each block, exact zeros included, is stored
                # row by row, so a row of the product sums its block's
                # columns in increasing order
                step_prop = sp.block_diag(_block_exp(dense, h), format="csr")
            return step_prop @ zk

        def jump(block: np.ndarray) -> None:
            # each row becomes the sample SAMPLE_BLOCK after it: one dense
            # product with exp(L_b times[SAMPLE_BLOCK]) per kept block
            nonlocal step_prop, jump_blocks
            if jump_blocks is None:
                jump_blocks = _block_exp(dense, times[SAMPLE_BLOCK])
                # only the first sample block steps by h
                step_prop = None
            for (a, b), prop in zip(spans, jump_blocks):
                block[:, a:b] = block[:, a:b] @ prop.T
    else:
        path = "expm_multiply"

        def step(zk: np.ndarray) -> np.ndarray:
            return act(zk, h)

        # sample by sample only: a jump would cross SAMPLE_BLOCK steps at
        # once, so MAX_ACTION_NORM would refuse runs it admits for one step
        jump = None

    amps = np.empty((dims.n_modes, n_t), dtype=np.complex128)
    tr = np.empty(n_t)
    pur = np.empty(n_t)
    ovl = np.empty(n_t) if opts.overlap_alpha is not None else None
    # each sample's kept state after, and its self-mirror slice before,
    # symmetrisation; evaluated once per block of samples
    rows = np.empty((SAMPLE_BLOCK, kept.size), dtype=np.complex128)
    pre = np.empty((SAMPLE_BLOCK, n_self), dtype=np.complex128)
    kept_full = live[kept]
    partners_full = live[partners]
    obs = _KeptObservables(dims, opts.overlap_alpha, opts.overlap_mode,
                           kept_full, partners_full, n_self)
    snapshots: list[tuple[float, np.ndarray]] = []
    # rho(0) over every live coordinate: only one of a pair's blocks is kept
    herm_dev = float(np.max(np.abs(z0[live] - z0[live[mirror]].conj())))
    branches: dict[int, list[tuple[float, float]]] = {}
    for s, k, offset in zip(snapshot_times.tolist(), base.tolist(), offsets.tolist()):
        branches.setdefault(k, []).append((s, offset))

    def symmetrise(z: np.ndarray) -> None:
        # only self-mirror blocks hold both rho_ij and rho_ji among the kept
        # coordinates; each other kept block's mirror is its conjugate
        z[..., :n_self] = 0.5 * (z[..., :n_self] + z[..., self_dag].conj())

    for start in range(0, n_t, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, n_t)
        k = stop - start
        if start and jump is not None:
            # sample i is exp(L times[SAMPLE_BLOCK]) applied to sample
            # i - SAMPLE_BLOCK, the row it replaces
            jump(rows[:k])
            pre[:k] = rows[:k, :n_self]
            symmetrise(rows[:k])
        else:
            for j, i in enumerate(range(start, stop)):
                # rows[-1] is the last sample of the full block before
                rows[j] = step(rows[j - 1]) if i else z0[kept_full]
                pre[j] = rows[j, :n_self]
                symmetrise(rows[j])
        for j, i in enumerate(range(start, stop)):
            for s, offset in branches.get(i, ()):
                zs = rows[j]
                if offset > 0.0:
                    zs = act(zs, offset)
                    dev = float(np.max(np.abs(zs[:n_self] - zs[self_dag].conj())))
                    herm_dev = max(herm_dev, dev)
                    symmetrise(zs)
                full = np.zeros(m, dtype=np.complex128)
                full[kept_full] = zs
                full[partners_full] = zs[n_self:].conj()
                # Hermitian exactly as it stands; C order like every operator
                # the package builds, so reductions over its entries sum in
                # one order
                snapshots.append((s, np.ascontiguousarray(unvec(full, d))))

        dev = float(np.max(np.abs(pre[:k] - pre[:k, self_dag].conj())))
        if dev > herm_dev:
            herm_dev = dev
        amps[:, start:stop], tr[start:stop], pur[start:stop], overlap = obs.evaluate(rows[:k])
        if ovl is not None:
            ovl[start:stop] = overlap
        # written so that a NaN drift fails the gate
        drift = np.abs(tr[start:stop] - 1.0)
        bad = np.flatnonzero(~(drift <= TRACE_DRIFT_LIMIT))
        if bad.size:
            raise IntegrationFailure(
                f"trace drifted by {drift[bad[0]]:.3e} at t={times[start + bad[0]]:.6g} "
                f"(limit {TRACE_DRIFT_LIMIT:.1e})"
            )

    return Trajectory(
        times=times,
        amplitudes=amps,
        trace=tr,
        purity=pur,
        coherent_overlap=ovl,
        # wrapped only now, so that a failing trace gate is what a broken
        # run raises, not a later snapshot's check
        snapshots=[(t, DensityMatrix(QOperator(dims, rho))) for t, rho in snapshots],
        max_hermiticity_error=herm_dev,
        max_trace_drift=float(np.max(np.abs(tr - 1.0))),
        n_steps=n_t - 1 + branch_gaps.size,
        n_live=n,
        path=path,
        block_sizes=block_sizes,
        n_propagated=kept.size,
    )
