"""Time integration of d(rho)/dt = L rho and time-series observables.

Only the live coordinates of the column-stacked density matrix are advanced:
those reachable from the support of rho(0) along the nonzero pattern of L,
closed under rho_ij <-> rho_ji (:func:`live_coordinates`).  Every other
coordinate stays exactly 0 under L.  The two-mode run with the optical mode in
vacuum and a zero-temperature optical bath keeps 100 of 10 000 coordinates; a
combined-Kerr coherent state keeps all of them.

Both generators are phase-covariant, so the live generator splits further
into symmetry blocks with no entries between them: the weakly connected
components of its nonzero pattern (:func:`symmetry_blocks`; 59 blocks of at
most 30 coordinates for the combined-Kerr presets, 19 of at most 10 for the
two-mode run).  Both also keep rho Hermitian: with M the permutation
rho_ij <-> rho_ji of the coordinates, L[M, M] == conj(L) holds exactly, and
``evolve`` raises ValueError on a generator for which it does not.  M
therefore maps block k (coherence index k) onto block -k, and the state of
block -k is the complex conjugate of block k's.  Only one block of each
such pair is propagated, plus every block that is its own mirror image
(k = 0): 465 of 900 coordinates for the combined-Kerr presets, 55 of 100
for the two-mode run.

The kept blocks are stored one after another, the self-mirror blocks first.
L is time-independent and the grid uniform (:class:`TimeGrid`), so the kept
coordinates go from one sample to the next by exp(L h), h = times[1],
evaluated exactly to double precision on both paths: sample k is the exact
state at k h, which is times[k] bitwise, and no time error builds up.  A
snapshot at s branches off the chain: exp(L (s - t_k)) applied to the state
of the last sample t_k <= s (none when s == t_k), so the trajectory does not
depend on the snapshot times.  When no block is larger than
:data:`MAX_DENSE_BLOCK`, the propagators are dense exp(L_b gap) per kept
block (scaling and squaring with the degree-13 Pade approximant, Higham,
SIMAX 26, 1179, 2005: :func:`_expm`), built from the dense blocks that one
scatter of L's entries fills (:func:`_dense_blocks`), and all of them before
the first sample: the step blocks exp(L_b h), when the grid has more than
one sample, then the jump blocks exp(L_b times[SAMPLE_BLOCK]) (bitwise
SAMPLE_BLOCK h), when it has more than :data:`SAMPLE_BLOCK`.  The first
block of SAMPLE_BLOCK samples is filled by doubling: sample i,
2^l <= i < 2^(l+1), is P^(2^l) applied to sample i - 2^l, where P is the
step and each power the square of the one before.  Each later block is the
jump applied to the block before it, one dense product per kept block.  So
at most log2(SAMPLE_BLOCK) products with powers of the step and
n_t / SAMPLE_BLOCK jumps separate a sample from rho(0).  The jump is not P
squared six times: that was 15% faster on the ``fig2-combined`` Wigner run,
yet it moved <a> from the damped-Kerr closed form by up to 1.0e-13 instead
of 1.6e-14.

The snapshot branches apply the action exp(L gap) z to kept vectors alone,
all of a run's branches at once, after the last sample.  On the dense path
that is a truncated Taylor series of the kept generator's entries
(:func:`_branch`), in substeps as Al-Mohy & Higham (SISC 33, 488, 2011)
choose them for one degree.  On the other path, where every step is such an
action too, scipy's ``expm_multiply`` (the same method) crosses each step
from an operand L h formed before the first sample, and the branches in one
call: exp of a block diagonal is the block diagonal of the exps, so the
base states stacked one after another go to their snapshot times under
block_diag(L gap_1, L gap_2, ...), which holds one copy of the kept
generator's entries per off-grid snapshot.  scipy is imported there, on
first use, and nowhere else in the package.  The cost of an action grows
with the operand's 1-norm, ||L||_1 times its (largest) gap, and it cannot
fail, so the run is refused up front, with :class:`IntegrationFailure`,
when that product exceeds :data:`MAX_ACTION_NORM` for the largest gap it is
asked to cross.

On both paths every state, the initial one and each snapshot included, is
re-symmetrised (rho <- (rho + rho^dag)/2) on the self-mirror blocks, and
the Hermiticity error is the largest deviation this removes (for rho(0),
measured on every live coordinate); each left-out coordinate is the
conjugate of its mirror, so every state the observables, the trace gate and
the snapshots see is exactly Hermitian.

The loop fills one block of :data:`SAMPLE_BLOCK` rows at a time with the
kept vectors of its samples, each re-symmetrised: on the dense path by
doubling in the first block and by one jump of the whole block after it,
on the other sample by sample, each row propagated from the one before.
It then copies the row of each snapshot whose last sample at or before it
lies in the block, and evaluates the block at once on the kept
coordinates: each observable Tr(A rho) (<a_k> of every mode, the trace,
the coherent overlap) has the weight w = A.flatten(C) on vec(rho), folded into w[kept] on the
kept vector plus w[partners] on the conjugate of its paired part, the
purity counts each paired coordinate twice, and the trace gate raises for
the first sample of the block whose drift is not within
:data:`TRACE_DRIFT_LIMIT`.  The trace is never renormalised; its largest
drift is recorded as an integration quality signal.  After the last block
the copied rows are branched, re-symmetrised and scattered to full d x d
states, so a failing trace gate raises before any snapshot is built.
Repeated runs are bitwise reproducible.

The tests cross-check both paths against a fixed-step RK4 on the full space
(``evolve_rk4`` in ``tests/helpers.py``), which shares no stepping or
observable code with this module, and check the dense exponential, the
components and the branches against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# entries and costs O(s_b^3) to build: at most twice per run, both before
# the first sample (the step and the block jump), plus the five squarings
# of the step that fill the first sample block; snapshot branches build
# none.  Two-mode optical storage at (n, 10), whose largest block is 100 n,
# 2 000 samples, one thread (2-vCPU Xeon VM), `simulate` with dense blocks
# vs expm_multiply, median of 3 runs, wall time and peak RSS: largest block
# 200: 0.056 s / 74 MB vs 1.0 s / 66 MB; 300: 0.24 s / 85 MB vs 1.3 s /
# 66 MB; 400: 0.40 s / 101 MB vs 1.7 s / 68 MB; 500: 0.84 s / 123 MB vs
# 1.9 s / 69 MB; 600: 1.5 s / 149 MB vs 2.4 s / 71 MB.  The dense path is
# faster up to 600 but its memory grows as s_b^2; expm_multiply varies
# most between runs: 1.0 to 1.2 s at 200, 1.3 to 2.2 s at 300.  Those runs
# used scipy's expm; with the numpy Pade and no scipy loaded on the dense
# path (one run each): 200: 0.08 s / 43 MB vs 1.2 s / 65 MB; 300: 0.25 s /
# 55 MB vs 1.5 s / 65 MB.
MAX_DENSE_BLOCK = 300

# Largest ||L||_1 * gap that an action is asked to cross: on the dense
# path the snapshot branches, whose Taylor series (``_branch``) takes about
# ||L||_1 times the largest branch gap / 6 substeps; on the other every
# step and the stacked branches of one expm_multiply call, whose operand
# has that product as its 1-norm.  One gap costs O(||L||_1 gap) products.
# One thread (2-vCPU Xeon VM): expm_multiply 1.5 -> 4.9 ms, 1e2 -> 0.10 s
# and 1e3 -> 0.63 s on the 9 820 live coordinates of two-mode optical
# storage at (10, 10), and 18 ms at 1e3 and 0.15 s at 1e4 on a 16-dim
# damped mode; the Taylor series 8.6 ms at 1e2 and 39 ms at 1e3 on that
# mode.  The presets sit at 0.25 (fig4) to 5.3 (fig2-combined).
MAX_ACTION_NORM = 1e3

# Largest |Tr rho(t) - 1| a run may reach.  Both paths are exact, so a
# trace-preserving generator stays at rounding level (<= 3.3e-15 on the presets).
TRACE_DRIFT_LIMIT = 1e-4

# Samples whose kept states are held and then evaluated together: their
# observables and trace gate.  It also sets the jump length of the dense
# path, where each block of samples after the first is
# exp(L times[SAMPLE_BLOCK]) applied to the block before it, from jump
# blocks built before the first sample when the grid is longer than one
# block.  One thread
# (2-vCPU Xeon VM), median of 7 `simulate` calls,
# blocks of 1 / 8 / 16 / 64 / 256 samples: fig4 215 / 58 / 34 / 37 / 44 ms,
# fig2-combined 487 / 188 / 158 / 132 / 146 ms.  At 64 the block holds
# 64 x 465 complex entries (0.5 MB) on the combined presets; the peak RSS of
# `simulate --preset fig4` is 73.4 MB and of `wigner-snapshots --preset
# fig2-combined` 71.9 MB.
SAMPLE_BLOCK = 64


# The coefficients of the numerator of the degree-13 Pade approximant to
# exp, and the largest ||A||_1 at which its backward error stays below
# 2^-53 unscaled (Higham, SIMAX 26, 1179, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# The degree of the Taylor polynomial of one branch substep, and the
# largest ||A||_1 it is applied to: its truncation error is then below
# 2^-53 in the backward sense (Al-Mohy & Higham, SISC 33, 488, 2011,
# Table 3.1).  A series stops early, as theirs does, once two terms in a
# row fall below 2^-53 of the sum.
_TAYLOR_DEGREE = 40
_TAYLOR_THETA = 6.0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the degree-13 Pade approximant.

    ``a`` is scaled by 2^-s so that its 1-norm is at most ``_THETA13``,
    r = q(a)^-1 p(a) with p(a) = V + U and q(a) = V - U (U holds the odd
    powers) is formed as I + 2 q(a)^-1 U, which rounds a small block's r,
    near I, correctly (q^-1 p rounded a population block's diagonal one
    ulp off, and the trace drifted up to 1.2e-14 on the presets instead of
    3.1e-15), and r is squared s times.  An upper triangular ``a`` (a block
    of a mode damped at zero temperature, fed only from higher levels)
    gets the diagonal and the first superdiagonal of each square exactly,
    from exp of the diagonal of a 2^-j (Al-Mohy & Higham, SIMAX 31, 970,
    2009, Code Fragment 2.1): squaring alone moves the diagonal by about
    2^-53 |a_ii|, which at a 1e15 decay rate is most of a trace.
    """
    norm = float(np.max(np.abs(a).sum(axis=0), initial=0.0))
    # a NaN or infinite norm takes no squarings and gives a NaN state, which the trace gate stops
    squarings = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    x = a * 2.0 ** -squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    if not squarings:
        return r
    triangular = not np.tril(a, -1).any()
    diagonal, upper = np.diag(a), np.diag(a, 1)
    for j in range(squarings, -1, -1):
        if j < squarings:
            r = r @ r
        if triangular:
            # exp([[d_i, t], [0, d_k]]) has the corner t (e^d_k - e^d_i) / (d_k - d_i)
            d = diagonal * 2.0 ** -j
            e = np.exp(d)
            np.fill_diagonal(r, e)
            step = np.diff(d)
            corner = e[:-1].copy()
            apart = step != 0
            corner[apart] = np.diff(e)[apart] / step[apart]
            r[np.arange(d.size - 1), np.arange(1, d.size)] = corner * upper * 2.0 ** -j
    return r


def _block_exp(dense: list[np.ndarray], gap: float) -> list[np.ndarray]:
    """exp(L_b gap) of each block L_b of ``dense``: one dense expm per block."""
    return [_expm(block * gap) for block in dense]


def _slots(row: np.ndarray, col: np.ndarray, data: np.ndarray, n: int):
    """Canonical entries of an n x n matrix as the columns and values of
    ``width`` slots of n: slot k holds the k-th entry of every row, and a
    zero entry where the row has fewer, so a product is one gather per slot.
    """
    place = np.arange(row.size) - np.searchsorted(row, row)
    width = int(np.max(place, initial=0)) + 1
    cols = np.zeros((width, n), dtype=np.intp)
    values = np.zeros((width, n, 1), dtype=data.dtype)
    cols[place, row] = col
    values[place, row, 0] = data
    return cols, values


def _branch(row: np.ndarray, col: np.ndarray, data: np.ndarray, norm: float,
            rows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """exp(L gap_j) z_j for each row z_j of ``rows``, where L is the kept
    generator with canonical entries ``row``, ``col``, ``data`` and 1-norm
    ``norm``.

    Each gap is crossed in s substeps of gap_j / s, s the least with
    norm * max(gaps) / s <= :data:`_TAYLOR_THETA`, and each substep sums
    (L gap_j / s)^i z_j / i! up to i = :data:`_TAYLOR_DEGREE`, for every row
    at once.  The sizes the series stops on are maxima over the real and
    imaginary parts.
    """
    cols, values = _slots(row, col, data, rows.shape[1])
    substeps = max(1, math.ceil(norm * float(np.max(gaps)) / _TAYLOR_THETA))
    scale = gaps / substeps
    z = rows.T.copy()  # one column per branch
    for _ in range(substeps):
        total, term = z.copy(), z
        last = np.max(np.abs(term.view(np.float64)))
        for i in range(1, _TAYLOR_DEGREE + 1):
            product = values[0] * term[cols[0]]
            for k in range(1, len(cols)):
                product += values[k] * term[cols[k]]
            product *= scale / i
            term = product
            total += term
            size = np.max(np.abs(term.view(np.float64)))
            if last + size <= 2.0 ** -53 * np.max(np.abs(total.view(np.float64))):
                break
            last = size
        z = total
    return z.T


def _dense_blocks(row: np.ndarray, col: np.ndarray, data: np.ndarray,
                  sizes: list[int]) -> list[np.ndarray]:
    """The dense diagonal blocks, of ``sizes``, of the kept generator whose
    entries are ``row``, ``col`` and ``data``.

    One scatter of the entries: each goes to its block's row-major slice of
    one buffer at its local indices.  No entry links two blocks, and each
    position is stored once, so every entry is assigned, not summed.
    """
    sizes = np.array(sizes)
    ends = np.cumsum(sizes)
    block = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(ends[-1]) - (ends - sizes)[block]
    starts = np.concatenate([[0], np.cumsum(sizes * sizes)])
    flat = np.zeros(starts[-1], dtype=data.dtype)
    owner = block[row]
    flat[starts[owner] + local[row] * sizes[owner] + local[col]] = data
    return [flat[a:b].reshape(s, s) for a, b, s in zip(starts[:-1], starts[1:], sizes)]


def expm_multiply(a, z):
    """``scipy.sparse.linalg.expm_multiply(a, z)``, importing scipy on first use."""
    from scipy.sparse.linalg import expm_multiply as action

    return action(a, z)


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
                 kept: np.ndarray, partners: np.ndarray, n_self: int, max_rows: int):
        ops = [embed(annihilation(n_k), k, dims).data for k, n_k in enumerate(dims.dims)]
        ops.append(np.eye(dims.total_dim))
        if overlap_alpha is not None:
            c = coherent_amplitudes(overlap_alpha, dims.dims[overlap_mode])
            proj = QOperator(HilbertDims((dims.dims[overlap_mode],)), np.outer(c, c.conj()))
            ops.append(embed(proj, overlap_mode, dims).data)
        # one column per observable: <a_k> of each mode, the trace, the overlap
        weights = np.column_stack([op.flatten(order="C") for op in ops])
        self.w_kept = weights[kept]
        # conj(z) . w = conj(z . conj(w)), with no conjugated copy of z
        self.w_partners_conj = weights[partners].conj()
        self.n_modes = dims.n_modes
        self.n_self = n_self
        # the squared real and imaginary parts of up to max_rows rows
        self.squares = np.empty((max_rows, 2 * kept.size))

    def evaluate(self, rows: np.ndarray):
        """<a_k> (one row per mode), trace, purity and overlap of each row."""
        values = rows @ self.w_kept
        values += (rows[:, self.n_self:] @ self.w_partners_conj).conj()
        sq = np.square(rows.view(np.float64), out=self.squares[:len(rows)])
        purity = sq[:, :2 * self.n_self].sum(axis=1) + 2.0 * sq[:, 2 * self.n_self:].sum(axis=1)
        n = self.n_modes
        overlap = values[:, n + 1].real if values.shape[1] > n + 1 else None
        return values[:, :n].T, values[:, n].real, purity, overlap


def _transpose_index(d: int) -> np.ndarray:
    """For each coordinate of vec(rho), the coordinate of the mirrored entry."""
    return np.arange(d * d).reshape((d, d)).flatten(order="F")


def live_coordinates(superop: Superoperator, z0: np.ndarray) -> np.ndarray:
    """Sorted indices of the coordinates of vec(rho) that can become nonzero.

    Starts from the support of ``z0`` = vec(rho(0)) and adds every coordinate
    reachable along the nonzero pattern of the generator (coordinate j feeds
    coordinate i when L[i, j] != 0), closed under rho_ij <-> rho_ji.  Every
    other coordinate stays exactly 0 under d(rho)/dt = L rho.
    """
    mirror = _transpose_index(superop.dims.total_dim)
    live = z0 != 0
    live |= live[mirror]
    frontier = live.copy()
    while frontier.any():
        reached = np.zeros_like(live)
        reached[superop.row[frontier[superop.col]]] = True
        reached |= reached[mirror]
        frontier = reached & ~live
        live |= frontier
    return np.flatnonzero(live)


def symmetry_blocks(row: np.ndarray, col: np.ndarray, n: int) -> list[np.ndarray]:
    """Coordinates of each weakly connected component of the pattern of a
    generator on ``n`` coordinates with entries at (``row``, ``col``).

    No entry links two blocks, so exp(L t) is block diagonal over them.
    Each coordinate takes the smallest label among its neighbours' and its
    own, then the label of its label, until no label changes; every
    coordinate is then labelled by the smallest coordinate of its block.
    Each block lists its coordinates in increasing order; blocks are
    ordered by their smallest coordinate.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[row], label[col])
        new = label.copy()
        np.minimum.at(new, row, low)
        np.minimum.at(new, col, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=n)
    return np.split(order, np.cumsum(sizes[sizes > 0])[:-1])


def _conjugate_symmetric(row: np.ndarray, col: np.ndarray, data: np.ndarray,
                         mirror: np.ndarray) -> bool:
    """Whether L[M, M] == conj(L) entry for entry, NaN equal to NaN.

    ``row``, ``col`` and ``data`` are the canonical entries of L and
    ``mirror`` is the permutation M of its coordinates, an involution, so
    the entry of L at (i, j) is the entry of L[M, M] at (M i, M j).  NaN
    entries compare equal to themselves, so a NaN generator still runs and
    fails the trace gate.
    """
    n = mirror.size
    moved = mirror[row] * n + mirror[col]
    order = np.argsort(moved)
    return (np.array_equal(moved[order], row * n + col)
            and np.array_equal(data[order], data.conj(), equal_nan=True))


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
    block exceeds :data:`MAX_DENSE_BLOCK`, which fill the first block of
    :data:`SAMPLE_BLOCK` samples by doubling and advance each later block
    at once, and with scipy's ``expm_multiply`` otherwise.  Full density
    matrices are stored only at ``opts.snapshot_times`` (which must be
    finite and lie within the grid span), each branched off the last sample
    at or before it by the action of exp(L gap) on the kept vector, all of
    them together after the loop (a Taylor series on the dense path, one
    ``expm_multiply`` call on the other), so the samples do not depend on
    them.  Raises ValueError when the generator does not preserve
    Hermiticity, and :class:`IntegrationFailure` when the trace drift is not
    within :data:`TRACE_DRIFT_LIMIT` or when ||L||_1 times the largest gap
    that an action crosses (each snapshot branch, and on the
    ``expm_multiply`` path each step) exceeds :data:`MAX_ACTION_NORM`.
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
    live = live_coordinates(superop, z0)
    n = live.size
    # L rho(0) lies on the live coordinates.  Checked by one product with
    # the generator as the caller gave it, so a matrix type that counts its
    # products (the traced benchmark) sees the generator used; a finite
    # nonzero elsewhere means the matrix and its entry arrays disagree.
    outside = np.abs(superop @ z0)
    outside[live] = 0.0
    if np.any(outside > 0):
        raise ValueError("L rho(0) leaves the live coordinates: the superoperator's "
                         "matrix does not match its entries")
    # the entries among live coordinates, renumbered in the same order
    at = np.full(m, -1)
    at[live] = np.arange(n)
    among = (at[superop.row] >= 0) & (at[superop.col] >= 0)
    lrow, lcol, ldata = at[superop.row[among]], at[superop.col[among]], superop.data[among]
    mirror = np.searchsorted(live, _transpose_index(d)[live])
    if not _conjugate_symmetric(lrow, lcol, ldata, mirror):
        raise ValueError(
            "generator does not preserve Hermiticity: L[M, M] != conj(L) on the "
            "live coordinates, where M maps rho_ij to rho_ji"
        )
    blocks = symmetry_blocks(lrow, lcol, n)
    block_sizes = tuple(idx.size for idx in blocks)
    kept_blocks, n_self = _fold(blocks, mirror)
    # the kept vector zk holds the coordinates kept[k], block by block; its
    # leading n_self entries are the self-mirror blocks, whose mirrors sit at
    # self_dag, and each later entry has its conjugate written to partners
    kept = np.concatenate(kept_blocks)
    pos = np.full(n, -1)
    pos[kept] = np.arange(kept.size)
    self_dag = pos[mirror[kept[:n_self]]]
    partners = mirror[kept[n_self:]]
    # the kept generator's entries in the coordinates of zk, canonical; no
    # entry links two blocks, so one with a kept row has a kept column
    inside = pos[lrow] >= 0
    krow, kcol = pos[lrow[inside]], pos[lcol[inside]]
    order = np.argsort(krow * kept.size + kcol)
    krow, kcol, kdata = krow[order], kcol[order], ldata[inside][order]

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
    branched = offsets > 0
    branch_gaps = offsets[branched]

    dense_path = max(block_sizes) <= MAX_DENSE_BLOCK
    # an action crosses the branches, and on the expm_multiply path the step
    acted = branch_gaps if dense_path else np.append(branch_gaps, h)
    norm = float(np.max(np.bincount(kcol, np.abs(kdata), minlength=kept.size)))
    # one gap costs about ||L||_1 gap products and an action never gives
    # up, so refuse a run it would not finish (NaN included)
    if acted.size and not norm * float(np.max(acted)) <= MAX_ACTION_NORM:
        raise IntegrationFailure(
            f"||L||_1 * largest gap = {norm * float(np.max(acted)):.3e} exceeds "
            f"{MAX_ACTION_NORM:.0e}; shrink the rates, the sample spacing or the truncation"
        )

    # the propagation plan, fixed before the first sample: on the dense path
    # the step and the jump blocks, each with the columns of the kept vector
    # it acts on, and on the other the step operand; None where the dense
    # path takes no step or jump
    step = jumps = None
    if dense_path:
        path = "expm"
        sizes = [idx.size for idx in kept_blocks]
        dense = _dense_blocks(krow, kcol, kdata, sizes)
        ends = np.cumsum(sizes).tolist()
        spans = list(zip([0, *ends[:-1]], ends))
        if n_t > 1:
            step = list(zip(spans, _block_exp(dense, h)))
        if n_t > SAMPLE_BLOCK:
            jumps = list(zip(spans, _block_exp(dense, times[SAMPLE_BLOCK])))
    else:
        import scipy.sparse as sp

        # sample by sample only: a jump would cross SAMPLE_BLOCK steps at
        # once, so MAX_ACTION_NORM would refuse runs it admits for one step
        path = "expm_multiply"
        kmat = sp.csr_matrix((kdata, kcol, np.searchsorted(krow, np.arange(kept.size + 1))),
                             shape=(kept.size, kept.size))
        step = kmat * h

    amps = np.empty((dims.n_modes, n_t), dtype=np.complex128)
    tr = np.empty(n_t)
    pur = np.empty(n_t)
    ovl = np.empty(n_t) if opts.overlap_alpha is not None else None
    # the kept states of one block of samples, evaluated together
    rows = np.empty((SAMPLE_BLOCK, kept.size), dtype=np.complex128)
    kept_full = live[kept]
    partners_full = live[partners]
    obs = _KeptObservables(dims, opts.overlap_alpha, opts.overlap_mode,
                           kept_full, partners_full, n_self, SAMPLE_BLOCK)
    # the kept state of each snapshot's base sample, copied as the loop
    # passes it, and branched to the snapshot time after the loop
    snap_rows = np.empty((snapshot_times.size, kept.size), dtype=np.complex128)
    # rho(0) over every live coordinate: only one of a pair's blocks is kept
    herm_dev = float(np.max(np.abs(z0[live] - z0[live[mirror]].conj())))

    def symmetrise(z: np.ndarray) -> float:
        # only self-mirror blocks hold both rho_ij and rho_ji among the kept
        # coordinates; each other kept block's mirror is its conjugate
        mirrored = z[..., self_dag].conj()
        dev = float(np.max(np.abs(z[..., :n_self] - mirrored)))
        z[..., :n_self] = 0.5 * (z[..., :n_self] + mirrored)
        return dev

    rows[0] = z0[kept_full]
    herm_dev = max(herm_dev, symmetrise(rows[0]))
    for start in range(0, n_t, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, n_t)
        k = stop - start
        if not dense_path:
            # rows[-1] is the last sample of the full block before
            for j in range(0 if start else 1, k):
                rows[j] = expm_multiply(step, rows[j - 1])
                herm_dev = max(herm_dev, symmetrise(rows[j]))
        elif start:
            # sample i is exp(L times[SAMPLE_BLOCK]) applied to sample
            # i - SAMPLE_BLOCK, the row it replaces
            for (a, b), prop in jumps:
                rows[:k, a:b] = rows[:k, a:b] @ prop.T
            herm_dev = max(herm_dev, symmetrise(rows[:k]))
        else:
            # sample i, 2^l <= i < 2^(l+1), is exp(L h)^(2^l) applied to
            # sample i - 2^l; each power is the square of the one before
            powers, width = step, 1
            while width < k:
                top = min(2 * width, k)
                for (a, b), power in powers:
                    rows[width:top, a:b] = rows[:top - width, a:b] @ power.T
                herm_dev = max(herm_dev, symmetrise(rows[width:top]))
                width = top
                if width < k:
                    powers = [(span, power @ power) for span, power in powers]
        # the base samples of the snapshots that branch off this block
        lo, hi = np.searchsorted(base, (start, stop))
        snap_rows[lo:hi] = rows[base[lo:hi] - start]
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

    # branched only now, so that a failing trace gate is what a broken run
    # raises; exp(block_diag(L gap_j)) is block_diag(exp(L gap_j)), so one
    # expm_multiply call on the stacked base rows crosses every branch
    if branch_gaps.size:
        if dense_path:
            ends = _branch(krow, kcol, kdata, norm, snap_rows[branched], branch_gaps)
        else:
            stack = sp.block_diag([kmat * gap for gap in branch_gaps.tolist()], format="csr")
            ends = expm_multiply(stack, snap_rows[branched].ravel()).reshape(branch_gaps.size, -1)
        herm_dev = max(herm_dev, symmetrise(ends))
        snap_rows[branched] = ends
    snapshots = []
    for s, zs in zip(snapshot_times.tolist(), snap_rows):
        full = np.zeros(m, dtype=np.complex128)
        full[kept_full] = zs
        full[partners_full] = zs[n_self:].conj()
        # Hermitian exactly as it stands; C order like every operator the
        # package builds, so reductions over its entries sum in one order
        rho = np.ascontiguousarray(unvec(full, d))
        snapshots.append((s, DensityMatrix(QOperator(dims, rho))))

    return Trajectory(
        times=times,
        amplitudes=amps,
        trace=tr,
        purity=pur,
        coherent_overlap=ovl,
        snapshots=snapshots,
        max_hermiticity_error=herm_dev,
        max_trace_drift=float(np.max(np.abs(tr - 1.0))),
        n_steps=n_t - 1 + branch_gaps.size,
        n_live=n,
        path=path,
        block_sizes=block_sizes,
        n_propagated=kept.size,
    )
