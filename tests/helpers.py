"""Shared independent oracles for the test suite.

Everything here is deliberately written from scratch (direct factorial
formulas, explicit sums, normalised Hermite recurrences, ladder matrices
built in place) so tests never validate the package against its own
primitives.  Five exceptions: ``wigner_per_point``, a frozen copy of an
earlier Wigner kernel (the associated-Laguerre recurrence, run at every grid
point) that the Hermite-Gauss kernel must match to rounding;
``shell_rotation``, the earlier eigendecomposition construction of the
Wigner kernel's shell matrices, against which their recursion is checked;
``scipy_kron_lindblad``, which assembles a generator from the package's
operators with scipy's Kronecker product and sparse sums;
``generator_check``, which runs the package's ``evolve`` against a finite
difference of the generator it propagates; and ``evolve_rk4``, a fixed-step
RK4 that takes the package's generator and ladder operators but finds the
coordinates it steps by its own walk, and shares no stepping, observable or
live-set code with ``evolve``.
"""

import math
from collections import deque

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import gammaln

from optomem.evolve import EvolveOptions, TimeGrid, Trajectory, evolve
from optomem.fock import QOperator, annihilation, embed, expectation
from optomem.liouvillian import (
    Superoperator,
    combined_kerr_liouvillian,
    liouvillian,
    unvec,
    vec,
)


def coherent_coeffs(alpha: complex, n: int) -> np.ndarray:
    """Truncated coherent amplitudes from the direct factorial formula."""
    return np.array(
        [
            np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** m / math.sqrt(math.factorial(m))
            for m in range(n)
        ]
    )


def kerr_amplitude(alpha: complex, omega: float, chi: float, n: int, t: float) -> complex:
    """<a(t)> for a closed Kerr mode, by direct truncated Fock sum.

    Uses the renormalised truncated coherent state as the initial condition,
    matching a unit-trace projector on the same truncated space.
    """
    c = coherent_coeffs(alpha, n)
    norm2 = float(np.sum(np.abs(c) ** 2))
    m = np.arange(n - 1)
    phases = np.exp(-1j * (omega + chi * (2 * m + 1)) * t)
    return complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(m + 1.0) * phases) / norm2)


def kerr_amplitude_closed_form(alpha: complex, omega: float, chi: float, t,
                               gamma: float = 0.0):
    """Untruncated closed form for the same quantity, for H = omega n + chi n^2
    damped at rate ``gamma`` into a zero-temperature bath (Milburn & Holmes,
    PRL 56, 2237, 1986):

        alpha e^{-(i omega + i chi + gamma/2) t}
              exp[-|alpha|^2 (2 i chi / (gamma + 2 i chi)) (1 - e^{-(gamma + 2 i chi) t})]

    ``gamma = 0`` takes the closed limit, which stays finite at chi = 0.
    """
    if gamma == 0.0:
        return alpha * np.exp(-1j * (omega + chi) * t) * np.exp(
            abs(alpha) ** 2 * (np.exp(-2j * chi * t) - 1.0)
        )
    rate = gamma + 2j * chi
    return alpha * np.exp(-(1j * (omega + chi) + gamma / 2.0) * t) * np.exp(
        -abs(alpha) ** 2 * (2j * chi / rate) * (1.0 - np.exp(-rate * t))
    )


def radiation_pressure_amplitude_closed_form(alpha: complex, omega_c: float, omega_m: float,
                                             k_c: float, g0: float, t):
    """Untruncated <a(t)> of the two-mode Hamiltonian
    H = omega_c n + k_c n^2 + omega_m b^dag b - g0 n (b + b^dag), with no
    mechanical anharmonicity and no damping, from |alpha>|0> (Bose, Jacobs &
    Knight, PRA 56, 4175, 1997).

    Optical Fock state |n> drives the mechanics from |0> to the coherent
    state beta_n(t) = n kappa u, kappa = g0 / omega_m and
    u = 1 - e^{-i omega_m t}, with the phase
    n^2 kappa^2 (omega_m t - sin(omega_m t)).  Neighbouring n overlap by
    <beta_{n-1}|beta_n> = exp(-kappa^2 |u|^2 / 2), and their phases differ by
    (2n - 1) psi with psi = k_c t - kappa^2 (omega_m t - sin(omega_m t)), so
    the coherent-state sum over n closes as in the Kerr case:

        alpha e^{-i (omega_c t + psi)} exp[|alpha|^2 (e^{-2 i psi} - 1)]
              exp(-kappa^2 |u|^2 / 2)
    """
    kappa = g0 / omega_m
    u = -np.expm1(-1j * omega_m * t)
    psi = k_c * t - kappa ** 2 * (omega_m * t - np.sin(omega_m * t))
    return (alpha * np.exp(-1j * (omega_c * t + psi))
            * np.exp(abs(alpha) ** 2 * np.expm1(-2j * psi))
            * np.exp(-0.5 * kappa ** 2 * np.abs(u) ** 2))


def displacement_operator(alpha: complex, n: int) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) on an n-level mode.

    Computed by Pade scaling-and-squaring of the anti-Hermitian generator,
    so the result is unitary on the truncated space to machine precision.
    """
    lower = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return scipy.linalg.expm(alpha * lower.T - np.conj(alpha) * lower)


def min_eigenvalue(rho) -> float:
    """Smallest eigenvalue of a DensityMatrix; positivity check for small dimensions."""
    return float(np.linalg.eigvalsh(rho.data)[0])


def coherent_overlap(rho, alpha: complex, mode: int = 0) -> float:
    """<alpha| rho_mode |alpha> against the truncated reference coherent state.

    A two-mode DensityMatrix is reduced to ``mode`` first.  The reference ket
    keeps its raw truncated amplitudes, so for well-captured states the value
    is the fidelity of the reduced state with |alpha>.
    """
    reduced = rho.data
    if rho.dims.n_modes == 2:
        d0, d1 = rho.dims.dims
        other = 1 - mode  # the traced-out mode's row axis; its column axis is other + 2
        reduced = np.trace(reduced.reshape(d0, d1, d0, d1), axis1=other, axis2=other + 2)
    c = coherent_coeffs(alpha, reduced.shape[0])
    return float(np.real(c.conj() @ reduced @ c))


def scipy_kron_lindblad(h, jumps, rho0=None):
    """The GKSL generator of Hamiltonian ``h`` and jumps ``(rate, c)`` as
    scipy builds it: I kron K + conj(K) kron I + sum_k r_k conj(c_k) kron c_k
    with K = -i H - (1/2) sum_k r_k c_k^dag c_k, each product by
    ``scipy.sparse.kron`` and the sum by CSR additions, in that order.
    Every column: ``rho0`` must be None.
    """
    assert rho0 is None
    d = h.dims.total_dim
    k = -1j * h.data
    for rate, c in jumps:
        k = k - (0.5 * rate) * (c.data.conj().T @ c.data)
    ident = sp.identity(d, format="csr")
    total = sp.kron(ident, sp.csr_matrix(k)) + sp.kron(sp.csr_matrix(k.conj()), ident)
    for rate, c in jumps:
        total = total + rate * sp.kron(sp.csr_matrix(c.data.conj()), sp.csr_matrix(c.data))
    return Superoperator(h.dims, total.tocsr())


def full_generator(config):
    """A config's generator with every column: the call that
    ``runner.build_problem`` makes, without the initial state."""
    if len(config.dims) == 1:
        return combined_kerr_liouvillian(config.params, config.dims[0])
    return liouvillian(config.params, config.dims)


def generator_check(superop, rho, dt: float) -> float:
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
    grid = TimeGrid(dt, 2)
    opts = EvolveOptions(snapshot_times=(dt,))
    traj = evolve(rho, superop, grid, opts)
    # DensityMatrix renormalises the trace; undo against the sampled trace so
    # the finite difference sees the raw evolved matrix.
    raw = traj.snapshots[0][1].data * traj.trace[-1]
    fd = (raw - rho.data) / dt
    return float(np.max(np.abs(fd - deriv)) / denom)


def rk4_live_set(lmat, z0: np.ndarray, d: int) -> np.ndarray:
    """Sorted coordinates of vec(rho) reachable from the support of ``z0``
    along the pattern of the sparse matrix ``lmat`` (coordinate j feeds i
    when lmat[i, j] is stored), closed under rho_ij <-> rho_ji: a
    breadth-first walk, one coordinate at a time, over the CSC columns."""
    csc = lmat.tocsc()

    def mirror(k: int) -> int:  # rho_ij at i + j d <-> rho_ji at j + i d
        return (k % d) * d + k // d

    live, queue = set(), deque(np.flatnonzero(z0).tolist())
    while queue:
        k = queue.popleft()
        for c in (k, mirror(k)):
            if c not in live:
                live.add(c)
                queue.extend(csc.indices[csc.indptr[c]:csc.indptr[c + 1]].tolist())
    return np.array(sorted(live), dtype=np.intp)


def evolve_rk4(rho0, superop, grid: TimeGrid, dt: float, full_space: bool = False) -> Trajectory:
    """Fixed-step classical RK4 integration; independent cross-check route.

    RK4 leaves exactly 0 every coordinate that rho(0) cannot reach, so only
    the coordinates of :func:`rk4_live_set` are stepped (all of them with
    ``full_space``), after checking that no stored entry in their columns
    lies outside their rows.  Each grid interval is split into
    ceil(interval/dt) equal substeps.  No symmetrisation, no adaptivity, no
    trace gate: the raw fourth-order result is returned for comparison
    against ``evolve``.  Each sample reads <a_k> = Tr(a_k rho), Tr rho and
    sum |rho_ij|^2 off rho = unvec(z), z the stepped vector embedded in the
    full space.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dims = rho0.dims
    if dims != superop.dims:
        raise ValueError(
            f"dimension mismatch: state {dims.dims} vs generator {superop.dims.dims}"
        )
    d = dims.total_dim
    z0 = vec(rho0.data).astype(np.complex128)
    matrix = superop.matrix
    live = np.arange(d * d) if full_space else rk4_live_set(matrix, z0, d)
    assert np.isin(matrix[:, live].tocoo().row, live).all(), "a live column feeds a dead row"
    lmat = matrix[live][:, live]
    a_ops = [embed(annihilation(n_k), k, dims) for k, n_k in enumerate(dims.dims)]
    times = grid.times

    z = z0[live]
    n_t = times.size
    amps = np.zeros((dims.n_modes, n_t), dtype=np.complex128)
    tr = np.zeros(n_t)
    pur = np.zeros(n_t)
    n_steps = 0
    full = np.zeros(d * d, dtype=np.complex128)

    def record(i: int) -> None:
        full[live] = z
        rho = QOperator(dims, unvec(full, d))
        for k, a in enumerate(a_ops):
            amps[k, i] = expectation(a, rho)
        tr[i] = np.trace(rho.data).real
        pur[i] = np.sum(np.abs(rho.data) ** 2)

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


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random positive unit-trace density matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Normalised harmonic-oscillator eigenfunctions psi_n(x), n < nmax.

    Stable normalised recurrence:
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}.
    """
    x = np.asarray(x, dtype=float)
    psis = np.zeros((nmax, x.size))
    psis[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if nmax > 1:
        psis[1] = np.sqrt(2.0) * x * psis[0]
    for n in range(1, nmax - 1):
        psis[n + 1] = np.sqrt(2.0 / (n + 1)) * x * psis[n] - np.sqrt(n / (n + 1.0)) * psis[n - 1]
    return psis


def shell_rotation(shell: int) -> np.ndarray:
    """U^M for M = ``shell``: diag((-1)^(M-m)) expm((pi/4) J_M), where J_M is
    the real antisymmetric tridiagonal matrix with
    J_M[a+1, a] = -J_M[a, a+1] = sqrt((a+1)(M-a)).

    With D = diag(i^a), D^-1 J_M D = -i S for the real symmetric tridiagonal
    S of the same off-diagonal, whose eigenvalues are the integers
    l = -M, -M+2, ..., M.  So with S = V diag(l) V^T from LAPACK,
    expm((pi/4) J_M)[r, c] = Re(i^(r-c) sum_k V[r, k] V[c, k] e^(-i pi l_k/4))
                           = (-1)^(((r-c) mod 4) // 2) G[r, c],
    G = V diag(cos(pi l/4) + sin(pi l/4)) V^T, whose weights
    sqrt(2) sin(pi (l+1)/4) are taken exactly from a table.  Against a
    40-digit expm, at M = 5, 10, 20, 30 and 40, this is off by at most
    5.1e-15, scipy.linalg.expm of (pi/4) J_M by up to 7.1e-14.
    """
    a = np.arange(shell)
    off = np.sqrt((a + 1.0) * (shell - a))
    _, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(shell + 1), off)
    levels = np.arange(-shell, shell + 1, 2)
    weights = np.array([0.0, 1.0, np.sqrt(2.0), 1.0, 0.0, -1.0, -np.sqrt(2.0), -1.0])
    g = (vecs * weights[(levels + 1) % 8]) @ vecs.T
    r = np.arange(shell + 1)
    signs = (-1.0) ** ((r[:, None] - r[None, :]) % 4 // 2 + (shell - r)[:, None])
    return signs * g


def position_density(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x|rho|x> via the Hermite-function expansion."""
    psis = hermite_functions(rho.shape[0], x)
    return np.real(np.einsum("mn,mx,nx->x", rho, psis, psis))


def wigner_per_point(rho, grid) -> np.ndarray:
    """Wigner values of a single-mode state, diagonal by diagonal from the
    associated-Laguerre radial recurrence run at every grid point: a kernel
    independent of the Hermite-Gauss sum in ``optomem.wigner``, which must
    agree with it to rounding (absolute, see ``test_wigner``).
    """
    n_levels = rho.dims.total_dim
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[None, :]
    r2 = x * x + p * p
    r = np.sqrt(r2)
    # Unit phase e^{-i theta}; the radial seed vanishes at r = 0, so the
    # placeholder value there never contributes.
    with np.errstate(invalid="ignore", divide="ignore"):
        phase_unit = np.where(r > 0, (x - 1j * p) / np.where(r > 0, r, 1.0), 1.0)

    w = np.zeros((grid.nx, grid.np))
    rho_mat = rho.data
    log_sqrt2r = np.zeros_like(r)
    np.log(np.sqrt(2.0) * r, out=log_sqrt2r, where=r > 0)

    for k in range(n_levels):
        diag = np.diagonal(rho_mat, -k)
        if not np.any(diag):
            continue
        if k == 0:
            r_prev = np.exp(-r2)
        else:
            r_prev = np.where(
                r > 0,
                np.exp(k * log_sqrt2r - r2 - 0.5 * gammaln(k + 1.0)),
                0.0,
            )
        phase_k = phase_unit ** k if k else 1.0
        acc = diag[0] * r_prev
        r_nm1 = None
        for n in range(1, n_levels - k):
            coeff = 1.0 / np.sqrt(n * (n + k))
            r_cur = coeff * ((2.0 * r2 - (2 * n + k - 1)) * r_prev)
            if r_nm1 is not None:
                r_cur -= coeff * np.sqrt((n - 1) * (n - 1 + k)) * r_nm1
            acc = acc + diag[n] * r_cur
            r_nm1, r_prev = r_prev, r_cur
        contrib = np.real(phase_k * acc) if k else np.real(acc)
        w += (2.0 if k else 1.0) * contrib / np.pi

    return w
