"""Shared independent oracles for the test suite.

Everything here is deliberately written from scratch (direct factorial
formulas, explicit sums, normalised Hermite recurrences) so tests never
validate the package against its own primitives.  The one exception is
``wigner_per_point``, a frozen copy of the earlier per-grid-point Wigner
kernel that the batched kernel must reproduce bit for bit.
"""

import math

import numpy as np
from scipy.special import gammaln


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


def position_density(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x|rho|x> via the Hermite-function expansion."""
    psis = hermite_functions(rho.shape[0], x)
    return np.real(np.einsum("mn,mx,nx->x", rho, psis, psis))


def wigner_per_point(rho, grid) -> np.ndarray:
    """Wigner values of a single-mode state, the radial recurrence run at
    every grid point: the kernel ``optomem.wigner`` used before it evaluated
    radial parts once per distinct radius.  The batched kernel must agree
    with it bit for bit.
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
