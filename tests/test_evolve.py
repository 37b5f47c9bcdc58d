import numpy as np
import pytest
import scipy.sparse as sp

from helpers import kerr_amplitude, kerr_amplitude_closed_form

from optomem.config import default_params
from optomem.evolve import (
    EvolveOptions,
    IntegrationFailure,
    StiffnessError,
    TimeGrid,
    evolve,
    evolve_rk4,
    generator_check,
)
from optomem.fock import HilbertDims
from optomem.liouvillian import (
    SystemParams,
    Superoperator,
    combined_kerr_liouvillian,
    liouvillian,
)
from optomem.states import coherent_ket, product_dm, vacuum_ket


def zero_superop(n: int) -> Superoperator:
    return Superoperator(HilbertDims((n,)), sp.csr_matrix((n * n, n * n), dtype=complex))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 2.0, 2.0]))
    assert len(TimeGrid(np.array([0.0, 1.0]))) == 2


def test_zero_generator_is_identity_evolution():
    dm = product_dm([coherent_ket(1.0, 6)])
    grid = TimeGrid(np.linspace(0.0, 5.0, 11))
    traj = evolve(dm, zero_superop(6), grid, EvolveOptions(snapshot_times=(5.0,)))
    assert np.allclose(traj.amplitude_optical, traj.amplitude_optical[0], atol=1e-14)
    assert np.max(np.abs(traj.snapshots[0][1].data - dm.data)) < 1e-15
    assert np.allclose(traj.trace, 1.0, atol=1e-14)


def test_damped_oscillator_matches_closed_form():
    omega, gamma, alpha = 0.7, 0.25, 1.2
    params = SystemParams(omega_c=0.0, omega_m=omega, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=gamma, bath_temp=0.0)
    superop = combined_kerr_liouvillian(params, 25)
    dm = product_dm([coherent_ket(alpha, 25)])
    times = np.linspace(0.0, 3.0 / gamma, 25)
    traj = evolve(dm, superop, TimeGrid(times), EvolveOptions(rtol=1e-10, atol=1e-12))
    exact = alpha * np.exp((-1j * omega - gamma / 2.0) * times)
    rel = np.abs(traj.amplitude_optical - exact) / np.abs(exact)
    assert rel.max() < 1e-6


def test_closed_kerr_matches_fock_sum_oracle():
    chi, alpha, n = 0.02, 1.5, 30
    params = SystemParams(omega_c=0.0, omega_m=0.0, k_c=0.01, k_m=0.01, g0=0.0,
                          gamma_c=0.0, gamma_m=0.0, bath_temp=0.0)
    superop = combined_kerr_liouvillian(params, n)
    dm = product_dm([coherent_ket(alpha, n)])
    t_rev = 2.0 * np.pi / chi
    times = np.array([0.0, t_rev / 4.0, t_rev / 2.0, t_rev])
    traj = evolve(dm, superop, TimeGrid(times), EvolveOptions(rtol=1e-11, atol=1e-13))
    for i, t in enumerate(times):
        oracle = kerr_amplitude(alpha, 0.0, chi, n, t)
        got = traj.amplitude_optical[i]
        assert abs(got - oracle) / abs(oracle) < 1e-6
    # the closed form itself agrees with the truncated sum at this capture
    closed = kerr_amplitude_closed_form(alpha, 0.0, chi, t_rev / 2.0)
    assert abs(closed - kerr_amplitude(alpha, 0.0, chi, n, t_rev / 2.0)) < 1e-9


def test_trajectory_quality_signals():
    params = SystemParams(omega_c=0.5, omega_m=0.3, k_c=0.01, k_m=0.01, g0=0.05,
                          gamma_c=1e-3, gamma_m=1e-3, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((5, 5)))
    dm = product_dm([vacuum_ket(5), coherent_ket(1.0, 5)])
    grid = TimeGrid(np.linspace(0.0, 50.0, 200))
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(25.0, 50.0)))
    assert np.max(np.abs(traj.trace - 1.0)) < 1e-6
    assert np.all(traj.purity > 0.0) and np.all(traj.purity <= 1.0 + 1e-8)
    assert traj.max_hermiticity_error < 1e-8
    # positivity at spot-checked snapshot times
    for _, state in traj.snapshots:
        assert state.min_eigenvalue() > -1e-6


def test_unitary_limit_conserves_purity():
    params = SystemParams(omega_c=0.5, omega_m=0.3, k_c=0.01, k_m=0.01, g0=0.05,
                          gamma_c=0.0, gamma_m=0.0, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((5, 5)))
    dm = product_dm([vacuum_ket(5), coherent_ket(1.0, 5)])
    traj = evolve(dm, superop, TimeGrid(np.linspace(0.0, 40.0, 100)), EvolveOptions())
    assert np.max(np.abs(traj.purity - 1.0)) < 1e-8


def test_adaptive_agrees_with_fixed_step():
    params = SystemParams(omega_c=0.4, omega_m=0.2, k_c=0.02, k_m=0.02, g0=0.03,
                          gamma_c=1e-4, gamma_m=1e-4, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((4, 4)))
    dm = product_dm([vacuum_ket(4), coherent_ket(1.0, 4)])
    grid = TimeGrid(np.linspace(0.0, 20.0, 11))
    adaptive = evolve(dm, superop, grid, EvolveOptions())
    fixed = evolve_rk4(dm, superop, grid, dt=1e-3)
    diff = np.abs(np.abs(adaptive.amplitude_mech) - np.abs(fixed.amplitude_mech))
    assert diff.max() < 1e-8


def test_dimension_mismatch():
    dm = product_dm([vacuum_ket(4)])
    with pytest.raises(ValueError):
        evolve(dm, zero_superop(5), TimeGrid(np.array([0.0, 1.0])))


def test_snapshot_outside_span_rejected():
    dm = product_dm([vacuum_ket(4)])
    grid = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evolve(dm, zero_superop(4), grid, EvolveOptions(snapshot_times=(2.0,)))


def test_trace_drift_gate_fires():
    # d(rho)/dt = rho inflates the trace exponentially: not a physical
    # generator, exactly what the quality gate must catch
    n = 3
    bad = Superoperator(HilbertDims((n,)), sp.identity(n * n, dtype=complex, format="csr"))
    dm = product_dm([vacuum_ket(n)])
    with pytest.raises(IntegrationFailure, match="trace drifted"):
        evolve(dm, bad, TimeGrid(np.linspace(0.0, 2.0, 21)))


def test_stiffness_error_on_extreme_rates():
    # decay rate 15 orders beyond the horizon scale: an explicit scheme
    # cannot cross this span and must fail loudly instead of spinning
    params = SystemParams(omega_c=0.0, omega_m=1.0, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=1e15, bath_temp=0.0)
    superop = combined_kerr_liouvillian(params, 4)
    dm = product_dm([coherent_ket(0.8, 4)])
    with pytest.raises(StiffnessError):
        evolve(dm, superop, TimeGrid(np.array([0.0, 1.0])), EvolveOptions())


def test_generator_check_first_order():
    params = SystemParams(omega_c=0.9, omega_m=0.31, k_c=0.07, k_m=0.05, g0=0.11,
                          gamma_c=0.21, gamma_m=0.13, bath_temp=40000.0)
    superop = liouvillian(params, HilbertDims((4, 4)))
    dm = product_dm([vacuum_ket(4), coherent_ket(1.0, 4)])
    r1 = generator_check(superop, dm, 1e-3)
    r2 = generator_check(superop, dm, 5e-4)
    assert 1.8 < r1 / r2 < 2.2


def test_generator_check_zero_generator():
    dm = product_dm([vacuum_ket(4)])
    assert generator_check(zero_superop(4), dm, 1e-3) == 0.0


def test_generator_check_reference_params():
    superop = liouvillian(default_params(), HilbertDims((10, 10)))
    dm = product_dm([vacuum_ket(10), coherent_ket(1.5, 10)])
    assert generator_check(superop, dm, 1e-3) < 1e-3


def test_deterministic_repetition():
    params = SystemParams(omega_c=0.4, omega_m=0.2, k_c=0.02, k_m=0.02, g0=0.03,
                          gamma_c=1e-4, gamma_m=1e-4, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((4, 4)))
    dm = product_dm([vacuum_ket(4), coherent_ket(1.0, 4)])
    grid = TimeGrid(np.linspace(0.0, 10.0, 21))
    t1 = evolve(dm, superop, grid, EvolveOptions())
    t2 = evolve(dm, superop, grid, EvolveOptions())
    assert np.array_equal(t1.amplitude_mech, t2.amplitude_mech)
    assert t1.n_steps == t2.n_steps
