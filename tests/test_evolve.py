import sys
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from helpers import (
    coherent_coeffs,
    evolve_rk4,
    full_generator,
    generator_check,
    kerr_amplitude,
    kerr_amplitude_closed_form,
    min_eigenvalue,
)

import optomem.evolve as EVOLVE
from optomem.config import PRESET_NAMES, SweepSpec, default_params, preset
from optomem.evolve import (
    EvolveOptions,
    IntegrationFailure,
    TimeGrid,
    evolve,
    live_coordinates,
    symmetry_blocks,
)
from optomem.fock import HilbertDims, QOperator
from optomem.liouvillian import (
    SystemParams,
    Superoperator,
    combined_kerr_liouvillian,
    liouvillian,
    unvec,
    vec,
)
from optomem.runner import build_problem, simulate
from optomem.states import (
    DensityMatrix,
    Ket,
    coherent_ket,
    partial_trace,
    product_dm,
    vacuum_ket,
)


def zero_superop(n: int) -> Superoperator:
    return Superoperator(HilbertDims((n,)), sp.csr_matrix((n * n, n * n), dtype=complex))


def optical_indices(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Optical Fock indices (k_a, k_a') of each coordinate of vec(rho)."""
    d = dims[0] * dims[1]
    k = np.arange(d * d)
    return (k % d) // dims[1], (k // d) // dims[1]


def mechanical_storage(params: SystemParams, dims: tuple[int, int]):
    return liouvillian(params, HilbertDims(dims)), product_dm(
        [vacuum_ket(dims[0]), coherent_ket(1.0, dims[1])]
    )


THERMAL = SystemParams(omega_c=0.5, omega_m=0.3, k_c=0.02, k_m=0.02, g0=0.03,
                       gamma_c=0.05, gamma_m=0.05, bath_temp=3e5)


def test_submodule_imports_bind_the_modules():
    # the package must not re-export a function under its module's name,
    # or `import optomem.evolve as E` binds that function
    import optomem.evolve as E
    import optomem.wigner as W

    assert E is sys.modules["optomem.evolve"]
    assert W is sys.modules["optomem.wigner"]


def test_time_grid_validation():
    for n in (0, -3, 2.0, True, "5", np.int64(5)):
        with pytest.raises(ValueError, match="integer number of samples"):
            TimeGrid(1.0, n)
    # NaN passes a "span <= 0" test, so the check is "positive and finite"
    for span in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid(span, 3)
    for span in (1.0, np.nan):
        with pytest.raises(ValueError, match="span 0"):
            TimeGrid(span, 1)
    assert len(TimeGrid(1.0, 2)) == 2
    assert TimeGrid(0.0, 1).times.tolist() == [0.0]
    assert TimeGrid(2, 5).times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_preset_grids_are_linspace_bitwise():
    # every grid a preset or sweep point samples: the artifacts' time column
    # is np.linspace's, to the last bit
    configs = []
    for name in PRESET_NAMES:
        config = preset(name)
        sweep = isinstance(config, SweepSpec)
        configs += [config.point_config(v) for v in config.values] if sweep else [config]
    assert len(configs) == 19
    for config in configs:
        horizon, n = config.resolved_horizon(), config.n_samples
        grid = TimeGrid(horizon, n)
        assert np.array_equal(grid.times, np.linspace(0.0, horizon, n))


def test_off_lattice_spans_move_only_the_last_sample_by_an_ulp():
    # about 1 grid in 10 has (n - 1) * (span / (n - 1)) != span: np.linspace
    # pins its last sample to span, TimeGrid does not.  No other sample
    # moves, and the last one prints as span does in the artifacts' %.9e
    # (2 151 of these 20 000 grids break; 2 252 with seed 1)
    rng = np.random.default_rng(0)
    spans = np.round(rng.uniform(1.0, 2000.0, 20_000), 1)
    counts = rng.integers(100, 4001, spans.size)
    broken = 0
    for span, n in zip(spans.tolist(), counts.tolist()):
        times = TimeGrid(span, n).times
        moved = np.flatnonzero(times != np.linspace(0.0, span, n))
        if moved.size:
            broken += 1
            assert moved.tolist() == [n - 1]
            assert abs(times[-1] - span) <= np.spacing(span)
            assert f"{times[-1]:.9e}" == f"{span:.9e}"
    assert 1_000 < broken < 4_000


def test_snapshot_at_the_span_branches_off_a_last_sample_an_ulp_short():
    # snapshots are checked against the span, not the last sample, so one at
    # the span stays legal and branches off that sample by one ulp
    grid = TimeGrid(50.0, 200)
    assert 50.0 - grid.times[-1] == np.spacing(50.0) == pytest.approx(7.1e-15, rel=1e-2)
    superop, dm = thermal_combined_kerr()
    plain = evolve(dm, superop, grid)
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(50.0,)))
    assert [t for t, _ in traj.snapshots] == [50.0]
    assert (plain.n_steps, traj.n_steps) == (199, 200)
    assert np.array_equal(traj.amplitudes, plain.amplitudes)
    a = np.diag(np.sqrt(np.arange(1.0, 12.0)), 1)
    rho = traj.snapshots[0][1].data * traj.trace[-1]
    assert abs(np.trace(a @ rho) - traj.amplitudes[0, -1]) < 1e-14


def test_zero_generator_is_identity_evolution():
    dm = product_dm([coherent_ket(1.0, 6)])
    grid = TimeGrid(5.0, 11)
    traj = evolve(dm, zero_superop(6), grid, EvolveOptions(snapshot_times=(5.0,)))
    assert np.allclose(traj.amplitudes[0], traj.amplitudes[0, 0], atol=1e-14)
    assert np.max(np.abs(traj.snapshots[0][1].data - dm.data)) < 1e-15
    assert np.allclose(traj.trace, 1.0, atol=1e-14)


def test_damped_oscillator_matches_closed_form():
    omega, gamma, alpha = 0.7, 0.25, 1.2
    params = SystemParams(omega_c=0.0, omega_m=omega, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=gamma, bath_temp=0.0)
    superop = combined_kerr_liouvillian(params, 25)
    dm = product_dm([coherent_ket(alpha, 25)])
    grid = TimeGrid(3.0 / gamma, 25)
    times = grid.times
    traj = evolve(dm, superop, grid)
    exact = alpha * np.exp((-1j * omega - gamma / 2.0) * times)
    rel = np.abs(traj.amplitudes[0] - exact) / np.abs(exact)
    assert rel.max() < 1e-6


def test_closed_kerr_matches_fock_sum_oracle():
    chi, alpha, n = 0.02, 1.5, 30
    params = SystemParams(omega_c=0.0, omega_m=0.0, k_c=0.01, k_m=0.01, g0=0.0,
                          gamma_c=0.0, gamma_m=0.0, bath_temp=0.0)
    superop = combined_kerr_liouvillian(params, n)
    dm = product_dm([coherent_ket(alpha, n)])
    t_rev = 2.0 * np.pi / chi
    grid = TimeGrid(t_rev, 5)
    traj = evolve(dm, superop, grid)
    for i, t in enumerate(grid.times):
        oracle = kerr_amplitude(alpha, 0.0, chi, n, t)
        got = traj.amplitudes[0, i]
        assert abs(got - oracle) / abs(oracle) < 1e-6
    # the closed form itself agrees with the truncated sum at this capture
    closed = kerr_amplitude_closed_form(alpha, 0.0, chi, t_rev / 2.0)
    assert abs(closed - kerr_amplitude(alpha, 0.0, chi, n, t_rev / 2.0)) < 1e-9


def test_trajectory_quality_signals():
    params = SystemParams(omega_c=0.5, omega_m=0.3, k_c=0.01, k_m=0.01, g0=0.05,
                          gamma_c=1e-3, gamma_m=1e-3, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((5, 5)))
    dm = product_dm([vacuum_ket(5), coherent_ket(1.0, 5)])
    grid = TimeGrid(50.0, 200)
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(25.0, 50.0)))
    assert np.max(np.abs(traj.trace - 1.0)) < 1e-6
    assert np.all(traj.purity > 0.0) and np.all(traj.purity <= 1.0 + 1e-8)
    # the dense propagators and the branch's Taylor series keep the
    # self-mirror blocks Hermitian to the bit here
    assert traj.max_hermiticity_error == 0.0
    # positivity at spot-checked snapshot times
    for _, state in traj.snapshots:
        assert min_eigenvalue(state) > -1e-6


def test_unitary_limit_conserves_purity():
    params = SystemParams(omega_c=0.5, omega_m=0.3, k_c=0.01, k_m=0.01, g0=0.05,
                          gamma_c=0.0, gamma_m=0.0, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((5, 5)))
    dm = product_dm([vacuum_ket(5), coherent_ket(1.0, 5)])
    traj = evolve(dm, superop, TimeGrid(40.0, 100), EvolveOptions())
    assert np.max(np.abs(traj.purity - 1.0)) < 1e-8


def test_two_mode_exact_path_agrees_with_fixed_step_rk4():
    params = SystemParams(omega_c=0.4, omega_m=0.2, k_c=0.02, k_m=0.02, g0=0.03,
                          gamma_c=1e-4, gamma_m=1e-4, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((4, 4)))
    dm = product_dm([vacuum_ket(4), coherent_ket(1.0, 4)])
    grid = TimeGrid(20.0, 11)
    exact = evolve(dm, superop, grid, EvolveOptions())
    fixed = evolve_rk4(dm, superop, grid, dt=1e-3)
    diff = np.abs(np.abs(exact.amplitudes[1]) - np.abs(fixed.amplitudes[1]))
    assert diff.max() < 1e-8


def test_dimension_mismatch():
    dm = product_dm([vacuum_ket(4)])
    with pytest.raises(ValueError):
        evolve(dm, zero_superop(5), TimeGrid(1.0, 2))


def test_snapshot_outside_span_rejected():
    dm = product_dm([vacuum_ket(4)])
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        evolve(dm, zero_superop(4), grid, EvolveOptions(snapshot_times=(2.0,)))
    with pytest.raises(ValueError, match="finite"):
        evolve(dm, zero_superop(4), grid, EvolveOptions(snapshot_times=(0.5, np.nan)))


def test_trace_drift_gate_fires():
    # d(rho)/dt = rho inflates the trace exponentially: not a physical
    # generator, exactly what the quality gate must catch
    n = 3
    bad = Superoperator(HilbertDims((n,)), sp.identity(n * n, dtype=complex, format="csr"))
    dm = product_dm([vacuum_ket(n)])
    with pytest.raises(IntegrationFailure, match="trace drifted"):
        evolve(dm, bad, TimeGrid(2.0, 21))


EXTREME_DECAY = SystemParams(omega_c=0.0, omega_m=1.0, k_c=0.0, k_m=0.0, g0=0.0,
                             gamma_c=0.0, gamma_m=1e15, bath_temp=0.0)


def test_action_path_refuses_extreme_rates(monkeypatch):
    # decay rate 15 orders beyond the horizon scale: the Taylor action would need
    # about 1e15 products for this gap and never gives up, so the run must
    # fail loudly before the first step instead of spinning
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)  # force the taylor path
    superop = combined_kerr_liouvillian(EXTREME_DECAY, 4)
    dm = product_dm([coherent_ket(0.8, 4)])
    start = time.monotonic()
    with pytest.raises(IntegrationFailure, match="largest gap"):
        evolve(dm, superop, TimeGrid(1.0, 2), EvolveOptions())
    assert time.monotonic() - start < 5.0


def test_action_path_refuses_nan_generator(monkeypatch):
    # ||L||_1 is NaN, which a "cost > limit" test would let through to
    # the Taylor action
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)
    n = 3
    bad = Superoperator(HilbertDims((n,)), sp.csr_matrix(
        ([np.nan + 0j], ([0], [0])), shape=(n * n, n * n)))
    dm = product_dm([vacuum_ket(n)])
    with pytest.raises(IntegrationFailure, match="largest gap = nan"):
        evolve(dm, bad, TimeGrid(1.0, 3))


def test_exact_path_crosses_extreme_rates_to_closed_form_decay():
    # the generator the taylor path refuses: the dense exp(L t) still gives
    # <a>(t) = <a>(0) exp((-i omega - gamma/2) t), exact in the truncation
    superop = combined_kerr_liouvillian(EXTREME_DECAY, 4)
    dm = product_dm([coherent_ket(0.8, 4)])
    for grid, snapshot_times in ((TimeGrid(4e-15, 5), ()), (TimeGrid(1.0, 2), (1.0,))):
        traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=snapshot_times))
        assert traj.path == "expm"
        exact = traj.amplitudes[0, 0] * np.exp((-1j - 0.5e15) * grid.times)
        assert np.max(np.abs(traj.amplitudes[0] - exact)) < 1e-12
        assert np.max(np.abs(traj.trace - 1.0)) < 1e-12
    vacuum = np.zeros((4, 4))
    vacuum[0, 0] = 1.0
    assert np.max(np.abs(traj.snapshots[0][1].data - vacuum)) < 1e-12


def test_dense_path_refuses_a_branch_beyond_the_action_bound():
    # the dense propagators cross these rates between samples, but an
    # off-grid snapshot branches by a Taylor series, whose cost grows with
    # ||L||_1 times the branch; the run is refused before its first step
    superop = combined_kerr_liouvillian(EXTREME_DECAY, 4)
    dm = product_dm([coherent_ket(0.8, 4)])
    grid = TimeGrid(1.0, 2)
    assert evolve(dm, superop, grid, EvolveOptions(snapshot_times=(1.0,))).path == "expm"
    start = time.monotonic()
    with pytest.raises(IntegrationFailure, match="largest gap"):
        evolve(dm, superop, grid, EvolveOptions(snapshot_times=(0.5,)))
    assert time.monotonic() - start < 5.0


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
    grid = TimeGrid(10.0, 21)
    t1 = evolve(dm, superop, grid, EvolveOptions())
    t2 = evolve(dm, superop, grid, EvolveOptions())
    assert np.array_equal(t1.amplitudes[1], t2.amplitudes[1])
    assert t1.n_steps == t2.n_steps


def test_live_set_optical_vacuum_at_zero_temperature():
    superop, dm = mechanical_storage(default_params(), (10, 10))
    live = live_coordinates(superop, vec(dm.data))
    k_a, k_a_prime = optical_indices((10, 10))
    assert np.array_equal(live, np.flatnonzero((k_a == 0) & (k_a_prime == 0)))
    assert live.size == 100
    mirror = np.arange(10_000).reshape((100, 100)).flatten(order="F")
    assert np.array_equal(np.sort(mirror[live]), live)


def test_live_set_thermal_optical_bath_is_the_optical_diagonal():
    assert THERMAL.n_optical() > 0
    superop, dm = mechanical_storage(THERMAL, (10, 10))
    live = live_coordinates(superop, vec(dm.data))
    k_a, k_a_prime = optical_indices((10, 10))
    assert np.array_equal(live, np.flatnonzero(k_a == k_a_prime))
    assert live.size == 1000


def test_restricted_evolve_agrees_with_full_rk4_on_thermal_bath():
    superop, dm = mechanical_storage(THERMAL, (3, 4))
    grid = TimeGrid(10.0, 11)
    restricted = evolve(dm, superop, grid)
    full = evolve_rk4(dm, superop, grid, dt=1e-3)
    assert restricted.n_live == 3 * 16
    assert np.max(np.abs(restricted.amplitudes[1] - full.amplitudes[1])) < 1e-8
    assert np.max(np.abs(restricted.purity - full.purity)) < 1e-8
    assert np.max(np.abs(restricted.trace - full.trace)) < 1e-8


def test_live_set_combined_kerr_coherent_state_is_everything():
    superop = combined_kerr_liouvillian(default_params(), 12)
    dm = product_dm([coherent_ket(1.5, 12)])
    live = live_coordinates(superop, vec(dm.data))
    assert np.array_equal(live, np.arange(144))


def test_live_set_of_zero_generator_is_the_initial_support():
    ket = Ket(HilbertDims((4,)), np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0))
    dm = product_dm([ket])
    # rho_00, rho_20, rho_02, rho_22 at column-stacked indices 0, 2, 8, 10
    assert live_coordinates(zero_superop(4), vec(dm.data)).tolist() == [0, 2, 8, 10]
    traj = evolve(dm, zero_superop(4), TimeGrid(1.0, 2))
    assert traj.n_live == 4


def test_live_set_closed_under_transposition():
    # a generator that only feeds rho_10 from rho_00 (not Hermiticity
    # preserving): rho_01 must still be live so re-symmetrisation can see it
    n = 3
    feed = sp.csr_matrix(([1.0 + 0j], ([1], [0])), shape=(n * n, n * n))
    dm = product_dm([vacuum_ket(n)])
    assert live_coordinates(Superoperator(HilbertDims((n,)), feed), vec(dm.data)).tolist() == [0, 1, 3]


def test_restricted_snapshot_is_full_with_exact_zeros_outside_live_set():
    superop, dm = mechanical_storage(default_params(), (4, 5))
    live = live_coordinates(superop, vec(dm.data))
    traj = evolve(dm, superop, TimeGrid(20.0, 5),
                  EvolveOptions(snapshot_times=(10.0, 20.0)))
    assert traj.n_live == live.size == 25
    for _, state in traj.snapshots:
        assert state.data.shape == (20, 20)
        dead = np.delete(vec(state.data), live)
        assert dead.size == 400 - 25 and np.all(dead == 0.0)
        assert np.any(vec(state.data)[live] != 0.0)


def test_symmetry_blocks_of_the_presets():
    # coherence-index blocks: k = m - m' for the combined mode (59 blocks of
    # 30 - |k|), the mechanical index in the 100 live coordinates of fig4
    grid = TimeGrid(1.0, 2)
    for name, n_blocks, largest in (("fig2-combined", 59, 30), ("fig4", 19, 10)):
        superop, dm = build_problem(preset(name))
        traj = evolve(dm, superop, grid)
        assert traj.path == "expm"
        assert len(traj.block_sizes) == n_blocks
        assert max(traj.block_sizes) == largest
    superop, dm = build_problem(preset("fig2-combined"))
    blocks = symmetry_blocks(superop.row, superop.col, 900)
    k = np.arange(900)
    coherence = k % 30 - k // 30  # m - m' of the coordinate m + 30 m'
    for idx in blocks:
        assert np.all(np.diff(idx) > 0)
        assert np.unique(coherence[idx]).size == 1


def test_evolve_makes_a_product_with_the_matrix_a_caller_gives():
    # a caller's scipy matrix is kept and multiplied at least once (a check
    # that L rho(0) stays on the live coordinates), so a matrix type that
    # counts its products sees the generator used; the run is the run of
    # the package's own generator, bit for bit
    class CountingMatrix(sp.csr_matrix):
        products = 0

        def __matmul__(self, other):
            self.products += 1
            return super().__matmul__(other)

    superop, dm = build_problem(preset("fig4"))
    grid = TimeGrid(20.0, 101)
    counting = CountingMatrix(superop.matrix)
    traj = evolve(dm, Superoperator(superop.dims, counting), grid)
    assert counting.products >= 1
    assert np.array_equal(traj.amplitudes, evolve(dm, superop, grid).amplitudes)


def test_symmetry_blocks_match_scipy_connected_components():
    # the label propagation against scipy's weakly connected components:
    # the full generators of the presets (on the dense path and, for
    # optical storage, on the other), and random patterns with isolated
    # coordinates, chains and one-way entries
    def scipy_blocks(matrix):
        n_blocks, labels = connected_components(matrix != 0, directed=True, connection="weak")
        order = np.argsort(labels, kind="stable")
        return np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])

    sweep = preset("fig7")
    configs = [preset("fig2-combined"), preset("fig4"), preset("harmonic-check"),
               replace(preset("fig4"), storage_mode=0),
               *(sweep.point_config(value) for value in sweep.values)]
    patterns = [full_generator(config).matrix for config in configs]
    rng = np.random.default_rng(5)
    for n, density in ((1, 1.0), (7, 0.0), (40, 0.02), (200, 0.004), (300, 0.01)):
        patterns.append(sp.random(n, n, density=density, format="csr", random_state=rng))
    patterns.append(sp.diags([np.ones(59)], [1], shape=(60, 60), format="csr"))
    for matrix in patterns:
        coo = matrix.tocoo()
        got = symmetry_blocks(coo.row.astype(np.intp), coo.col.astype(np.intp), matrix.shape[0])
        expected = scipy_blocks(matrix)
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_dense_exponential_matches_scipy_on_the_preset_blocks(monkeypatch):
    # the numpy Pade exponential of every step and jump block that the
    # dense path builds for these presets, against scipy.linalg.expm (Al-Mohy
    # & Higham, SIMAX 31, 970, 2009); relative to the block's largest entry
    # or 1, the largest differences measured are 1.6e-15 at the step and
    # 9.7e-14 at the jump, where both square 6 or 7 times
    built = []
    original = EVOLVE._block_exp
    monkeypatch.setattr(EVOLVE, "_block_exp",
                        lambda dense, gap: built.append((dense, gap)) or original(dense, gap))
    sweep = preset("fig7")
    worst = {"step": 0.0, "jump": 0.0}
    for config in (preset("fig2-combined"), preset("fig4"),
                   *(sweep.point_config(value) for value in sweep.values)):
        built.clear()
        traj, _ = simulate(config)
        assert [gap for _, gap in built] == [traj.times[1], traj.times[EVOLVE.SAMPLE_BLOCK]]
        for kind, (dense, gap) in zip(("step", "jump"), built):
            for block in dense:
                got, expected = EVOLVE._expm(block * gap), scipy.linalg.expm(block * gap)
                gap_to_scipy = np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected)))
                worst[kind] = max(worst[kind], gap_to_scipy)
    assert worst["step"] < 4e-15 and worst["jump"] < 2e-13


def thermal_combined_kerr():
    params = default_params(gamma_c=1e-3, gamma_m=1e-3, bath_temp=0.003)
    assert params.n_mech() > 0.1
    return combined_kerr_liouvillian(params, 12), product_dm([coherent_ket(1.2, 12)])


def test_dense_path_agrees_with_expm_multiply_on_thermal_combined_kerr(monkeypatch):
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(60.0, 121)
    opts = EvolveOptions(snapshot_times=(30.0, 45.25), overlap_alpha=1.2)
    dense = evolve(dm, superop, grid, opts)
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)
    action = evolve(dm, superop, grid, opts)
    assert (dense.path, action.path) == ("expm", "taylor")
    # 120 grid gaps, one of them split by the snapshot at 45.25
    for traj in (dense, action):
        assert traj.n_rejected == 0 and traj.n_steps == 121
        assert traj.max_hermiticity_error < 1e-13
    # the populations, the one self-mirror block, stay real on the dense path
    assert dense.max_hermiticity_error == 0.0
    for a, b in ((dense.amplitudes[0], action.amplitudes[0]),
                 (dense.trace, action.trace), (dense.purity, action.purity),
                 (dense.coherent_overlap, action.coherent_overlap)):
        assert np.max(np.abs(a - b)) < 1e-9
    assert len(dense.snapshots) == len(action.snapshots) == 2
    for (t1, s1), (t2, s2) in zip(dense.snapshots, action.snapshots):
        assert t1 == t2 and np.max(np.abs(s1.data - s2.data)) < 1e-9


def test_first_sample_block_by_doubling_matches_expm():
    # the first block is filled by the powers exp(L h)^(2^l), so samples on
    # both sides of each power of two; 64 and the last come by the jump
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(0.25 * 99, 100)
    picks = [1, 2, 3, 31, 32, 33, 63, 64, 99]
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=tuple(grid.times[picks])))
    assert traj.path == "expm" and traj.n_steps == 99
    generator = superop.matrix.toarray()
    d = dm.dims.total_dim
    worst = 0.0
    for t, state in traj.snapshots:
        exact = unvec(scipy.linalg.expm(generator * t) @ vec(dm.data), d)
        worst = max(worst, float(np.max(np.abs(state.data - exact))))
    # largest difference measured: 1.3e-15 (1.4e-15 stepping sample by sample)
    assert worst < 4e-15


def test_exact_path_agrees_with_fixed_step_rk4(monkeypatch):
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(20.0, 11)
    exact = evolve(dm, superop, grid)

    def shared(*args, **kwargs):
        raise AssertionError("RK4 must not read its observables through evolve's weights")

    # a wrong weight or fold would then move only one of the two routes
    monkeypatch.setattr(EVOLVE, "_KeptObservables", shared)
    fixed = evolve_rk4(dm, superop, grid, dt=1e-3)
    assert exact.path == "expm" and fixed.path is None
    assert exact.amplitudes.shape == fixed.amplitudes.shape == (1, 11)
    assert np.max(np.abs(exact.amplitudes[0] - fixed.amplitudes[0])) < 1e-9
    assert np.max(np.abs(exact.purity - fixed.purity)) < 1e-9
    assert np.max(np.abs(exact.trace - fixed.trace)) < 1e-9


def test_block_larger_than_the_dense_limit_selects_expm_multiply(monkeypatch):
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(5.0, 6)
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 12)
    at_limit = evolve(dm, superop, grid)
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 11)
    above = evolve(dm, superop, grid)
    assert max(at_limit.block_sizes) == max(above.block_sizes) == 12
    assert at_limit.path == "expm" and above.path == "taylor"
    # one application of exp(L gap) per gap on both paths
    assert at_limit.n_steps == above.n_steps == 5


def test_dense_blocks_are_the_slices_of_the_generator(monkeypatch):
    # one scatter of the kept generator's entries gives each kept block
    # bitwise as two sparse slices of it do
    original = EVOLVE._dense_blocks
    checked = []

    def sliced(row, col, data, sizes):
        dense = original(row, col, data, sizes)
        n = sum(sizes)
        kept = sp.csr_matrix((data, (row, col)), shape=(n, n))
        ends = np.cumsum(sizes)
        for a, b, block in zip(ends - sizes, ends, dense, strict=True):
            assert block.tobytes() == kept[a:b][:, a:b].toarray().tobytes()
        checked.append(len(dense))
        return dense

    monkeypatch.setattr(EVOLVE, "_dense_blocks", sliced)
    grid = TimeGrid(1.0, 2)
    for config in (preset("fig2-combined"), preset("fig4"), preset("fig7").point_config(3.0)):
        superop, dm = build_problem(config)
        assert evolve(dm, superop, grid).path == "expm"
    # kept blocks k = 0..29 of the combined mode, k = 0..9 of fig4
    assert checked == [30, 10, 30]


@pytest.fixture
def built(monkeypatch):
    """The gap of every ``_block_exp`` call, in call order."""
    gaps = []
    original = EVOLVE._block_exp
    monkeypatch.setattr(EVOLVE, "_block_exp",
                        lambda dense, gap: gaps.append(gap) or original(dense, gap))
    return gaps


def branch_calls(monkeypatch) -> list:
    """The plan, the shape of the stacked rows and the gaps of every
    ``_branch`` call, in call order."""
    calls = []
    original = EVOLVE._branch
    monkeypatch.setattr(EVOLVE, "_branch", lambda plan, rows, gaps: calls.append(
        (plan, rows.shape, gaps.tolist())) or original(plan, rows, gaps))
    return calls


def test_one_step_propagator_serves_every_step(monkeypatch, built):
    branched = branch_calls(monkeypatch)
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(4.0, 9)
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(1.2,)))
    # eight steps of 0.5 along the samples by one propagator, built once; the
    # branch from the sample at 1.0 to the snapshot builds no propagator but
    # is the run's one action on the kept vector
    assert traj.path == "expm" and traj.n_steps == 9
    assert built == [0.5]
    assert [call[1:] for call in branched] == [((1, traj.n_propagated), [1.2 - 1.0])]


@pytest.mark.parametrize("n, n_built", [(1, 0), (2, 1), (EVOLVE.SAMPLE_BLOCK, 1),
                                          (EVOLVE.SAMPLE_BLOCK + 1, 2),
                                          (2 * EVOLVE.SAMPLE_BLOCK + 1, 2)])
def test_dense_plan_builds_the_step_and_the_jump_a_grid_uses(monkeypatch, built, n, n_built):
    # the step when the grid has one, then the jump when it is longer than
    # one sample block; each sample stays with the per-sample chain that
    # one block longer than the grid gives
    superop, dm = thermal_combined_kerr()
    # h = 0.25, so times[k] == 0.25 k bitwise
    grid = TimeGrid(0.25 * (n - 1), n)
    step, jump = 0.25, 0.25 * EVOLVE.SAMPLE_BLOCK
    opts = EvolveOptions(overlap_alpha=1.2)
    planned = evolve(dm, superop, grid, opts)
    assert planned.path == "expm" and planned.n_steps == n - 1
    assert built == [step, jump][:n_built]
    built.clear()
    monkeypatch.setattr(EVOLVE, "SAMPLE_BLOCK", n + 1)
    chained = evolve(dm, superop, grid, opts)
    assert built == [step][:n_built]
    # largest difference measured: 2.5e-15
    for name in ("amplitudes", "trace", "purity", "coherent_overlap"):
        assert np.max(np.abs(getattr(planned, name) - getattr(chained, name))) < 2e-14


def test_expm_multiply_plan_forms_one_step_operand(monkeypatch, built):
    # every step is one action on one row at gap h, all with the same plan,
    # formed before the first sample, past two sample blocks and with no
    # dense propagator built
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)
    plans = []
    original = EVOLVE._action_plan
    monkeypatch.setattr(EVOLVE, "_action_plan",
                        lambda *args: plans.append(original(*args)) or plans[-1])
    branched = branch_calls(monkeypatch)
    superop, dm = thermal_combined_kerr()
    n = 2 * EVOLVE.SAMPLE_BLOCK + 1
    traj = evolve(dm, superop, TimeGrid(0.25 * (n - 1), n))
    assert traj.path == "taylor" and traj.n_steps == len(branched) == n - 1
    assert len(plans) == 1 and all(plan is plans[0] for plan, _, _ in branched)
    assert all(call[1:] == ((1, traj.n_propagated), [0.25]) for call in branched)
    assert built == []


@pytest.mark.parametrize("max_dense_block, path", [(300, "expm"), (0, "taylor")])
def test_trajectory_does_not_depend_on_snapshots(monkeypatch, max_dense_block, path):
    # snapshots branch off the sample chain, so asking for them, on sample
    # times or between them, moves no bit of any sampled observable
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", max_dense_block)
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(30.0, 150)
    times = grid.times
    plain = evolve(dm, superop, grid, EvolveOptions(overlap_alpha=1.2))
    for snapshot_times in ((times[3], times[70], 30.0), (0.1, 7.7, 29.99), (0.0, 7.7, times[99])):
        traj = evolve(dm, superop, grid,
                      EvolveOptions(snapshot_times=snapshot_times, overlap_alpha=1.2))
        assert traj.path == plain.path == path
        assert [t for t, _ in traj.snapshots] == sorted(snapshot_times)
        for name in ("amplitudes", "trace", "purity", "coherent_overlap"):
            assert np.array_equal(getattr(traj, name), getattr(plain, name))
        assert traj.max_trace_drift == plain.max_trace_drift
        off_grid = np.count_nonzero(~np.isin(snapshot_times, times))
        assert traj.n_steps == plain.n_steps + off_grid == 149 + off_grid


@pytest.mark.parametrize("max_dense_block, path", [(300, "expm"), (0, "taylor")])
def test_off_grid_branches_are_one_stacked_action(monkeypatch, max_dense_block, path):
    # every off-grid snapshot is advanced from its base sample by one action
    # on the stacked rows after the loop, on both paths, the taylor path's
    # steps being one action each before it; each still matches exp(L gap)
    # of its own base state
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", max_dense_block)
    calls = branch_calls(monkeypatch)
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(30.0, 150)
    times = grid.times
    # three off-grid times in three sample blocks, one on-grid time
    off_grid = (0.1, 15.5, 29.99)
    traj = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(*off_grid, times[99])))
    steps = [((1, traj.n_propagated), [times[1]])] * (0 if path == "expm" else times.size - 1)
    base = times[np.searchsorted(times, off_grid, side="right") - 1]
    stacked = ((len(off_grid), traj.n_propagated), (np.array(off_grid) - base).tolist())
    assert traj.path == path
    assert [call[1:] for call in calls] == [*steps, stacked]
    assert traj.n_steps == times.size - 1 + len(off_grid)
    # the base samples as on-grid snapshots, which no call branches; the
    # on-grid snapshot is the same copy of its sample in both runs
    calls.clear()
    bases = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(*base, times[99])))
    assert [call[1:] for call in calls] == steps and bases.n_steps == times.size - 1
    branched, started = dict(traj.snapshots), dict(bases.snapshots)
    assert np.array_equal(branched[times[99]].data, started[times[99]].data)
    generator = superop.matrix.toarray()
    d = dm.dims.total_dim
    worst = 0.0
    for t, t0 in zip(off_grid, base.tolist()):
        expected = unvec(scipy.linalg.expm(generator * (t - t0)) @ vec(started[t0].data), d)
        worst = max(worst, float(np.max(np.abs(branched[t].data - expected))))
    # largest difference measured: 1.1e-16 on both paths
    assert worst < 2e-15


def test_off_grid_snapshots_match_damped_kerr_closed_form(fig2_result):
    # each off-grid snapshot is a branch of its own length off the sample
    # before it; its <a> holds the closed form at its own time
    traj, _ = fig2_result
    config = preset("fig2-combined")
    params = config.params
    a = np.diag(np.sqrt(np.arange(1.0, 30.0)), 1)
    off_grid = [(t, state) for t, state in traj.snapshots if t not in traj.times]
    assert len(off_grid) == 14
    for t, state in off_grid:
        closed = kerr_amplitude_closed_form(config.alpha, params.omega_m, params.k_c + params.k_m,
                                            np.array([t]), params.gamma_m)[0]
        assert abs(np.trace(a @ state.data) - closed) < 1e-12


def test_one_propagator_per_uniform_grid(built):
    # one build for the steps of the first sample block and one for the jump
    # of each later block; the off-grid snapshots build none
    for config, n_built, n_steps in ((preset("fig2-combined"), 2, 2013),
                                     (preset("fig4"), 2, 1999),
                                     (preset("fig7").point_config(3.0), 2, 1999)):
        built.clear()
        traj, _ = simulate(config)
        assert len(built) == n_built and traj.n_steps == n_steps
        assert built[0] == traj.times[1]
        assert built.count(traj.times[EVOLVE.SAMPLE_BLOCK]) == 1


def test_sample_block_jumps_match_the_per_sample_chain(monkeypatch, built):
    # 200 samples: the second, third and (partial) fourth sample block are
    # each exp(L times[SAMPLE_BLOCK]) applied to the block before; with one
    # block longer than the grid, every sample steps by exp(L h) instead
    superop, dm = thermal_combined_kerr()
    grid = TimeGrid(60.0, 200)
    times = grid.times
    assert 3 * EVOLVE.SAMPLE_BLOCK < times.size
    opts = EvolveOptions(snapshot_times=(30.0, 45.25, times[150]), overlap_alpha=1.2)
    on_grid = EvolveOptions(snapshot_times=(times[150],), overlap_alpha=1.2)
    jump = times[EVOLVE.SAMPLE_BLOCK]
    jumped = evolve(dm, superop, grid, opts)
    assert built.count(jump) == 1
    plain = [evolve(dm, superop, grid, on_grid)]
    built.clear()
    monkeypatch.setattr(EVOLVE, "SAMPLE_BLOCK", times.size + 1)
    stepped = evolve(dm, superop, grid, opts)
    assert jump not in built
    plain.append(evolve(dm, superop, grid, on_grid))
    assert jumped.path == stepped.path == "expm"
    assert jumped.n_steps == stepped.n_steps == 199 + 2
    # the dense propagators keep every sample Hermitian bitwise, and so does
    # the Taylor series of the two off-grid branches: the self-mirror block
    # (the populations) is real
    assert [traj.max_hermiticity_error for traj in plain] == [0.0, 0.0]
    assert jumped.max_hermiticity_error == 0.0
    assert stepped.max_hermiticity_error == 0.0
    # largest difference measured: 4.4e-15
    for name in ("amplitudes", "trace", "purity", "coherent_overlap"):
        assert np.max(np.abs(getattr(jumped, name) - getattr(stepped, name))) < 2e-14
    for (t1, s1), (t2, s2) in zip(jumped.snapshots, stepped.snapshots, strict=True):
        assert t1 == t2 and np.max(np.abs(s1.data - s2.data)) < 2e-14


def test_trace_gate_rejects_nan():
    # a NaN generator entry makes the whole state NaN; NaN > limit is False,
    # so the gate must test "within the limit", not "beyond it"
    n = 3
    bad = Superoperator(HilbertDims((n,)), sp.csr_matrix(
        ([np.nan + 0j], ([0], [0])), shape=(n * n, n * n)))
    dm = product_dm([vacuum_ket(n)])
    with pytest.raises(IntegrationFailure, match="trace drifted by nan"):
        evolve(dm, bad, TimeGrid(1.0, 3))


def assert_samples_match_snapshots(superop, dm, lowering, overlap_alpha, overlap_mode):
    """Every sample's <a_k>, trace, purity and overlap against its snapshot."""
    # 150 samples fill two sample blocks and end inside a third; every
    # sample is also a snapshot, whose matrix gives each observable directly
    assert 2 * EVOLVE.SAMPLE_BLOCK < 150 < 3 * EVOLVE.SAMPLE_BLOCK
    grid = TimeGrid(30.0, 150)
    times = grid.times
    traj = evolve(dm, superop, grid,
                  EvolveOptions(snapshot_times=tuple(times), overlap_alpha=overlap_alpha,
                                overlap_mode=overlap_mode))
    assert [t for t, _ in traj.snapshots] == times.tolist()
    assert traj.amplitudes.shape == (len(lowering), 150)
    ket = coherent_coeffs(overlap_alpha, dm.dims.dims[overlap_mode])
    for i, (_, state) in enumerate(traj.snapshots):
        # a snapshot is rescaled to unit trace; the sampled trace undoes
        # that, so a wrong trace would scale every direct value
        rho = state.data * traj.trace[i]
        if dm.dims.n_modes > 1:
            state = partial_trace(state, overlap_mode)
        stored = state.data * traj.trace[i]
        direct = [np.trace(a @ rho) for a in lowering] + [
            np.trace(rho @ rho).real, (ket.conj() @ stored @ ket).real]
        sampled = [*traj.amplitudes[:, i], traj.purity[i], traj.coherent_overlap[i]]
        assert np.max(np.abs(np.subtract(sampled, direct))) < 1e-14
    return traj


def test_sample_blocks_match_the_observables_of_each_snapshot():
    superop, dm = thermal_combined_kerr()
    a = np.diag(np.sqrt(np.arange(1.0, 12.0)), 1)
    traj = assert_samples_match_snapshots(superop, dm, [a], 1.2, 0)
    # this generator keeps the trace to rounding, so each snapshot's trace
    # before its rescaling is 1
    assert np.max(np.abs(traj.trace - 1.0)) < 1e-14
    # two modes, both driven off vacuum by a thermal bath, so every weight
    # column and both embeddings (optical slow, mechanical fast) are read
    fig4 = preset("fig4")
    params = replace(fig4.params, g0=0.05, gamma_c=1e-2, gamma_m=1e-2, bath_temp=3e4)
    assert 0.02 < params.n_optical() < 0.03
    a_opt = np.diag(np.sqrt(np.arange(1.0, 3.0)), 1)
    a_mech = np.diag(np.sqrt(np.arange(1.0, 4.0)), 1)
    lowering = [np.kron(a_opt, np.eye(4)), np.kron(np.eye(3), a_mech)]
    for storage_mode in (0, 1):
        config = replace(fig4, dims=(3, 4), alpha=0.8 + 0.3j, params=params,
                         storage_mode=storage_mode)
        superop, dm = build_problem(config)
        assert_samples_match_snapshots(superop, dm, lowering, config.alpha, storage_mode)


def test_trace_gate_names_its_first_offending_time_in_a_later_block():
    # d(rho)/dt = 1e-6 rho: Tr rho = exp(1e-6 t) first leaves the 1e-4 limit
    # at t = 100 (t = 99 is within it), a sample inside the second block
    assert EVOLVE.SAMPLE_BLOCK < 100 < 2 * EVOLVE.SAMPLE_BLOCK - 1
    n = 3
    slow = Superoperator(HilbertDims((n,)), 1e-6 * sp.identity(n * n, dtype=complex, format="csr"))
    with pytest.raises(IntegrationFailure, match=r"trace drifted by 1\.000e-04 at t=100 "):
        evolve(product_dm([vacuum_ket(n)]), slow, TimeGrid(199.0, 200))


def test_hermiticity_error_is_the_largest_per_sample_deviation(monkeypatch):
    # rho(0) is made exactly Hermitian, and on optical storage the Taylor
    # action leaves rounding deviations in the self-mirror block, whose
    # largest over the samples is the error (2.7e-20 measured; it keeps
    # thermal_combined_kerr's real populations exactly real).  Blocks of one
    # sample take each sample's deviation on its own
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)
    config = replace(preset("fig4"), storage_mode=0, dims=(4, 5), alpha=0.8 + 0.3j)
    superop, rho0 = build_problem(config)
    dm = DensityMatrix(QOperator(rho0.dims, 0.5 * (rho0.data + rho0.data.conj().T)))
    assert np.array_equal(dm.data, dm.data.conj().T)
    grid = TimeGrid(30.0, 150)
    opts = EvolveOptions(snapshot_times=(7.7,))
    blocked = evolve(dm, superop, grid, opts).max_hermiticity_error
    assert blocked > 0.0
    for size in (1, 5):
        monkeypatch.setattr(EVOLVE, "SAMPLE_BLOCK", size)
        assert evolve(dm, superop, grid, opts).max_hermiticity_error == blocked


@pytest.mark.parametrize("matrix", [
    # d(rho)/dt = i rho: drives rho_ij and rho_ji with conjugate-breaking phases
    1j * sp.identity(9, dtype=complex, format="csr"),
    # feeds rho_10 from rho_00 but not rho_01: keeps the trace, breaks rho = rho^dag
    sp.csr_matrix(([1.0 + 0j], ([1], [0])), shape=(9, 9)),
])
def test_generator_that_breaks_hermiticity_is_rejected(matrix):
    dm = product_dm([vacuum_ket(3)])
    with pytest.raises(ValueError, match="Hermiticity"):
        evolve(dm, Superoperator(HilbertDims((3,)), matrix), TimeGrid(1.0, 2))


def test_one_block_of_each_conjugate_pair_is_propagated():
    # k = 0 whole plus k = 1..29 (combined mode), the two-mode run's
    # 10 + 9 + ... + 1; RK4 integrates the full space
    grid = TimeGrid(1.0, 2)
    for name, n_propagated in (("fig2-combined", 30 + 29 * 30 // 2), ("fig4", 55)):
        superop, dm = build_problem(preset(name))
        traj = evolve(dm, superop, grid)
        assert traj.n_propagated == n_propagated
        assert traj.max_hermiticity_error == 0.0
    assert evolve_rk4(dm, superop, grid, dt=0.5).n_propagated is None


ZERO_TEMPERATURE_COMBINED = [
    (name, value)
    for name in ("fig5", "fig6", "fig8")
    for value in preset(name).values
]


def assert_matches_damped_kerr_closed_form(config, traj):
    params = config.params
    assert len(config.dims) == 1 and params.bath_temp == 0.0
    closed = kerr_amplitude_closed_form(config.alpha, params.omega_m, params.k_c + params.k_m,
                                        traj.times, params.gamma_m)
    assert np.max(np.abs(traj.amplitudes[0] - closed)) < 1e-12


def test_fig2_combined_matches_damped_kerr_closed_form(fig2_result):
    traj, _ = fig2_result
    assert_matches_damped_kerr_closed_form(preset("fig2-combined"), traj)
    assert len(traj.snapshots) == 15
    for _, state in traj.snapshots:
        assert np.array_equal(state.data, state.data.conj().T)


def test_mechanical_storage_is_the_combined_mode_at_zero_optical_kerr(fig4_result):
    # optical mode in vacuum with an empty bath: neither k_c nor g0 acts, so
    # the two-mode generator and the single-mode one give the same numbers
    two_mode, _ = fig4_result
    fig4 = preset("fig4")
    combined = replace(fig4, dims=(10,), storage_mode=0,
                       horizon=fig4.resolved_horizon())
    traj, _ = simulate(replace(combined, params=replace(fig4.params, k_c=0.0)))
    assert np.max(np.abs(traj.amplitudes[0] - two_mode.amplitudes[1])) == 0.0
    for name in ("purity", "trace", "coherent_overlap"):
        assert np.max(np.abs(getattr(traj, name) - getattr(two_mode, name))) == 0.0
    # at the presets' chi = k_c + k_m the combined mode is another model
    other, _ = simulate(combined)
    gap = np.max(np.abs(other.amplitudes[0] - two_mode.amplitudes[1]))
    assert 2.9 < gap < 3.0


def test_fig2_combined_on_expm_multiply_matches_damped_kerr_closed_form(monkeypatch):
    # the preset's own grid and snapshots: ||L||_1 * largest gap = 5.3
    monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", 0)
    config = preset("fig2-combined")
    traj, _ = simulate(config)
    assert traj.path == "taylor" and len(traj.snapshots) == 15
    assert_matches_damped_kerr_closed_form(config, traj)
    assert np.max(np.abs(traj.trace - 1.0)) < 1e-12


@pytest.mark.parametrize("name, value", ZERO_TEMPERATURE_COMBINED)
def test_sweep_point_matches_damped_kerr_closed_form(name, value):
    config = preset(name).point_config(value)
    traj, _ = simulate(config)
    assert_matches_damped_kerr_closed_form(config, traj)


def test_halved_path_agrees_with_full_rk4_on_optical_storage(monkeypatch):
    config = replace(preset("fig4"), storage_mode=0, dims=(4, 5), alpha=0.8 + 0.3j)
    superop, dm = build_problem(config)
    grid = TimeGrid(20.0, 11)
    full = evolve_rk4(dm, superop, grid, dt=1e-3)
    # both paths, the largest block (100) below and above the dense limit
    for max_dense_block, path in ((300, "expm"), (0, "taylor")):
        monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", max_dense_block)
        exact = evolve(dm, superop, grid, EvolveOptions(snapshot_times=(7.5, 20.0)))
        # pairs of 75, 50 and 5 coordinates beside the self-mirror block of 100
        assert exact.path == path
        assert (exact.n_live, exact.n_propagated) == (360, 230)
        assert exact.amplitudes.shape == full.amplitudes.shape == (2, 11)
        for a, b in ((exact.amplitudes[0], full.amplitudes[0]),
                     (exact.amplitudes[1], full.amplitudes[1]),
                     (exact.purity, full.purity), (exact.trace, full.trace)):
            assert np.max(np.abs(a - b)) < 1e-9
        for t, state in exact.snapshots:
            assert np.array_equal(state.data, state.data.conj().T)
            # the whole state, left-out half included, against exp(L t) rho(0)
            # on the full space
            reference = unvec(expm_multiply(superop.matrix * t, vec(dm.data)), 20)
            assert np.max(np.abs(state.data - reference)) < 1e-9


def test_snapshots_are_exactly_hermitian_from_a_nearly_hermitian_start(monkeypatch):
    # rho0 + i eps |rho0| is Hermitian only to about 1e-12, on the diagonal
    # (a self-mirror block) and off it; the initial state is re-symmetrised
    # like every later one, so every snapshot, t = 0 included, is exactly
    # Hermitian, and the t = 0 deviation is reported
    config = replace(preset("fig4"), storage_mode=0, dims=(4, 5), alpha=0.8 + 0.3j)
    superop, dm = build_problem(config)
    rho0 = DensityMatrix(QOperator(dm.dims, dm.data + 1e-12j * np.abs(dm.data)))
    deviation = np.max(np.abs(rho0.data - rho0.data.conj().T))
    assert 5e-13 < deviation < 2e-12
    for max_dense_block, path in ((300, "expm"), (0, "taylor")):
        monkeypatch.setattr(EVOLVE, "MAX_DENSE_BLOCK", max_dense_block)
        for grid, snapshot_times in ((TimeGrid(0.0, 1), (0.0,)),
                                     (TimeGrid(20.0, 11), (0.0, 7.5, 20.0))):
            traj = evolve(rho0, superop, grid, EvolveOptions(snapshot_times))
            assert traj.path == path and len(traj.snapshots) == len(snapshot_times)
            for _, state in traj.snapshots:
                assert np.array_equal(state.data, state.data.conj().T)
            assert traj.max_hermiticity_error == deviation


def test_initial_deviation_outside_the_self_mirror_blocks_is_reported():
    # rho_01 and rho_10 sit in a conjugate pair of blocks, of which only one
    # is propagated; the other's deviation must still reach the report
    superop, dm = thermal_combined_kerr()
    data = dm.data.copy()
    data[0, 1] += 5e-11
    rho0 = DensityMatrix(QOperator(dm.dims, data))
    traj = evolve(rho0, superop, TimeGrid(1.0, 2))
    assert traj.max_hermiticity_error == np.max(np.abs(rho0.data - rho0.data.conj().T)) > 4e-11


def test_evolve_on_the_restricted_generator_is_evolve_on_the_full_one():
    # build_problem's generator holds only the columns rho(0) reaches; the
    # run on it is the run on the full generator, bit for bit, on both
    # paths and with a warm optical bath, whose reachable set is larger
    warm = replace(preset("fig4"), dims=(3, 4), params=THERMAL)
    configs = [preset("fig2-combined"), preset("fig4"), preset("harmonic-check"),
               preset("fig7").point_config(3.0), warm,
               replace(preset("fig4"), dims=(4, 10), storage_mode=0)]
    for config, path in zip(configs, ["expm"] * 5 + ["taylor"], strict=True):
        restricted, rho0 = build_problem(config)
        grid = TimeGrid(config.resolved_horizon(), 150)
        opts = EvolveOptions(snapshot_times=(0.0, 10.0, grid.span / 3, grid.span),
                             overlap_alpha=config.alpha, overlap_mode=config.storage_mode)
        if path == "taylor":
            grid, opts.snapshot_times = TimeGrid(20.0, 41), (0.0, 7.5, 20.0)
        got = evolve(rho0, restricted, grid, opts)
        want = evolve(rho0, full_generator(config), grid, opts)
        assert got.path == path
        for name in ("times", "amplitudes", "trace", "purity", "coherent_overlap"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for (s, a), (t, b) in zip(got.snapshots, want.snapshots, strict=True):
            assert s == t and a.data.tobytes() == b.data.tobytes()
        for name in ("n_live", "block_sizes", "n_propagated", "n_steps",
                     "max_hermiticity_error", "max_trace_drift"):
            assert getattr(got, name) == getattr(want, name)
