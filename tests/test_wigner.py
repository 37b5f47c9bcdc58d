import functools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import (
    coherent_coeffs,
    hermite_functions,
    position_density,
    random_density,
    shell_rotation,
    wigner_per_point,
)

from optomem.fock import HilbertDims, QOperator
from optomem.liouvillian import SystemParams, combined_kerr_liouvillian
from optomem.evolve import EvolveOptions, TimeGrid, evolve
from optomem.states import DensityMatrix, coherent_ket, fock_ket, product_dm, vacuum_ket
from optomem import wigner as WIGNER
from optomem.wigner import (
    PhaseSpaceGrid,
    WignerField,
    min_value,
    negativity_volume,
    wigner,
    wigner_map,
)

GRID_201 = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201)


def cat_dm(alpha: float, n: int) -> DensityMatrix:
    c = coherent_coeffs(alpha, n) + coherent_coeffs(-alpha, n)
    c = c / np.linalg.norm(c)
    return DensityMatrix(QOperator(HilbertDims((n,)), np.outer(c, c.conj())))


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(1.0, -1.0, -1.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 1, 10)


@pytest.mark.parametrize("extents, name", [
    ((-1.0, np.inf, -1.0, 1.0), "x_max"), ((-np.inf, 1.0, -1.0, 1.0), "x_min"),
    ((-1.0, 1.0, np.nan, 1.0), "p_min"), ((-1.0, 1.0, -1.0, np.nan), "p_max"),
])
def test_grid_refuses_non_finite_extents(extents, name):
    # an infinite extent passes the ordering check and gave an all-NaN grid
    with pytest.raises(ValueError, match=f"grid extent {name} must be finite"):
        PhaseSpaceGrid(*extents, 10, 10)


def test_vacuum_gaussian_closed_form():
    grid = PhaseSpaceGrid(-3.0, 3.0, -3.0, 3.0, 21, 21)
    field = wigner(product_dm([vacuum_ket(8)]), grid)
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[None, :]
    exact = np.exp(-(x ** 2 + p ** 2)) / np.pi
    assert np.max(np.abs(field.values - exact)) < 1e-8
    assert field.values.min() >= -1e-9


def test_vacuum_peak_value():
    field = wigner(product_dm([vacuum_ket(8)]), GRID_201)
    assert field.values[100, 100] == pytest.approx(1.0 / np.pi, abs=1e-8)


def test_fock_one_trough():
    field = wigner(product_dm([fock_ket(1, 8)]), GRID_201)
    assert field.values[100, 100] == pytest.approx(-1.0 / np.pi, abs=1e-8)
    val, x, p = min_value(field)
    assert val == pytest.approx(-1.0 / np.pi, abs=1e-8)
    assert abs(x) < 0.06 and abs(p) < 0.06


def test_coherent_peak_location_and_value():
    field = wigner(product_dm([coherent_ket(1.5, 30)]), GRID_201)
    idx = np.unravel_index(np.argmax(field.values), field.values.shape)
    x_peak = GRID_201.x_axis()[idx[0]]
    p_peak = GRID_201.p_axis()[idx[1]]
    cell = 10.0 / 200.0
    assert abs(x_peak - np.sqrt(2.0) * 1.5) <= cell
    assert abs(p_peak) <= cell
    assert field.values[idx] == pytest.approx(1.0 / np.pi, abs=1e-3)


def test_coherent_matches_displaced_gaussian():
    field = wigner(product_dm([coherent_ket(1.5, 30)]), GRID_201)
    x = GRID_201.x_axis()[:, None]
    p = GRID_201.p_axis()[None, :]
    exact = np.exp(-((x - np.sqrt(2.0) * 1.5) ** 2 + p ** 2)) / np.pi
    assert np.max(np.abs(field.values - exact)) < 1e-9


def test_complex_alpha_orientation():
    field = wigner(product_dm([coherent_ket(1.0j, 30)]), GRID_201)
    idx = np.unravel_index(np.argmax(field.values), field.values.shape)
    assert abs(GRID_201.x_axis()[idx[0]]) <= 0.05
    assert abs(GRID_201.p_axis()[idx[1]] - np.sqrt(2.0)) <= 0.05


def test_negativity_volume_coherent_state():
    field = wigner(product_dm([coherent_ket(1.5, 30)]), GRID_201)
    assert negativity_volume(field) < 1e-6


def test_negativity_volume_fock_one():
    # analytic negative-part volume of |1>: 2 e^{-1/2} - 1
    analytic = 2.0 * np.exp(-0.5) - 1.0
    coarse = negativity_volume(wigner(product_dm([fock_ket(1, 8)]), GRID_201))
    dense_grid = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 1001, 1001)
    dense = negativity_volume(wigner(product_dm([fock_ket(1, 8)]), dense_grid))
    assert dense == pytest.approx(analytic, abs=5e-6)
    assert coarse == pytest.approx(analytic, abs=1e-4)


def test_negativity_nonincreasing_with_damping():
    # same Kerr evolution to the cat time under weak vs strong damping
    results = []
    for gamma in (1e-5, 1e-3):
        params = SystemParams(omega_c=0.0, omega_m=0.0, k_c=0.01, k_m=0.01, g0=0.0,
                              gamma_c=gamma, gamma_m=gamma, bath_temp=0.0)
        superop = combined_kerr_liouvillian(params, 20)
        dm = product_dm([coherent_ket(1.5, 20)])
        traj = evolve(dm, superop, TimeGrid(79.0, 120),
                      EvolveOptions(snapshot_times=(79.0,)))
        field = wigner(traj.snapshots[0][1], GRID_201)
        results.append(negativity_volume(field))
    assert results[1] < results[0]


def test_linearity():
    rng = np.random.default_rng(13)
    dims = HilbertDims((8,))
    rho1 = DensityMatrix(QOperator(dims, random_density(rng, 8)))
    rho2 = DensityMatrix(QOperator(dims, random_density(rng, 8)))
    lam = 0.3
    mix = DensityMatrix(QOperator(dims, lam * rho1.data + (1 - lam) * rho2.data))
    grid = PhaseSpaceGrid(-3.0, 3.0, -3.0, 3.0, 31, 31)
    w_mix = wigner(mix, grid).values
    w_sum = lam * wigner(rho1, grid).values + (1 - lam) * wigner(rho2, grid).values
    assert np.max(np.abs(w_mix - w_sum)) < 1e-10


def test_marginal_matches_hermite_expansion():
    grid = PhaseSpaceGrid(-5.0, 5.0, -5.0, 5.0, 201, 201)
    dp = (grid.p_max - grid.p_min) / (grid.np - 1)
    for dm in (product_dm([vacuum_ket(12)]), product_dm([coherent_ket(1.0, 20)])):
        field = wigner(dm, grid)
        marginal = field.values.sum(axis=1) * dp
        expected = position_density(dm.data, grid.x_axis())
        assert np.max(np.abs(marginal - expected)) < 1e-4


def test_integral_converges_under_refinement():
    dm = cat_dm(2.0, 30)
    errors = []
    for n in (21, 41, 81):
        grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, n, n)
        errors.append(abs(wigner(dm, grid).integral() - 1.0))
    assert errors[1] <= errors[0] / 2.0
    assert errors[2] <= errors[1] / 2.0


def test_symmetry_real_alpha():
    field = wigner(product_dm([coherent_ket(1.2, 25)]), GRID_201)
    assert np.max(np.abs(field.values - field.values[:, ::-1])) < 1e-10


def test_values_within_bound():
    bound = 1.0 / np.pi + 1e-9
    for dm in (cat_dm(2.0, 30), product_dm([fock_ket(3, 12)])):
        field = wigner(dm, GRID_201)
        assert np.max(np.abs(field.values)) <= bound


def test_cat_interference_is_negative():
    field = wigner(cat_dm(2.0, 30), GRID_201)
    assert min_value(field)[0] < -0.1
    assert field.integral() == pytest.approx(1.0, abs=2e-2)


def test_multi_mode_input_rejected():
    dm = product_dm([vacuum_ket(3), vacuum_ket(3)])
    with pytest.raises(ValueError):
        wigner(dm, GRID_201)


def test_field_shape_validation():
    with pytest.raises(ValueError):
        WignerField(GRID_201, np.zeros((5, 5)))


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def damped_snapshot(n: int) -> DensityMatrix:
    params = SystemParams(omega_c=0.0, omega_m=0.0, k_c=0.01, k_m=0.01, g0=0.0,
                          gamma_c=1e-3, gamma_m=1e-3, bath_temp=0.0)
    traj = evolve(product_dm([coherent_ket(1.5, n)]), combined_kerr_liouvillian(params, n),
                  TimeGrid(79.0, 120), EvolveOptions(snapshot_times=(79.0,)))
    return traj.snapshots[0][1]


def test_fields_match_per_point_kernel_bitwise():
    # against the Laguerre-recurrence kernel, in absolute terms: largest
    # difference measured 6.1e-16 here, 7.2e-16 on the fig2-combined snapshots;
    # linspace(-5, 5, 201) is not exactly mirror-symmetric, so this also
    # checks that no symmetry of the grid is assumed
    n = 20
    states = [
        product_dm([vacuum_ket(n)]),
        product_dm([fock_ket(1, n)]),
        cat_dm(2.0, n),
        product_dm([coherent_ket(1.2 - 0.7j, n)]),
        damped_snapshot(n),
    ]
    fields = list(map(wigner_map(n, GRID_201), states))
    for rho, field in zip(states, fields):
        assert np.max(np.abs(field.values - wigner_per_point(rho, GRID_201))) <= 1e-14
        assert np.array_equal(bits(wigner(rho, GRID_201).values), bits(field.values))


def test_groups_give_the_fields_of_their_parts():
    grid = PhaseSpaceGrid(-3.0, 3.0, -3.0, 3.0, 31, 31)
    rng = np.random.default_rng(5)
    dims = HilbertDims((6,))
    states = [DensityMatrix(QOperator(dims, random_density(rng, 6)))
              for _ in range(19)]
    # one map for all states, one for each part, and one per state: a field
    # depends only on its own state
    together = list(map(wigner_map(6, grid), states))
    parts = list(map(wigner_map(6, grid), states[:4])) + list(map(wigner_map(6, grid), states[4:]))
    alone = [wigner(rho, grid) for rho in states]
    for a, b, c in zip(together, parts, alone, strict=True):
        assert np.array_equal(bits(a.values), bits(b.values))
        assert np.array_equal(bits(a.values), bits(c.values))


def test_fields_reject_bad_input():
    two_mode = product_dm([vacuum_ket(4), vacuum_ket(3)])
    with pytest.raises(ValueError, match="single-mode"):
        wigner(two_mode, GRID_201)
    with pytest.raises(ValueError, match="single-mode"):
        wigner_map(4, GRID_201)(two_mode)
    with pytest.raises(ValueError, match="4 levels got a 5-level state"):
        wigner_map(4, GRID_201)(product_dm([vacuum_ket(5)]))


def test_field_holds_its_values_read_only():
    grid = PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 2)
    source = np.zeros((3, 2))
    field = WignerField(grid, source)
    source[0, 0] = 1.0
    assert field.values[0, 0] == 0.0 and not field.values.flags.writeable
    # a read-only view of a writeable array is copied; a read-only array
    # that owns its data, as wigner_map makes, is held as it is
    view = source.view()
    view.setflags(write=False)
    assert WignerField(grid, view).values is not view
    owned = np.ones((3, 2))
    owned.setflags(write=False)
    assert WignerField(grid, owned).values is owned


def test_map_called_from_threads_gives_the_fields_of_its_states():
    # one table serves every call, and a call only reads it
    grid = PhaseSpaceGrid(-3.0, 3.0, -3.0, 3.0, 31, 41)
    rng = np.random.default_rng(8)
    dims = HilbertDims((6,))
    states = [DensityMatrix(QOperator(dims, random_density(rng, 6))) for _ in range(8)]
    field_of = wigner_map(6, grid)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fields = list(pool.map(field_of, states))
    for rho, field in zip(states, fields, strict=True):
        assert np.array_equal(bits(field.values), bits(wigner(rho, grid).values))
    with pytest.raises(ValueError, match="6 levels"):
        field_of(product_dm([vacuum_ket(5)]))
    with pytest.raises(ValueError, match="single-mode"):
        field_of(product_dm([vacuum_ket(2), vacuum_ket(3)]))


def support_grid(n: int) -> PhaseSpaceGrid:
    """201 x 201 points reaching 3 past the turning radius sqrt(2n - 1) of |n-1>."""
    edge = np.sqrt(2.0 * n - 1.0) + 3.0
    return PhaseSpaceGrid(-edge, edge, -edge, edge, 201, 201)


def fock_closed_form(k: int, grid: PhaseSpaceGrid) -> np.ndarray:
    """(-1)^k e^{-r^2} L_k(2 r^2) / pi, with e^{-y/2} L_j(y) from the Laguerre
    recurrence (j+1) L_{j+1} = (2j+1-y) L_j - j L_{j-1} at y = 2 r^2.

    Its own error, against a 40-digit evaluation at every 7th point of
    ``support_grid`` and the default grid, is at most 5.7e-15 for k = 29,
    59 and 89.
    """
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[None, :]
    y = 2.0 * (x * x + p * p)
    prev, cur = np.zeros_like(y), np.exp(-0.5 * y)
    for j in range(k):
        prev, cur = cur, ((2 * j + 1 - y) * cur - j * prev) / (j + 1)
    return (-1) ** k * cur / np.pi


@pytest.mark.parametrize("n, coherent_bound", [(30, 1e-7), (60, 3e-15), (90, 3e-15)])
def test_fields_match_closed_forms_up_to_n_90(n, coherent_bound):
    # largest absolute differences measured (n = 30 / 60 / 90): vacuum
    # 5.6e-17 / 1.1e-16 / 6.9e-17, |n-1> 1.5e-15 / 4.9e-15 / 1.1e-14 (mostly
    # the recurrence's own error), |2 - i> 4.3e-8 / 6.1e-16 / 6.9e-16; at
    # n = 30 the truncated coherent state lacks a tail whose field is 4.3e-8,
    # so its bound there is the truncation's, not the kernel's
    alpha = 2.0 - 1.0j
    grid = support_grid(n)
    x = grid.x_axis()[:, None]
    p = grid.p_axis()[None, :]
    vacuum, fock, coherent = (field.values for field in map(wigner_map(n, grid), [
        product_dm([vacuum_ket(n)]), product_dm([fock_ket(n - 1, n)]),
        product_dm([coherent_ket(alpha, n)])]))
    shifted = (x - np.sqrt(2.0) * alpha.real) ** 2 + (p - np.sqrt(2.0) * alpha.imag) ** 2
    assert np.max(np.abs(vacuum - np.exp(-(x * x + p * p)) / np.pi)) <= 5e-16
    assert np.max(np.abs(fock - fock_closed_form(n - 1, grid))) <= 3e-14
    assert np.max(np.abs(coherent - np.exp(-shifted) / np.pi)) <= coherent_bound


def test_shell_rotations_match_gauss_hermite_quadrature():
    # U^M[m, a] = int int psi_m((s+t)/sqrt2) psi_{M-m}((s-t)/sqrt2)
    # psi_a(s) psi_{M-a}(t) ds dt.  The integrand is e^{-s^2-t^2} times a
    # polynomial of degree at most 2M in s and in t, so the (M+1)-node
    # Gauss-Hermite rule in each variable is exact.  Largest difference
    # measured: 1.6e-15
    for shell in range(11):
        nodes, weights = np.polynomial.hermite.hermgauss(shell + 1)
        s, t = (v.ravel() for v in np.meshgrid(nodes, nodes, indexing="ij"))
        w = np.outer(weights, weights).ravel() * np.exp(s * s + t * t)
        plus = hermite_functions(shell + 1, (s + t) / np.sqrt(2.0))
        minus = hermite_functions(shell + 1, (s - t) / np.sqrt(2.0))
        quad = (w * plus * minus[::-1]) @ (hermite_functions(shell + 1, s)
                                           * hermite_functions(shell + 1, t)[::-1]).T
        half = WIGNER._shell_rotations(shell)[shell]
        assert half.shape == (shell // 2 + 1, shell + 1)
        assert np.max(np.abs(half - quad[:, :shell // 2 + 1].T)) <= 5e-15


@functools.cache
def _reference_rotation(shell):
    # the full U^M of the eigendecomposition helper, shared by the shell tests
    return shell_rotation(shell)


def test_shell_recursion_matches_the_eigendecomposition_up_to_n_90():
    # the first half of the columns of every shell of an n = 90 table, zero
    # padded to the largest; largest difference measured: 8.2e-15 (8.3e-15
    # by the spin-1/2 recursion)
    rotations = WIGNER._shell_rotations(178)
    assert rotations.shape == (179, 90, 179)
    for shell, u in enumerate(rotations):
        half = shell // 2 + 1
        reference = _reference_rotation(shell)
        assert np.max(np.abs(u[:half, :shell + 1] - reference[:, :half].T)) <= 1e-14
        assert not u[half:].any() and not u[:, shell + 1:].any()


@pytest.mark.parametrize("n", [2, 3, 30, 60, 90])
def test_shell_table_matches_the_eigendecomposition(n):
    # every entry, those read from column M - m by the sign rule included,
    # against C_ab = pi^(-1/2) sum_{m+n=a+b} (-1)^(b//2) U^{a+b}[m, a] x_mn
    # built entry by entry from the full matrices; largest difference
    # measured: 4.2e-15 (n = 90)
    k = 2 * n - 1
    rows, columns, values = [], [], []
    for a in range(k):
        for b in range(k):
            shell = a + b
            m = np.arange(max(0, shell - n + 1), min(shell, n - 1) + 1)
            rows.append(np.full(m.size, a * k + b))
            columns.append(2 * (m * n + shell - m) + b % 2)
            values.append((-1) ** (b // 2) * _reference_rotation(shell)[m, a] / np.sqrt(np.pi))
    got_rows, got_columns, got_values = WIGNER._shell_table(n)
    np.testing.assert_array_equal(got_rows, np.concatenate(rows))
    np.testing.assert_array_equal(got_columns, np.concatenate(columns))
    assert np.max(np.abs(got_values - np.concatenate(values))) <= 1e-14


def test_wigner_map_60_peak_memory():
    # tracemalloc peak measured: 18.6 MiB, 33.0 MiB while every shell
    # matrix was held in full
    tracemalloc.start()
    try:
        wigner_map(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20
