import math
import sys
import time

import numpy as np
import scipy.sparse as sp
import pytest

from helpers import random_density, random_hermitian, scipy_kron_lindblad

from optomem.config import OMEGA_C_DEFAULT, default_params, preset
from optomem.fock import HilbertDims, QOperator, annihilation, embed
from optomem.liouvillian import (
    SystemParams,
    combined_kerr_liouvillian,
    commutator_superop,
    dissipator,
    hamiltonian,
    kelvin_to_au,
    kron,
    liouvillian,
    thermal_occupation,
    unvec,
    vec,
)
from optomem.runner import build_problem
from optomem.states import DensityMatrix, product_dm, vacuum_ket

# mean mechanical bath occupation at 30 mK for the reference omega_m,
# pinned from direct evaluation of 1/expm1(omega/T)
N_MECH_30MK = 9.457138748126033


def _params(**over):
    return default_params(**over)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(1.0, 0.0) == 0.0


def test_thermal_occupation_closed_form():
    assert thermal_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-12)


def test_thermal_occupation_divergent():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -0.1)


def test_thermal_occupation_pinned_30mk():
    omega_m = 2.0 * math.pi * 0.151983e-8
    got = thermal_occupation(omega_m, kelvin_to_au(0.030))
    assert got == pytest.approx(N_MECH_30MK, rel=1e-12)


def test_thermal_occupation_underflows_to_zero():
    # omega_c / T is about 1.36e4 at 30 mK: exp overflows, n_th is 0
    assert thermal_occupation(OMEGA_C_DEFAULT, kelvin_to_au(0.03)) == 0.0
    assert default_params(bath_temp=1.0).n_optical() == 0.0
    limit = math.log(sys.float_info.max)
    assert thermal_occupation(limit, 1.0) == 1.0 / math.expm1(limit)
    assert thermal_occupation(math.nextafter(limit, math.inf), 1.0) == 0.0


def test_system_params_validation():
    with pytest.raises(ValueError):
        _params(gamma_c=-1e-3)
    with pytest.raises(ValueError):
        _params(bath_temp=-1.0)


def test_hamiltonian_decoupled_is_diagonal():
    params = SystemParams(omega_c=0.9, omega_m=0.4, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=0.0)
    h = hamiltonian(params, HilbertDims((3, 4))).data
    expected = np.diag([0.9 * i + 0.4 * j for i in range(3) for j in range(4)])
    assert np.allclose(h, expected, atol=1e-14)


def test_hamiltonian_hermitian_reference_params():
    h = hamiltonian(_params(), HilbertDims((10, 10))).data
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_vacuum_energy_zero():
    h = hamiltonian(_params(), HilbertDims((10, 10))).data
    assert h[0, 0] == 0.0


def test_hamiltonian_requires_two_modes():
    with pytest.raises(ValueError):
        hamiltonian(_params(), HilbertDims((10,)))


def test_dissipator_zero_rate_is_zero_map():
    d = dissipator(annihilation(4), 0.0, 0.0)
    assert d.matrix.nnz == 0


def test_dissipator_spontaneous_decay():
    d = dissipator(annihilation(2), 1.0, 0.0)
    rho1 = np.zeros((2, 2), dtype=complex)
    rho1[1, 1] = 1.0
    drho = unvec(d.matrix @ vec(rho1), 2)
    expected = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(drho, expected, atol=1e-14)


def test_dissipator_annihilates_trace():
    rng = np.random.default_rng(23)
    d = dissipator(annihilation(6), 0.8, 2.5)
    for _ in range(50):
        rho = random_hermitian(rng, 6)
        drho = unvec(d.matrix @ vec(rho), 6)
        assert abs(np.trace(drho)) < 1e-12 * max(1.0, np.abs(rho).max())


def test_liouvillian_trace_annihilation_random_states():
    rng = np.random.default_rng(29)
    params = SystemParams(omega_c=0.8, omega_m=0.5, k_c=0.03, k_m=0.02, g0=0.1,
                          gamma_c=0.2, gamma_m=0.1, bath_temp=50000.0)
    superop = liouvillian(params, HilbertDims((5, 5)))
    for _ in range(100):
        rho = random_density(rng, 25)
        drho = unvec(superop.matrix @ vec(rho), 25)
        assert abs(np.trace(drho)) < 1e-10


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(31)
    params = SystemParams(omega_c=0.8, omega_m=0.5, k_c=0.03, k_m=0.02, g0=0.1,
                          gamma_c=0.2, gamma_m=0.1, bath_temp=50000.0)
    superop = liouvillian(params, HilbertDims((4, 4)))
    for _ in range(20):
        rho = random_hermitian(rng, 16)
        drho = unvec(superop.matrix @ vec(rho), 16)
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-10


def test_generator_matches_term_by_term_composition():
    rng = np.random.default_rng(37)
    dims = HilbertDims((4, 4))
    params = SystemParams(omega_c=0.9, omega_m=0.31, k_c=0.07, k_m=0.05, g0=0.11,
                          gamma_c=0.21, gamma_m=0.13, bath_temp=40000.0)
    superop = liouvillian(params, dims)

    h = hamiltonian(params, dims).data
    a_f = embed(annihilation(4), 0, dims).data
    b_f = embed(annihilation(4), 1, dims).data
    n_c, n_m = params.n_optical(), params.n_mech()

    def lindblad_term(c, g, nth, rho):
        cd = c.conj().T
        out = g * (nth + 1) * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
        out += g * nth * (cd @ rho @ c - 0.5 * (c @ cd @ rho + rho @ c @ cd))
        return out

    for _ in range(5):
        rho = random_density(rng, 16)
        dm = DensityMatrix(QOperator(dims, rho))
        direct = (
            -1j * (h @ dm.data - dm.data @ h)
            + lindblad_term(a_f, params.gamma_c, n_c, dm.data)
            + lindblad_term(b_f, params.gamma_m, n_m, dm.data)
        )
        drho = unvec(superop.matrix @ vec(dm.data), 16)
        assert np.max(np.abs(drho - direct)) < 1e-12


def test_zero_dissipator_is_the_zero_map():
    zero = dissipator(annihilation(3), 0.0, 0.0)
    dm = product_dm([vacuum_ket(3)])
    assert np.max(np.abs(zero.matrix @ vec(dm.data))) == 0.0


def test_damped_vacuum_is_stationary():
    params = SystemParams(omega_c=0.0, omega_m=0.7, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=0.4, bath_temp=0.0)
    superop = liouvillian(params, HilbertDims((1, 6)))
    dm = product_dm([vacuum_ket(1), vacuum_ket(6)])
    assert np.max(np.abs(superop.matrix @ vec(dm.data))) < 1e-12


def test_thermal_gibbs_state_is_stationary():
    # single decoupled mode via a trivial 1-level partner: detailed balance
    n_th = 1.7
    n_levels = 12
    temp_kelvin = 1.0 / math.log(1.0 / n_th + 1.0) * 3.1577464e5
    params = SystemParams(omega_c=0.0, omega_m=1.0, k_c=0.0, k_m=0.0, g0=0.0,
                          gamma_c=0.0, gamma_m=0.35, bath_temp=temp_kelvin)
    assert params.n_mech() == pytest.approx(n_th, rel=1e-12)
    superop = liouvillian(params, HilbertDims((1, n_levels)))
    pops = (n_th / (n_th + 1.0)) ** np.arange(n_levels)
    pops /= pops.sum()
    gibbs = np.diag(pops).astype(complex)
    assert np.max(np.abs(superop.matrix @ vec(gibbs))) < 1e-9


def test_liouvillian_on_maximally_mixed():
    params = _params(gamma_c=1e-3, gamma_m=1e-3)
    superop = liouvillian(params, HilbertDims((5, 5)))
    mixed = np.eye(25, dtype=complex) / 25.0
    drho = unvec(superop.matrix @ vec(mixed), 25)
    assert abs(np.trace(drho)) < 1e-12


def test_reference_assembly_size_and_density():
    t0 = time.time()
    superop = liouvillian(_params(), HilbertDims((10, 10)))
    elapsed = time.time() - t0
    assert superop.matrix.shape == (10000, 10000)
    assert elapsed < 5.0
    density = superop.matrix.nnz / 10000 ** 2
    assert density < 0.05


def test_combined_kerr_generator_matches_manual():
    params = _params()
    superop = combined_kerr_liouvillian(params, 8)
    n = np.diag(np.arange(8)).astype(complex)
    h = QOperator(HilbertDims((8,)), params.omega_m * n + 0.02 * n @ n)
    manual = commutator_superop(h).matrix + dissipator(annihilation(8), params.gamma_m, 0.0).matrix
    assert np.max(np.abs((superop.matrix - manual).toarray())) < 1e-14


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(41)
    mat = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    assert np.array_equal(unvec(vec(mat), 7), mat)
    # column-stacking order: element (i, j) sits at j*n + i
    assert vec(mat)[3 * 7 + 2] == mat[2, 3]


def test_commutator_convention():
    # -i[H, .] must equal -i(I kron H - H^T kron I) under column stacking
    rng = np.random.default_rng(43)
    h = random_hermitian(rng, 4)
    superop = commutator_superop(QOperator(HilbertDims((4,)), h))
    ident = np.eye(4)
    expected = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    assert np.max(np.abs(superop.matrix.toarray() - expected)) < 1e-14


def _assert_same_csr(got, ref):
    assert type(got) is type(ref) and got.shape == ref.shape
    assert got.data.tobytes() == ref.data.tobytes()
    assert got.indices.dtype == ref.indices.dtype and got.indptr.dtype == ref.indptr.dtype
    assert np.array_equal(got.indices, ref.indices) and np.array_equal(got.indptr, ref.indptr)


def test_kron_is_scipy_kron_bit_for_bit():
    rng = np.random.default_rng(11)

    def random_dense(rows, cols, density):
        values = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        values[rng.random((rows, cols)) >= density] = 0.0
        if density < 1.0:
            values[rows // 2] = 0.0
        return values

    # sparse factors with an empty row, 1 x 1 factors on either side, and
    # full ones, which scipy multiplies as a block sparse matrix
    shapes = [((5, 4), 0.5, (3, 6), 0.3), ((1, 1), 1.0, (7, 5), 0.3),
              ((6, 3), 0.5, (1, 1), 1.0), ((20, 20), 0.1, (9, 9), 0.2),
              ((4, 7), 0.3, (2, 3), 1.0)]
    for shape_a, density_a, shape_b, density_b in shapes:
        a, b = random_dense(*shape_a, density_a), random_dense(*shape_b, density_b)
        assert np.count_nonzero(a) and np.count_nonzero(b)
        row, col, data = kron(a, b)
        # the entries in canonical order, as scipy stores them
        order = np.lexsort((col, row))
        got = sp.csr_matrix((data[order], col[order], np.searchsorted(row[order], np.arange(
            a.shape[0] * b.shape[0] + 1))), shape=(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
        _assert_same_csr(got, sp.kron(sp.csr_matrix(a), sp.csr_matrix(b)).tocsr())


def test_generators_are_assembled_bit_for_bit_as_with_scipy_kron(monkeypatch):
    # the package exports the function liouvillian under the module's name
    module = sys.modules["optomem.liouvillian"]
    sweep = preset("fig7")
    configs = [preset("fig2-combined"), preset("fig4"), preset("harmonic-check"),
               *(sweep.point_config(value) for value in sweep.values)]
    built = [build_problem(config)[0].matrix for config in configs]
    monkeypatch.setattr(module, "lindblad", scipy_kron_lindblad)
    for config, matrix in zip(configs, built, strict=True):
        _assert_same_csr(matrix, build_problem(config)[0].matrix)
