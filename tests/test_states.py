import math

import numpy as np
import pytest

from helpers import (
    coherent_coeffs,
    coherent_overlap,
    displacement_operator,
    min_eigenvalue,
    random_density,
)

from optomem.fock import HilbertDims, QOperator
from optomem.states import (
    DensityMatrix,
    Ket,
    coherent_ket,
    fock_ket,
    partial_trace,
    product_dm,
    vacuum_ket,
)


def test_coherent_alpha_zero_is_vacuum():
    ket = coherent_ket(0.0, 8)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(ket.amplitudes, expected)


def test_coherent_captured_norm_against_partial_sum():
    ket = coherent_ket(1.5, 10)
    # independent partial sum of e^{-|a|^2} |a|^{2m} / m!
    oracle = sum(math.exp(-2.25) * 2.25 ** m / math.factorial(m) for m in range(10))
    assert ket.norm() ** 2 == pytest.approx(oracle, rel=1e-12)
    assert ket.norm() ** 2 == pytest.approx(0.99988, abs=5e-5)


def test_coherent_amplitudes_match_direct_formula():
    ket = coherent_ket(0.7 - 0.4j, 12)
    assert np.allclose(ket.amplitudes, coherent_coeffs(0.7 - 0.4j, 12), atol=1e-14)


def test_coherent_mean_occupation_truncation():
    for n, tol in [(10, 2e-3), (30, 1e-9)]:
        c = coherent_ket(1.5, n).amplitudes
        mean_n = np.sum(np.arange(n) * np.abs(c) ** 2)
        assert abs(mean_n - 2.25) < tol


def test_coherent_norm_monotone_in_truncation():
    norms = [coherent_ket(1.5, n).norm() for n in (5, 10, 20, 40)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-12)


def test_coherent_warns_on_poor_capture():
    with pytest.warns(UserWarning, match="captures only"):
        coherent_ket(2.0, 6)


def test_ket_rejects_super_normalised():
    with pytest.raises(ValueError):
        Ket(HilbertDims((2,)), np.array([1.0, 1.0]))


def test_displacement_zero_is_identity():
    d = displacement_operator(0.0, 7)
    assert np.allclose(d, np.eye(7), atol=1e-15)


def test_displacement_of_vacuum_matches_expansion():
    d = displacement_operator(1.5, 40)
    displaced = d @ vacuum_ket(40).amplitudes
    reference = coherent_ket(1.5, 40).amplitudes
    assert np.max(np.abs(displaced[:20] - reference[:20])) < 1e-10


def test_displacement_unitary_on_interior_block():
    d = displacement_operator(1.5, 40)
    u = d.conj().T @ d
    assert np.max(np.abs(u[:20, :20] - np.eye(20))) < 1e-8


def test_construction_route_equivalence():
    # expansion route vs displaced vacuum agree (squared 2-norm distance of
    # the state vectors) once n >= |a|^2 + 8|a|
    for n in (15, 40):
        d = displacement_operator(1.5, n)
        displaced = d @ vacuum_ket(n).amplitudes
        reference = coherent_ket(1.5, n).amplitudes
        assert np.sum(np.abs(displaced - reference) ** 2) < 1e-8


def test_product_dm_vacuum_projector():
    dm = product_dm([vacuum_ket(3), vacuum_ket(3)])
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(dm.data, expected)


def test_product_dm_unit_trace_and_purity():
    dm = product_dm([coherent_ket(1.5, 10), vacuum_ket(10)])
    assert np.trace(dm.data).real == pytest.approx(1.0, abs=1e-14)
    assert dm.purity() == pytest.approx(1.0, abs=1e-10)


def test_product_dm_idempotent():
    dm = product_dm([vacuum_ket(4), coherent_ket(1.2, 8)])
    rho2 = dm.data @ dm.data
    assert np.max(np.abs(rho2 - dm.data)) < 1e-10


def test_product_dm_mech_occupation():
    dm = product_dm([vacuum_ket(10), coherent_ket(1.5, 10)])
    n_b = np.kron(np.eye(10), np.diag(np.arange(10)))
    got = np.trace(n_b @ dm.data).real
    c = coherent_coeffs(1.5, 10)
    oracle = np.sum(np.arange(10) * np.abs(c) ** 2) / np.sum(np.abs(c) ** 2)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_partial_trace_product_state():
    alpha = coherent_ket(1.5, 10)
    dm = product_dm([alpha, vacuum_ket(6)])
    reduced = partial_trace(dm, 0)
    c = alpha.amplitudes
    expected = np.outer(c, c.conj()) / np.sum(np.abs(c) ** 2)
    assert np.max(np.abs(reduced.data - expected)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density(rng, 12)
        dm = DensityMatrix(QOperator(HilbertDims((3, 4)), rho))
        for keep in (0, 1):
            assert np.trace(partial_trace(dm, keep).data).real == pytest.approx(
                1.0, abs=1e-12
            )


def test_partial_trace_correlated_diagonal():
    d = 4
    rho = np.zeros((16, 16), dtype=complex)
    for k in range(d):
        idx = k * d + k
        rho[idx, idx] = 0.25
    dm = DensityMatrix(QOperator(HilbertDims((4, 4)), rho))
    for keep in (0, 1):
        assert np.allclose(partial_trace(dm, keep).data, np.eye(4) / 4.0, atol=1e-14)


def test_partial_trace_positivity():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 12)
    dm = DensityMatrix(QOperator(HilbertDims((4, 3)), rho))
    for keep in (0, 1):
        assert min_eigenvalue(partial_trace(dm, keep)) > -1e-12


def test_partial_trace_errors():
    dm = product_dm([vacuum_ket(3), vacuum_ket(3)])
    with pytest.raises(ValueError):
        partial_trace(dm, 2)
    with pytest.raises(ValueError):
        partial_trace(product_dm([vacuum_ket(3)]), 0)


def test_coherent_overlap_self_raw_projector():
    c = coherent_coeffs(1.5, 10)
    raw = DensityMatrix(QOperator(HilbertDims((10,)), np.outer(c, c.conj())))
    # DensityMatrix renormalises, so <a|rho|a> returns the captured norm^2
    assert coherent_overlap(raw, 1.5) == pytest.approx(float(np.sum(np.abs(c) ** 2)), rel=1e-10)
    # the unnormalised projector itself gives the captured norm^4
    val = np.real(c.conj() @ np.outer(c, c.conj()) @ c)
    assert val == pytest.approx(0.99976, abs=5e-5)


def test_coherent_overlap_vacuum():
    dm = product_dm([vacuum_ket(10)])
    assert coherent_overlap(dm, 1.5) == pytest.approx(math.exp(-2.25), rel=1e-12)


def test_coherent_overlap_mirror_state():
    dm30 = product_dm([coherent_ket(1.5, 30)])
    assert coherent_overlap(dm30, -1.5) == pytest.approx(math.exp(-9.0), rel=1e-10)
    dm10 = product_dm([coherent_ket(1.5, 10)])
    assert coherent_overlap(dm10, -1.5) == pytest.approx(math.exp(-9.0), rel=2e-2)


def test_coherent_overlap_reduces_two_mode():
    dm = product_dm([vacuum_ket(6), coherent_ket(1.0, 12)])
    assert coherent_overlap(dm, 1.0, mode=1) == pytest.approx(1.0, abs=1e-3)


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(QOperator(HilbertDims((2,)), bad))


def test_fock_ket_range():
    assert fock_ket(2, 4).amplitudes[2] == 1.0
    with pytest.raises(ValueError):
        fock_ket(4, 4)
