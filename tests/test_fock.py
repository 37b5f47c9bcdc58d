import math

import numpy as np
import pytest

from helpers import coherent_coeffs, random_hermitian

from optomem.fock import (
    HilbertDims,
    QOperator,
    annihilation,
    embed,
    expectation,
    identity,
    number,
)
from optomem.states import coherent_ket, product_dm, vacuum_ket


def test_hilbert_dims_product():
    dims = HilbertDims((10, 10))
    assert dims.total_dim == 100
    assert dims.n_modes == 2
    assert HilbertDims((3, 2, 4)).total_dim == 24


def test_hilbert_dims_rejects_bad_entries():
    with pytest.raises(ValueError):
        HilbertDims((0, 3))
    with pytest.raises(ValueError):
        HilbertDims(())


def test_annihilation_entries():
    a = annihilation(3).data
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    assert np.array_equal(a, expected)


def test_annihilation_vacuum_only_space():
    assert np.array_equal(annihilation(1).data, np.zeros((1, 1)))
    assert np.array_equal(annihilation(1).dag().data, np.zeros((1, 1)))


def test_annihilation_invalid_dimension():
    with pytest.raises(ValueError):
        annihilation(0)
    with pytest.raises(ValueError):
        number(-1)


def test_adjoint_product_is_number_operator():
    a = annihilation(10)
    n_via_product = (a.dag() @ a).data
    assert np.allclose(n_via_product, np.diag(np.arange(10)), atol=1e-13, rtol=0)


def test_creation_entries():
    c = annihilation(3).dag().data
    assert c[1, 0] == 1.0
    assert c[2, 1] == pytest.approx(math.sqrt(2.0))
    assert np.count_nonzero(c) == 2


def test_commutator_truncation_artifact():
    a = annihilation(10)
    comm = (a @ a.dag() - a.dag() @ a).data
    # exact truncation artifact in the last diagonal entry
    assert comm[9, 9] == -9.0
    expected = np.eye(10)
    expected[9, 9] = -9.0
    assert np.allclose(comm, expected, atol=1e-13, rtol=0)


def test_number_operator():
    assert np.array_equal(number(4).data, np.diag([0, 1, 2, 3]).astype(complex))
    assert np.array_equal(number(1).data, np.zeros((1, 1)))
    prod = (annihilation(10).dag() @ annihilation(10)).data
    assert np.allclose(prod, number(10).data, atol=1e-13, rtol=0)


def test_number_annihilation_commutator():
    # [n, a] = -a on the untruncated sub-block
    n_op, a = number(8), annihilation(8)
    comm = (n_op @ a - a @ n_op).data
    assert np.allclose(comm[:7, :7], -a.data[:7, :7], atol=1e-13, rtol=0)


def test_embed_diagonal_examples():
    dims = HilbertDims((2, 2))
    assert np.array_equal(
        embed(number(2), 0, dims).data, np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    )
    assert np.array_equal(
        embed(number(2), 1, dims).data, np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
    )


def test_embedded_modes_commute():
    dims = HilbertDims((10, 10))
    a0 = embed(annihilation(10), 0, dims)
    a1 = embed(annihilation(10), 1, dims)
    comm = (a0 @ a1 - a1 @ a0).data
    assert np.max(np.abs(comm)) < 1e-12


def test_embed_errors():
    dims = HilbertDims((3, 4))
    with pytest.raises(ValueError):
        embed(number(3), 2, dims)
    with pytest.raises(ValueError):
        embed(number(3), 1, dims)


def test_embed_preserves_spectra():
    rng = np.random.default_rng(7)
    for dims, slot in [(HilbertDims((3, 2)), 0), (HilbertDims((2, 3)), 1)]:
        d = dims.dims[slot]
        h = random_hermitian(rng, d)
        lifted = embed(QOperator(HilbertDims((d,)), h), slot, dims)
        evals = np.sort(np.linalg.eigvalsh(lifted.data))
        repeats = dims.total_dim // d
        expected = np.sort(np.repeat(np.linalg.eigvalsh(h), repeats))
        assert np.allclose(evals, expected, atol=1e-12)


def test_trace_of_identity():
    assert identity(HilbertDims((10, 10))).trace() == pytest.approx(100.0)


def test_trace_cyclic():
    rng = np.random.default_rng(3)
    dims = HilbertDims((5,))
    for _ in range(10):
        a = QOperator(dims, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        b = QOperator(dims, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert abs((a @ b).trace() - (b @ a).trace()) < 1e-12


def test_expectation_vacuum_number():
    dm = product_dm([vacuum_ket(6)])
    assert expectation(number(6), dm.matrix) == pytest.approx(0.0, abs=1e-15)


def test_expectation_mech_number_against_fock_sum():
    dims = HilbertDims((10, 10))
    dm = product_dm([vacuum_ket(10), coherent_ket(1.5, 10)])
    got = expectation(embed(number(10), 1, dims), dm.matrix)
    c = coherent_coeffs(1.5, 10)
    oracle = np.sum(np.arange(10) * np.abs(c) ** 2) / np.sum(np.abs(c) ** 2)
    assert got.real == pytest.approx(oracle, rel=1e-12)
    assert abs(got.imag) < 1e-14


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        number(3) @ number(4)
    with pytest.raises(ValueError):
        number(3) + number(4)
    with pytest.raises(ValueError):
        expectation(number(3), identity(4))


def test_operator_data_is_immutable():
    op = number(4)
    with pytest.raises(ValueError):
        op.data[0, 0] = 5.0


def test_adjoint_involution():
    rng = np.random.default_rng(11)
    op = QOperator(HilbertDims((4,)), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.array_equal(op.dag().dag().data, op.data)
