"""Tensor algebra layer: layouts, states, partial trace, norms."""

import numpy as np
import pytest

from qdarwin import (
    DensityOperator,
    InvariantViolation,
    PureState,
    TensorLayout,
    computational_ket,
    eigvals_hermitian,
    partial_trace,
    trace_norm_distance,
)
from qdarwin.hilbert import trace_norm

from conftest import qubits, random_density, random_pure


def ket_density(layout, digits):
    return computational_ket(layout, digits).to_density()


def bell_state(label_a="A", label_b="B"):
    lay = qubits(label_a, label_b)
    return PureState(lay, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()


# ---------------------------------------------------------------------------
# Layouts and validation
# ---------------------------------------------------------------------------

def test_layout_rejects_duplicates():
    with pytest.raises(InvariantViolation):
        TensorLayout([("A", 2), ("A", 2)])


def test_layout_subset_keeps_canonical_order():
    lay = qubits("S", "E1", "E2")
    assert lay.subset({"E2", "S"}).labels == ("S", "E2")


def test_layout_rejects_oversized_registers():
    qubits(*[f"Q{k}" for k in range(8)])  # 256 is the supported maximum
    with pytest.raises(InvariantViolation):
        qubits(*[f"Q{k}" for k in range(9)])


def test_density_operator_validation():
    lay = qubits("A")
    with pytest.raises(InvariantViolation):
        DensityOperator(lay, np.array([[0.5, 0.6], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        DensityOperator(lay, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(InvariantViolation):
        DensityOperator(lay, np.eye(2) * 0.8)  # trace 1.6


def test_layout_derives_its_lookups_from_the_subsystems():
    lay = TensorLayout([("S", 2), ("E", 3)])
    assert (lay.labels, lay.dims, lay.total_dim) == (("S", "E"), (2, 3), 6)
    assert (lay.axis_of("E"), lay.dim_of("E")) == (1, 3)
    assert lay == TensorLayout([("S", 2), ("E", 3)])
    assert hash(lay) == hash(TensorLayout([("S", 2), ("E", 3)]))
    with pytest.raises(InvariantViolation, match="unknown subsystem label"):
        lay.dim_of("F")


def test_trusted_operator_is_a_frozen_copy():
    m = np.eye(2, dtype=complex) / 2
    rho = DensityOperator._trusted(qubits("A"), m)
    assert not rho.matrix.flags.writeable
    assert not np.shares_memory(rho.matrix, m)
    m[0, 0] = 5.0
    assert rho.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_pure_state_norm_validation():
    lay = qubits("A")
    with pytest.raises(InvariantViolation):
        PureState(lay, np.array([1.0, 0.5]))


def test_trace_norm_multiplicative_on_random_hermitians(rng):
    # Oracle: direct eigendecomposition of both sides.
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b + b.conj().T
        lhs = np.sum(np.abs(np.linalg.eigvalsh(np.kron(a, b))))
        rhs = (np.sum(np.abs(np.linalg.eigvalsh(a)))
               * np.sum(np.abs(np.linalg.eigvalsh(b))))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)
        assert abs(trace_norm(np.kron(a, b)) - rhs) < 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_gives_maximally_mixed():
    bell = bell_state()
    for keep in ("A", "B"):
        reduced = partial_trace(bell, {keep})
        assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_branching_state():
    # Tracing the second environment of the two-environment branching state
    # leaves an even mixture of four orthogonal system-environment kets.
    lay = qubits("S", "E1_1", "E1_2", "E2_1", "E2_2")
    amps = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        amps[idx] = 0.5
    psi = PureState(lay, amps).to_density()
    reduced = partial_trace(psi, {"S", "E1_1", "E1_2"})
    expected = np.zeros((8, 8), complex)
    for idx in (0b000, 0b011, 0b110, 0b101):  # |0,00>, |0,11>, |1,10>, |1,01>
        expected[idx, idx] = 0.25
    assert np.max(np.abs(reduced.matrix - expected)) < 1e-12


def test_partial_trace_of_product_recovers_factor(rng):
    a = random_density(qubits("A", "B"), rng)
    c = random_density(qubits("C"), rng)
    prod = DensityOperator(qubits("A", "B", "C"), np.kron(a.matrix, c.matrix))
    back = partial_trace(prod, {"A", "B"})
    assert np.max(np.abs(back.matrix - a.matrix * c.trace)) < 1e-12


def test_partial_trace_rejects_unknown_label():
    with pytest.raises(InvariantViolation):
        partial_trace(bell_state(), {"Z"})


def test_partial_trace_preserves_trace_on_random_states(rng):
    labels = ["Q1", "Q2", "Q3", "Q4", "Q5"]
    for _ in range(100):
        n = int(rng.integers(2, 6))
        lay = qubits(*labels[:n])
        rho = random_density(lay, rng)
        k = int(rng.integers(1, n))
        keep = set(rng.choice(labels[:n], size=k, replace=False))
        reduced = partial_trace(rho, keep)
        assert abs(reduced.trace - rho.trace) < 1e-12


def test_partial_trace_against_loop_oracle(rng):
    # Independent index-loop contraction over the traced subsystem.
    lay = qubits("A", "B", "C")
    rho = random_density(lay, rng)
    expected = np.zeros((4, 4), complex)
    t = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
    for a in range(2):
        for b in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    for c in range(2):
                        expected[a * 2 + b, a2 * 2 + b2] += t[a, b, c, a2, b2, c]
    got = partial_trace(rho, {"A", "B"})
    assert np.max(np.abs(got.matrix - expected)) < 1e-12


# ---------------------------------------------------------------------------
# trace_norm_distance
# ---------------------------------------------------------------------------

def test_trace_norm_distance_examples():
    lay = qubits("A")
    zero = ket_density(lay, [0])
    one = ket_density(lay, [1])
    assert trace_norm_distance(zero, zero) == 0.0
    assert abs(trace_norm_distance(zero, one) - 2.0) < 1e-12

    plus = DensityOperator(lay, np.full((2, 2), 0.5))
    dephased = DensityOperator(lay, np.diag([0.5, 0.5]))
    # The off-diagonal remainder has eigenvalues +-1/2.
    assert abs(trace_norm_distance(plus, dephased) - 1.0) < 1e-12


def test_trace_norm_distance_rejects_layout_mismatch(rng):
    with pytest.raises(InvariantViolation):
        trace_norm_distance(random_density(qubits("A"), rng),
                            random_density(qubits("B"), rng))


def test_trace_norm_distance_is_a_metric(rng):
    lay = qubits("A", "B")
    for _ in range(20):
        x = random_density(lay, rng)
        y = random_density(lay, rng)
        z = random_density(lay, rng)
        assert trace_norm_distance(x, y) == trace_norm_distance(y, x)
        assert (trace_norm_distance(x, z)
                <= trace_norm_distance(x, y) + trace_norm_distance(y, z) + 1e-9)


# ---------------------------------------------------------------------------
# eigvals_hermitian
# ---------------------------------------------------------------------------

def test_eigvals_hermitian_examples():
    assert np.allclose(eigvals_hermitian(np.eye(2) / 2), [0.5, 0.5])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(eigvals_hermitian(x), [1.0, -1.0])


def test_eigvals_hermitian_trace_identity(rng):
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    eigs = eigvals_hermitian(h)
    assert np.all(np.diff(eigs) <= 0)
    assert abs(np.sum(eigs) - np.trace(h).real) < 1e-9


def test_eigvals_hermitian_rejects_non_hermitian():
    with pytest.raises(InvariantViolation):
        eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projector_probability_bounds(rng):
    lay = qubits("A", "B", "C")
    for _ in range(25):
        rho = random_density(lay, rng)
        v = random_pure(lay, rng).amplitudes
        proj = np.outer(v, v.conj())
        p = float(np.trace(proj @ rho.matrix).real)
        assert -1e-10 <= p <= rho.trace + 1e-10
