"""Tensor algebra layer: layouts, states, partial trace, norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from qdarwin.hilbert import embed_operator, permute_subsystems, require_density, trace_norm
from qdarwin.tolerances import TOL

from conftest import qubits, random_density, random_pure, random_unitary


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
    with pytest.raises(InvariantViolation, match=r"^unknown subsystem labels \['Z'\]$"):
        partial_trace(bell_state(), {"A", "Z"})


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


# ---------------------------------------------------------------------------
# require_density: the shifted Cholesky accepts, the spectrum rejects
# ---------------------------------------------------------------------------

_PSD = TOL.psd_min_eig
# Least eigenvalues on both sides of -psd_min_eig, where the verdict flips,
# and of -psd_min_eig / 2, below which the shifted factor does not exist.
_LEAST = st.one_of(
    st.sampled_from([-2.0, -1.0001, -1.0, -0.9999, -0.75, -0.5001, -0.5, -0.4999, -0.1, 0.0])
    .map(lambda x: x * _PSD),
    st.floats(-2 * _PSD, 0.0), st.just(1e-3))


def with_spectrum(d, rank, least, rng):
    """U diag(w_1, ..., w_rank, 0, ..., least) U^dag in a random basis, with
    rank < d weights of sum 0.99; a positive ``least`` makes it full rank."""
    spectrum = np.zeros(d)
    spectrum[:rank] = 0.99 * rng.dirichlet(np.ones(rank))
    spectrum[-1] = least
    u = random_unitary(d, rng)
    return (u * spectrum) @ u.conj().T


def spectrum_verdict(stack):
    """The message of a check that reads the full spectrum, or None to pass."""
    low = float(np.min(eigvals_hermitian(stack)[..., -1]))
    return None if low >= -TOL.psd_min_eig else f"matrix has negative eigenvalue {low:.3e}"


def verdict(stack):
    try:
        require_density(stack)
    except InvariantViolation as exc:
        return str(exc)
    return None


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``np.linalg`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 4, 8, 32]), data=st.data())
def test_require_density_decides_as_the_spectrum_does(d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    rows = data.draw(st.lists(st.tuples(st.integers(1, d - 1), _LEAST), min_size=1, max_size=4))
    stack = np.stack([with_spectrum(d, rank, least, rng) for rank, least in rows])
    assert verdict(stack) == spectrum_verdict(stack)


def test_require_density_passes_a_row_in_the_fallback_band(rng, monkeypatch):
    calls = count_calls(monkeypatch, "cholesky", "eigvalsh")
    states = [with_spectrum(8, 3, least, rng) for least in (0.0, 1e-3)]
    require_density(np.stack(states))
    assert calls == {"cholesky": 1, "eigvalsh": 0}  # the factor accepts
    # A least eigenvalue of -0.75 psd_min_eig has no shifted factor but passes.
    require_density(np.stack(states + [with_spectrum(8, 3, -0.75 * _PSD, rng)]))
    assert calls == {"cholesky": 2, "eigvalsh": 1}


def test_require_density_rejects_a_row_at_minus_1e_6(rng):
    stack = np.stack([with_spectrum(8, 3, least, rng) for least in (0.0, -1e-6, 1e-3)])
    with pytest.raises(InvariantViolation, match=r"^matrix has negative eigenvalue -1\.000e-06$"):
        require_density(stack)


def test_require_density_checks_the_trace_of_a_positive_stack():
    # 0.75 I is positive definite: positivity passes, and the trace is checked.
    with pytest.raises(InvariantViolation, match=r"^trace 1\.5 outside \[0, 1\]$"):
        require_density(np.stack([np.eye(2) / 2, 0.75 * np.eye(2)]))


def test_require_density_reads_an_out_of_range_stack_from_the_spectrum(rng):
    # At a trace of 1e12 the shifted factor's rounding, about 1e-4, can hide
    # an eigenvalue of -1e-6.  Such a stack is decided by the spectrum, so it
    # is rejected for that eigenvalue before its trace, as a spectrum-only
    # check rejects it.
    hidden = 0
    for _ in range(40):
        u = random_unitary(4, rng)
        m = (u * [1e12, 0.3, 0.2, -1e-6]) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        message = spectrum_verdict(m) or "trace"
        assert verdict(m).startswith(message)
        try:
            np.linalg.cholesky(m + 0.5 * _PSD * np.eye(4))
            hidden += message != "trace"
        except np.linalg.LinAlgError:
            pass
    assert hidden  # the shifted factor alone would have accepted these


def test_require_density_rejects_non_finite_entries_before_any_factorization(monkeypatch):
    calls = count_calls(monkeypatch, "cholesky", "eigvalsh")
    m = np.eye(2, dtype=complex) / 2
    m[1, 1] = np.nan
    with pytest.raises(InvariantViolation, match=r"^matrix has a non-finite entry$"):
        require_density(m[None])
    assert calls == {"cholesky": 0, "eigvalsh": 0}


# ---------------------------------------------------------------------------
# Guard clauses: each names what it rejects
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: TensorLayout([]), "layout needs at least one subsystem",
                 id="empty-layout"),
    pytest.param(lambda: TensorLayout([("A", 2), ("B", 0)]), "subsystem 'B' has dim 0 < 1",
                 id="dimension-below-1"),
    pytest.param(lambda: PureState(qubits("A"), [1.0, 0.0, 0.0]),
                 "amplitude length 3 != layout dim 2", id="amplitude-length"),
    pytest.param(lambda: DensityOperator(qubits("A"), np.eye(4) / 4),
                 "matrix shape (4, 4) != layout dim (2, 2)", id="matrix-shape"),
    pytest.param(lambda: computational_ket(qubits("A", "B"), [0]),
                 "one digit per subsystem required", id="digit-count"),
    pytest.param(lambda: computational_ket(qubits("A", "B"), [0, 2]),
                 "digit 2 out of range for dim 2", id="digit-range"),
    pytest.param(lambda: embed_operator(qubits("A", "B"), np.eye(4), ["A", "A"]),
                 "duplicate target labels ['A', 'A']", id="duplicate-targets"),
    pytest.param(lambda: embed_operator(qubits("A", "B"), np.eye(2), ["C"]),
                 "unknown target labels ['C']", id="unknown-targets"),
    pytest.param(lambda: embed_operator(qubits("A", "B"), np.eye(4), ["A"]),
                 "operator shape (4, 4) != target dim (2, 2)", id="operator-shape"),
    pytest.param(lambda: permute_subsystems(np.eye(4), qubits("A", "B"), ["A", "C"]),
                 "order ['A', 'C'] is not a permutation of ['A', 'B']", id="non-permutation"),
    pytest.param(lambda: partial_trace(bell_state(), set()), "keep set must be nonempty",
                 id="empty-keep-set"),
])
def test_guard_clause_names_what_it_rejects(make, message):
    with pytest.raises(InvariantViolation) as caught:
        make()
    assert str(caught.value) == message
