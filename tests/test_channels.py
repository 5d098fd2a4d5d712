"""Gate application, noisy CNOT, depolarization, mixing, point channel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdarwin import (
    CNOT,
    DensityOperator,
    HADAMARD,
    InvariantViolation,
    NoiseConfig,
    PureState,
    apply_gate,
    average_gate_fidelity,
    computational_ket,
    depolarize_local,
    maximally_mixed,
    mix_with_noise,
    mutual_information,
    objectivity_operation_sqd,
    partial_trace,
    point_channel,
)
from qdarwin.channels import depolarize_stack, depolarize_subsystems, replace_subsystems

from conftest import (
    apply_kraus,
    depolarizing_kraus,
    noisy_cnot_kraus,
    qubits,
    random_density,
    random_pure,
    random_subspace_spec,
    random_unitary,
)

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def ket_density(layout, digits):
    return computational_ket(layout, digits).to_density()


# ---------------------------------------------------------------------------
# apply_gate
# ---------------------------------------------------------------------------

def test_hadamard_makes_plus_state():
    rho = apply_gate(ket_density(qubits("A"), [0]), HADAMARD, ["A"])
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))


def test_cnot_flips_target():
    lay = qubits("C", "T")
    rho = apply_gate(ket_density(lay, [1, 0]), CNOT, ["C", "T"])
    assert np.allclose(rho.matrix, ket_density(lay, [1, 1]).matrix)


def test_gate_embedding_on_nonadjacent_targets(rng):
    # Conjugation through an explicit permutation-free oracle: apply on a
    # reordered register and permute back by relabeling.
    lay = qubits("A", "B", "C")
    rho = random_density(lay, rng)
    out = apply_gate(rho, CNOT, ["C", "A"])
    # Oracle: build the full unitary entry by entry.
    u = np.zeros((8, 8), complex)
    for a, b, c in itertools.product(range(2), repeat=3):
        a_out = a ^ c  # target A flips when control C is 1
        u[(a_out << 2) + (b << 1) + c, (a << 2) + (b << 1) + c] = 1.0
    expected = u @ rho.matrix @ u.conj().T
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_prep_circuit_reproduces_branching_state():
    lay = qubits("S", "E1_1", "E1_2", "E2_1", "E2_2")
    amps = np.zeros(32, complex)
    amps[0b00000] = amps[0b01111] = 0.5
    amps[0b10000] = amps[0b11111] = 0.5
    rho = PureState(lay, amps).to_density()
    rho = apply_gate(rho, CNOT, ["S", "E1_1"])
    rho = apply_gate(rho, CNOT, ["S", "E2_1"])
    expected = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        expected[idx] = 0.5
    assert np.max(np.abs(rho.matrix - np.outer(expected, expected.conj()))) < 1e-12


def test_apply_gate_rejects_non_unitary(rng):
    rho = random_density(qubits("A"), rng)
    with pytest.raises(InvariantViolation):
        apply_gate(rho, np.array([[1.0, 0.0], [0.0, 0.5]]), ["A"])


def test_apply_gate_refuses_an_output_that_fails_its_own_check():
    # A trace at the edge of TOL.trace_upper_slack, conjugated by a unitary
    # within TOL.unitarity, ends past the slack.
    edge = DensityOperator(qubits("A"), np.diag([1 + 1e-10, 0.0]))
    with pytest.raises(InvariantViolation, match=r"^trace 1\.00000000014\d* outside \[0, 1\]$"):
        apply_gate(edge, np.diag([1 + 2.4e-11, 1.0]), ["A"])
    # An accepted anti-Hermitian part of 9e-11, spread by H (x) H (x) H, is
    # gathered by the conjugation into one entry pair, 3.6e-10 apart.
    h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
    skew = np.zeros((8, 8))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    skew = h3 @ skew @ h3
    skewed = DensityOperator(qubits("A", "B", "C"),
                             np.eye(8) / 8 + 4.5e-11 * skew / np.abs(skew).max())
    message = r"^matrix is not Hermitian \(max dev 3\.600e-10\)$"
    with pytest.raises(InvariantViolation, match=message):
        apply_gate(skewed, h3, ["A", "B", "C"])


# ---------------------------------------------------------------------------
# Noisy CNOT: the gate, then its pair depolarized with weight 1 - f
# ---------------------------------------------------------------------------

def noisy_cnot(rho, control, target, f):
    """The preparation CNOT of the noisy cnot_models, as the pipeline runs it."""
    ideal = apply_gate(rho, CNOT, [control, target])
    return depolarize_subsystems(ideal, [control, target], f, 1.0 - f)


def test_noisy_cnot_f1_is_ideal(rng):
    lay = qubits("C", "T", "X")
    for _ in range(5):
        rho = random_density(lay, rng)
        a = noisy_cnot(rho, "C", "T", 1.0)
        b = apply_gate(rho, CNOT, ["C", "T"])
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_noisy_cnot_f0_on_product_state():
    lay = qubits("C", "T")
    rho = ket_density(lay, [1, 0])
    out = noisy_cnot(rho, "C", "T", 0.0)
    assert np.allclose(out.matrix, np.eye(4) / 4)


def test_noisy_cnot_reported_mixture():
    lay = qubits("C", "T")
    out = noisy_cnot(ket_density(lay, [1, 0]), "C", "T", 0.733)
    expected = 0.733 * ket_density(lay, [1, 1]).matrix + 0.267 * np.eye(4) / 4
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_noisy_cnot_matches_kraus_channel(rng):
    lay = qubits("C", "T", "X")
    for _ in range(5):
        rho = random_density(lay, rng)
        a = noisy_cnot(rho, "C", "T", 0.6)
        b = apply_kraus(rho, noisy_cnot_kraus(0.6), ["C", "T"])
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# average_gate_fidelity
# ---------------------------------------------------------------------------

def test_average_gate_fidelity_values():
    assert average_gate_fidelity(1.0) == 1.0
    assert abs(average_gate_fidelity(0.733) - 0.79) < 0.0005


def brute_force_fidelity_sum(f: float) -> float:
    """Unitary-basis fidelity sum with the gate's literal output formula.

    The depolarized-gate output is evaluated on each basis element as
    f * CNOT U CNOT^dag + (1 - f) * I/d, the d = 4 convention under which the
    closed-form (63 f + 17) / 80 arises.
    """
    d = 4
    total = 0.0 + 0.0j
    for a, b in itertools.product(range(4), repeat=2):
        u_j = np.kron(PAULIS[a], PAULIS[b])
        out = f * (CNOT @ u_j @ CNOT.conj().T) + (1.0 - f) * np.eye(4) / d
        total += np.trace(CNOT @ u_j.conj().T @ CNOT.conj().T @ out)
    return float((total.real + d ** 2) / (d ** 2 * (d + 1)))


def test_average_gate_fidelity_matches_brute_force():
    for f in (0.0, 0.25, 0.733, 1.0):
        assert abs(average_gate_fidelity(f) - brute_force_fidelity_sum(f)) < 1e-12


# ---------------------------------------------------------------------------
# depolarize_local
# ---------------------------------------------------------------------------

def test_depolarize_p0_is_identity(rng):
    rho = random_density(qubits("A", "B"), rng)
    out = depolarize_local(rho, 0.0, ["A", "B"])
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_depolarize_p1_kills_bell_correlation():
    lay = qubits("A", "B")
    bell = PureState(lay, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
    out = depolarize_local(bell, 1.0, ["A"])
    assert np.allclose(out.matrix, np.eye(4) / 4)


@pytest.mark.parametrize("keep, noise", [(0.7, 0.7), (1.5, -0.5), (-0.2, 1.0),
                                         (0.3, 0.0), (0.0, 0.5), (0.2, 0.5)])
def test_depolarize_subsystems_rejects_weights_beyond_a_mixture(keep, noise):
    bell = PureState(qubits("A", "B"), np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
    with pytest.raises(InvariantViolation, match="weights"):
        depolarize_subsystems(bell, ["A"], keep, noise)


def test_depolarize_stack_returns_zero_weight_rows_bit_for_bit(rng):
    # A row with noise 0 is its input and a row with keep 0 the replaced
    # input, signed zeros included: the mixture formula would turn -0.0
    # into 0.0.
    lay = qubits("A", "B", "C")
    m = random_density(lay, rng).matrix.copy()
    m[0, 1] = m[1, 0] = complex(-0.0, 0.0)
    stack = np.stack([m, m, m])
    out = depolarize_stack(stack, lay, ["B"], np.array([1.0, 0.0, 0.5]),
                           np.array([0.0, 1.0, 0.5]))
    replaced = replace_subsystems(m, lay, ["B"], np.eye(2, dtype=complex) / 2)
    assert np.signbit(replaced.real).sum() > np.signbit(replaced.real + 0.0).sum()
    assert out[0].tobytes() == m.tobytes()
    assert out[1].tobytes() == replaced.tobytes()
    assert np.allclose(out[2], 0.5 * m + 0.5 * replaced, atol=1e-15)


def test_depolarize_p1_all_photons_gives_maximally_mixed():
    lay = qubits("S", "E1_1", "E1_2", "E2_1", "E2_2")
    amps = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        amps[idx] = 0.5
    rho = PureState(lay, amps).to_density()
    # Independent route: iterate the single-qubit replacement channel.
    iterated = rho
    for label in lay.labels:
        iterated = apply_kraus(iterated, depolarizing_kraus(2, 1.0), [label])
    direct = depolarize_local(rho, 1.0, lay.labels)
    assert np.max(np.abs(direct.matrix - np.eye(32) / 32)) < 1e-12
    assert np.max(np.abs(iterated.matrix - direct.matrix)) < 1e-12


def test_depolarize_matches_kraus_channel(rng):
    lay = qubits("A", "B")
    for _ in range(5):
        rho = random_density(lay, rng)
        a = depolarize_local(rho, 0.37, ["A"])
        b = apply_kraus(rho, depolarizing_kraus(2, 0.37), ["A"])
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


def test_depolarize_commutes_across_disjoint_targets(rng):
    lay = qubits("A", "B", "C")
    rho = random_density(lay, rng)
    ab = depolarize_local(depolarize_local(rho, 0.4, ["A"]), 0.4, ["B"])
    ba = depolarize_local(depolarize_local(rho, 0.4, ["B"]), 0.4, ["A"])
    assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# mix_with_noise
# ---------------------------------------------------------------------------

def test_mix_with_noise_endpoints(rng):
    lay = qubits("A", "B")
    rho = random_density(lay, rng)
    assert np.max(np.abs(mix_with_noise(rho, 0.0).matrix - rho.matrix)) < 1e-12
    assert np.allclose(mix_with_noise(rho, 1.0).matrix, np.eye(4) / 4)


def test_mix_with_noise_purity_closed_form():
    lay = qubits("S", "E1_1", "E1_2", "E2_1", "E2_2")
    amps = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        amps[idx] = 0.5
    rho = PureState(lay, amps).to_density()
    p = 0.5
    mixed = mix_with_noise(rho, p)
    purity = float(np.trace(mixed.matrix @ mixed.matrix).real)
    closed_form = (1 - p) ** 2 + 2 * p * (1 - p) / 32 + p ** 2 / 32
    assert abs(purity - closed_form) < 1e-12


# ---------------------------------------------------------------------------
# point_channel
# ---------------------------------------------------------------------------

def test_point_channel_identity_on_product_factor(rng):
    a = random_density(qubits("A"), rng)
    b = random_density(qubits("B"), rng)
    prod = DensityOperator(qubits("A", "B"), np.kron(a.matrix, b.matrix))
    out = point_channel(prod, ["B"], b)
    assert np.max(np.abs(out.matrix - prod.matrix)) < 1e-12


def test_point_channel_composition_on_branching_state():
    lay = qubits("S", "E1_1", "E1_2", "E2_1", "E2_2")
    amps = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        amps[idx] = 0.5
    rho = PureState(lay, amps).to_density()
    replacement = computational_ket(lay.subset({"E2_1", "E2_2"}), [0, 0])
    out = point_channel(rho, ["E2_1", "E2_2"], replacement)
    reduced = partial_trace(rho, {"S", "E1_1", "E1_2"})
    expected = np.kron(reduced.matrix, replacement.to_density().matrix)
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_point_channel_output_is_uncorrelated(rng):
    lay = qubits("S", "E1", "E2")
    for _ in range(10):
        rho = random_density(lay, rng)
        rep = random_density(qubits("E2"), rng)
        out = point_channel(rho, ["E2"], rep)
        mi = mutual_information(out, {"S", "E1"}, {"E2"})
        assert abs(mi) < 1e-9


def test_point_channel_rejects_layout_mismatch(rng):
    rho = random_density(qubits("S", "E1", "E2"), rng)
    with pytest.raises(InvariantViolation):
        point_channel(rho, ["E2"], random_density(qubits("E1"), rng))


# ---------------------------------------------------------------------------
# Channel validity and NoiseConfig
# ---------------------------------------------------------------------------

def test_channels_preserve_state_validity(rng):
    lay = qubits("A", "B", "C")
    count = 0
    while count < 200:
        rho = random_density(lay, rng)
        choice = count % 4
        if choice == 0:
            out = depolarize_local(rho, float(rng.uniform()), ["A", "C"])
        elif choice == 1:
            out = mix_with_noise(rho, float(rng.uniform()))
        elif choice == 2:
            out = noisy_cnot(rho, "A", "B", float(rng.uniform()))
        else:
            out = point_channel(rho, ["C"], maximally_mixed(qubits("C")))
        assert abs(out.trace - rho.trace) < 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9
        count += 1


@st.composite
def _trusted_operation_cases(draw):
    """A random state on S + three qubits, a label subset and a weight."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lay = qubits("S", "A", "B", "C")
    rank = draw(st.sampled_from([1, 2, 16]))
    labels = draw(st.lists(st.sampled_from(lay.labels), min_size=1, max_size=3,
                           unique=True))
    weight = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    fragment = draw(st.lists(st.sampled_from(["E1", "E2"]), min_size=1, unique=True))
    pure_replacement = draw(st.booleans())
    return rng, random_density(lay, rng, rank), labels, weight, fragment, pure_replacement


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_trusted_operation_cases())
def test_trusted_outputs_pass_the_public_checks(case):
    # These operations build their outputs without validation; the public
    # constructor must accept every one of them, on normalized inputs and on
    # the subnormalized output of the objectivity operation.
    rng, rho, labels, weight, fragment, pure_replacement = case
    spec = random_subspace_spec(rng, {"E1": ("A",), "E2": ("B", "C")})
    gamma = objectivity_operation_sqd(rho, spec, fragment)
    sub = rho.layout.subset(labels)
    replacement = random_pure(sub, rng) if pure_replacement else random_density(sub, rng)
    outputs = [gamma, random_pure(rho.layout, rng).to_density()]
    for state in (rho, gamma):
        outputs += [
            partial_trace(state, labels),
            depolarize_subsystems(state, labels, 1.0 - weight, weight),
            point_channel(state, labels, replacement),
            apply_gate(state, random_unitary(sub.total_dim, rng), labels),
        ]
    for out in outputs:
        DensityOperator(out.layout, out.matrix)


def test_noise_config_validation():
    NoiseConfig(p=0.5, mode="depolarize_local", f=0.7, p_cnot=0.5)
    with pytest.raises(InvariantViolation):
        NoiseConfig(p=1.2)
    with pytest.raises(InvariantViolation):
        NoiseConfig(mode="bogus")
    with pytest.raises(InvariantViolation):
        NoiseConfig(p_cnot=0.0)
