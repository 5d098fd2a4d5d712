"""Fragment projectors, objectivity operations, non-objectivity measures."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdarwin import (
    DensityOperator,
    InvariantViolation,
    NoiseConfig,
    ObjectiveSubspaceSpec,
    PureState,
    check_structure,
    computational_ket,
    computational_spec,
    eigvals_hermitian,
    fragment_projector,
    maximally_mixed,
    mix_with_noise,
    nonobjectivity_measure,
    objectivity_operation_sqd,
    parity_spec,
    partial_trace,
    prepare_initial_isbs,
    prepare_initial_sqd,
)
from qdarwin.objectivity import nonobjectivity_measures
from qdarwin.protocol import _EXPERIMENTS

from conftest import qubits, random_density, random_subspace_spec

EVEN = np.diag([1.0, 0, 0, 1.0]).astype(complex)
ODD = np.diag([0, 1.0, 1.0, 0]).astype(complex)


def branching_state():
    return prepare_initial_sqd(NoiseConfig())


def sqd_projector_oracle(layout, spec, fragment_names):
    """Full-space projectors built with raw kron products, independently of
    the library's label embedding."""
    projs = []
    members = spec.members_of(fragment_names)
    for i in range(spec.system_dim):
        ket = spec.system_basis[:, i]
        p = np.outer(ket, ket.conj())
        for name, env_members in spec.environments:
            if name in fragment_names:
                p = np.kron(p, spec.projectors[name][i])
            else:
                p = np.kron(p, np.eye(2 ** len(env_members)))
        projs.append(p)
    return projs


def basis_projector_oracle(kets, n_subsystems):
    """Correlated rank-1 projectors |i...i><i...i| over a whole register of
    ``n_subsystems`` equal subsystems, assembled from product kets."""
    projs = []
    for i in range(kets.shape[1]):
        ket = np.array([1.0 + 0.0j])
        for _ in range(n_subsystems):
            ket = np.kron(ket, kets[:, i])
        projs.append(np.outer(ket, ket.conj()))
    return projs


# ---------------------------------------------------------------------------
# Specs and fragment projectors
# ---------------------------------------------------------------------------

def test_parity_preset_projectors():
    spec = parity_spec(2)
    p0 = fragment_projector(spec, ["E1"], 0)
    assert np.allclose(p0, EVEN)
    assert abs(np.trace(p0).real - 2.0) < 1e-12


def test_fragment_projector_rank_multiplies():
    spec = parity_spec(2)
    p1 = fragment_projector(spec, ["E1", "E2"], 1)
    assert abs(np.trace(p1).real - 4.0) < 1e-12
    p0 = fragment_projector(spec, ["E1", "E2"], 0)
    assert np.max(np.abs(p0 @ p1)) < 1e-12


def test_select_orders_by_spec_and_rejects_unknown_environments():
    spec = computational_spec(4)
    assert spec.select(["E3", "E1", "E3"]) == ("E1", "E3")
    assert spec.members_of(["E4", "E2"]) == ["E2", "E4"]
    with pytest.raises(InvariantViolation, match=r"\['E9'\] not in spec"):
        spec.select(["E1", "E9"])


def test_fragment_projector_rejects_unknown_environment():
    with pytest.raises(InvariantViolation):
        fragment_projector(parity_spec(2), ["E9"], 0)


def test_spec_validates_disjointness():
    overlapping = np.diag([1.0, 1.0, 0, 0]).astype(complex)
    with pytest.raises(InvariantViolation):
        ObjectiveSubspaceSpec(
            "S", np.eye(2), {"E1": ("E1_1", "E1_2")},
            {"E1": (overlapping, EVEN)},
        )
    not_idempotent = 0.5 * EVEN
    with pytest.raises(InvariantViolation):
        ObjectiveSubspaceSpec(
            "S", np.eye(2), {"E1": ("E1_1", "E1_2")},
            {"E1": (not_idempotent, ODD)},
        )


# ---------------------------------------------------------------------------
# Subspace-projection operation
# ---------------------------------------------------------------------------

def test_gamma_fixes_reduced_branching_state():
    rho_sf = partial_trace(branching_state(), {"S", "E1_1", "E1_2"})
    spec = parity_spec(2)
    out = objectivity_operation_sqd(rho_sf, spec, ["E1"])
    assert np.max(np.abs(out.matrix - rho_sf.matrix)) < 1e-12


def test_gamma_on_full_pure_state_matches_block_oracle():
    rho = branching_state()
    spec = parity_spec(2)
    out = objectivity_operation_sqd(rho, spec, ["E1", "E2"])
    projs = sqd_projector_oracle(rho.layout, spec, ["E1", "E2"])
    expected = sum(p @ rho.matrix @ p for p in projs)
    assert np.max(np.abs(out.matrix - expected)) < 1e-12
    assert abs(out.trace - 1.0) < 1e-12  # this state never leaves the subspaces
    # Off-diagonal system blocks are removed.
    blocks = out.matrix.reshape(2, 16, 2, 16)
    assert np.max(np.abs(blocks[0, :, 1, :])) < 1e-12


def test_gamma_projector_memo_is_keyed_by_fragment_and_layout(rng):
    # One spec instance serves two fragments of one layout, then the first
    # fragment again on a reduced layout; each result must equal a fresh
    # spec's, so a memo keyed too loosely would hand back the wrong projectors.
    rho = random_density(qubits("S", "E1_1", "E1_2", "E2_1", "E2_2"), rng)
    reduced = partial_trace(rho, {"S", "E1_1", "E1_2"})
    spec = parity_spec(2)
    for state, fragment in ((rho, ["E1"]), (rho, ["E1", "E2"]), (reduced, None),
                            (rho, ["E1"])):
        fresh = objectivity_operation_sqd(state, parity_spec(2), fragment)
        memoized = objectivity_operation_sqd(state, spec, fragment)
        assert np.array_equal(memoized.matrix, fresh.matrix)


def test_gamma_on_maximally_mixed_subnormalizes():
    lay = qubits("S", "E1_1", "E1_2")
    out = objectivity_operation_sqd(maximally_mixed(lay), parity_spec(1), ["E1"])
    assert abs(out.trace - 0.5) < 1e-12  # ranks (1*2 + 1*2) / 8


def test_gamma_idempotent_both_frameworks(rng):
    lay = qubits("S", "E1_1", "E1_2")
    spec = parity_spec(1)
    for _ in range(10):
        rho = random_density(lay, rng)
        once = objectivity_operation_sqd(rho, spec, ["E1"])
        twice = objectivity_operation_sqd(once, spec, ["E1"])
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12
    lay_i = qubits("S", "E1", "E2")
    for _ in range(10):
        rho = random_density(lay_i, rng)
        once = objectivity_operation_sqd(rho, computational_spec(2), ["E1", "E2"])
        twice = objectivity_operation_sqd(once, computational_spec(2), ["E1", "E2"])
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12


def test_gamma_never_increases_trace_and_output_is_objective(rng):
    lay = qubits("S", "E1_1", "E1_2")
    spec = parity_spec(1)
    for _ in range(20):
        rho = random_density(lay, rng)
        out = objectivity_operation_sqd(rho, spec, ["E1"])
        assert out.trace <= rho.trace + 1e-12
        if out.trace > 1e-6:
            renorm = DensityOperator(lay, out.matrix / out.trace)
            verdict = check_structure(renorm, spec, ["E1"])
            assert verdict.sqd and verdict.bipartite_sbs


# ---------------------------------------------------------------------------
# Basis-projection operation
# ---------------------------------------------------------------------------

def test_isbs_gamma_on_ghz():
    ghz = prepare_initial_isbs(NoiseConfig())
    out = objectivity_operation_sqd(ghz, computational_spec(4), ["E1", "E2", "E3", "E4"])
    expected = np.zeros((32, 32), complex)
    expected[0, 0] = 0.5
    expected[31, 31] = 0.5
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_isbs_gamma_fixed_point():
    ghz = prepare_initial_isbs(NoiseConfig())
    all_envs = ["E1", "E2", "E3", "E4"]
    dephased = objectivity_operation_sqd(ghz, computational_spec(4), all_envs)
    again = objectivity_operation_sqd(dephased, computational_spec(4), all_envs)
    assert np.max(np.abs(again.matrix - dephased.matrix)) < 1e-12


def test_isbs_gamma_on_plus_product():
    lay = qubits("S", "E1", "E2")
    amps = np.full(8, 1 / np.sqrt(8), dtype=complex)
    rho = PureState(lay, amps).to_density()
    out = objectivity_operation_sqd(rho, computational_spec(2), ["E1", "E2"])
    expected = np.zeros((8, 8), complex)
    expected[0, 0] = 1 / 8
    expected[7, 7] = 1 / 8
    assert np.max(np.abs(out.matrix - expected)) < 1e-12
    assert abs(out.trace - 2 * 2.0 ** (-3)) < 1e-12


def test_isbs_gamma_equals_subspace_gamma_for_rank1_specs(rng):
    # The basis framework's operation is the subspace operation on a rank-1
    # spec: it equals the sum over correlated product-ket projectors, for the
    # computational basis and for a shared non-computational one.
    lay = qubits("S", "E1", "E2")
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    for kets in (np.eye(2, dtype=complex), hadamard):
        rank1 = tuple(np.outer(kets[:, i], kets[:, i].conj()) for i in range(2))
        spec = ObjectiveSubspaceSpec("S", kets, {"E1": ("E1",), "E2": ("E2",)},
                                     {"E1": rank1, "E2": rank1})
        projs = basis_projector_oracle(kets, 3)
        for _ in range(10):
            rho = random_density(lay, rng)
            via_subspace = objectivity_operation_sqd(rho, spec, ["E1", "E2"])
            via_basis = sum(p @ rho.matrix @ p for p in projs)
            assert np.max(np.abs(via_subspace.matrix - via_basis)) < 1e-12


# ---------------------------------------------------------------------------
# Non-objectivity measure
# ---------------------------------------------------------------------------

def test_measure_zero_on_objective_state():
    rho_sf = partial_trace(branching_state(), {"S", "E1_1", "E1_2"})
    assert nonobjectivity_measure(rho_sf, parity_spec(2)) < 1e-12


def test_measure_one_on_full_fragment_pure_state():
    rho = branching_state()
    m = nonobjectivity_measure(rho, parity_spec(2))
    assert abs(m - 1.0) < 1e-9
    # Oracle: the residual is an off-diagonal block pair with singular
    # values 1/2 and 1/2.
    spec = parity_spec(2)
    projs = sqd_projector_oracle(rho.layout, spec, ["E1", "E2"])
    residual = rho.matrix - sum(p @ rho.matrix @ p for p in projs)
    svals = np.linalg.svd(residual, compute_uv=False)
    assert np.allclose(np.sort(svals)[-2:], [0.5, 0.5], atol=1e-12)


def test_measure_noise_law(rng):
    # Global mixing at strength p leaves a residual with four eigenvalues of
    # magnitude p/8, so the measure is exactly p/2.
    spec = parity_spec(2)
    for p in (0.1, 0.35, 0.8):
        rho = mix_with_noise(branching_state(), p)
        rho_sf = partial_trace(rho, {"S", "E1_1", "E1_2"})
        m = nonobjectivity_measure(rho_sf, spec)
        assert abs(m - p / 2) < 1e-12


def test_measure_nonnegative_on_random_states(rng):
    lay = qubits("S", "E1_1", "E1_2")
    spec = parity_spec(1)
    for _ in range(200):
        rho = random_density(lay, rng)
        assert nonobjectivity_measure(rho, spec) >= 0.0


def test_measure_unit_bound_on_protocol_state_family():
    # The nominal maximum of 1 holds across the experiment's state family
    # (noisy branching states, all fragments, both noise modes).
    spec = parity_spec(2)
    for p in np.linspace(0.0, 1.0, 11):
        for mode in ("mix_global", "depolarize_local"):
            rho = prepare_initial_sqd(NoiseConfig(p=float(p), mode=mode))
            for keep in ({"S", "E1_1", "E1_2"}, set(rho.layout.labels)):
                rho_sf = partial_trace(rho, keep)
                assert nonobjectivity_measure(rho_sf, spec) <= 1.0 + 1e-9


def test_measure_exceeds_nominal_bound_on_matched_unmatched_superposition():
    # Counterexample to the nominal unit maximum, reported rather than
    # suppressed: superposing a matched basis ket with an unmatched one gives
    # a residual with trace norm sqrt(5)/2 > 1.
    lay = qubits("S", "E1_1", "E1_2")
    amps = np.zeros(8, complex)
    amps[0b000] = amps[0b001] = 1 / np.sqrt(2)
    rho = PureState(lay, amps).to_density()
    m = nonobjectivity_measure(rho, parity_spec(1))
    assert abs(m - np.sqrt(5) / 2) < 1e-12
    assert m > 1.0


def test_measure_zero_iff_structure_check_passes(rng):
    lay = qubits("S", "E1_1", "E1_2")
    spec = parity_spec(1)
    passing = 0
    failing = 0
    for k in range(50):
        rho = random_density(lay, rng)
        if k % 2 == 0:
            # Project into the objective subspaces, then renormalize.
            g = objectivity_operation_sqd(rho, spec, ["E1"])
            rho = DensityOperator(lay, g.matrix / g.trace)
        m = nonobjectivity_measure(rho, spec)
        verdict = check_structure(rho, spec, ["E1"])
        if m < 1e-8:
            passing += 1
            assert verdict.sqd and verdict.bipartite_sbs
        else:
            failing += 1
            assert not verdict.bipartite_sbs
    assert passing >= 20 and failing >= 20


def test_measure_random_spec_agreement_with_oracle(rng):
    # The library measure equals a from-scratch projection-residual norm for
    # random subspace splits as well as the presets.
    lay = qubits("S", "E1_1", "E1_2")
    for _ in range(10):
        spec = random_subspace_spec(rng, {"E1": ("E1_1", "E1_2")})
        rho = random_density(lay, rng)
        projs = sqd_projector_oracle(lay, spec, ["E1"])
        residual = rho.matrix - sum(p @ rho.matrix @ p for p in projs)
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh(residual))))
        m = nonobjectivity_measure(rho, spec)
        assert abs(m - oracle) < 1e-10


def test_isbs_measure_ghz_endpoint():
    ghz = prepare_initial_isbs(NoiseConfig())
    m = nonobjectivity_measure(ghz, computational_spec(4))
    assert abs(m - 1.0) < 1e-9


def measure_alone(rho_sf, spec):
    """The single-state measure that the stacked one replaced: the residual's
    spectrum, subtracted in the byte order of its two operands."""
    a, b = rho_sf.matrix, objectivity_operation_sqd(rho_sf, spec).matrix
    return float(np.sum(np.abs(eigvals_hermitian(a - b if a.tobytes() <= b.tobytes() else b - a))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(framework=st.sampled_from(["SQD", "ISBS"]), custom=st.booleans(), data=st.data())
def test_stacked_measure_equals_each_row_alone(framework, custom, data):
    # Each row of the stacked measure has the bytes of the measure of that
    # state alone, on every fragment of the register's preset or of a custom
    # subspace.  The rows mix ranks, both operand orders of the
    # subtraction, and (on the preset) a fixed point, whose residual is zero.
    experiment = _EXPERIMENTS[framework]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    spec = (random_subspace_spec(rng, dict(experiment.spec.environments)) if custom
            else experiment.spec)
    names = spec.environment_names
    for fragment in itertools.chain.from_iterable(
            itertools.combinations(names, k) for k in range(1, len(names) + 1)):
        layout = experiment.layout.subset([spec.system_label, *spec.members_of(fragment)])
        rows = [random_density(layout, rng, rank=rank) for rank in
                data.draw(st.lists(st.sampled_from([1, 2, None]), min_size=1, max_size=4))]
        if not custom:
            rows.append(computational_ket(layout, [0] * len(layout)).to_density())
        stacked = nonobjectivity_measures(np.stack([rho.matrix for rho in rows]), layout, spec)
        for row, rho in zip(stacked, rows):
            for alone in (nonobjectivity_measure(rho, spec), measure_alone(rho, spec)):
                assert row.tobytes() == np.float64(alone).tobytes()
