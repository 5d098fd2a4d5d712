"""Witness protocol: preparation, branches, exact and Monte Carlo modes,
and the tomography cost model."""

import collections
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from qdarwin import (
    CNOT,
    DensityOperator,
    InvariantViolation,
    NoiseConfig,
    NonterminatingSampling,
    ObjectiveSubspaceSpec,
    ProtocolConfig,
    PureState,
    apply_gate,
    cost_model,
    depolarize_local,
    embed_operator,
    fragment_projector,
    mutual_information,
    nonobjectivity_measure,
    partial_trace,
    point_channel,
    prepare_initial_isbs,
    prepare_initial_sqd,
    run_branch,
    run_witness,
    run_witnesses,
    sqd_layout,
    verify_equal_dimension_reduction,
    witness_exact,
    witness_monte_carlo,
)
from qdarwin import protocol
from qdarwin.objectivity import (computational_spec, embedded_projectors, parity_spec, project,
                                 require_basis_spec)
from qdarwin.cli import main
from qdarwin.channels import depolarize_stack, replace_subsystems
from qdarwin.hilbert import eigvals_hermitian, permute_subsystems, require_density, trace_out
from qdarwin.protocol import _marginalize_to_sf, _max_subset, _resolve_context
from qdarwin.serialize import config_from_dict, spec_by_name
from qdarwin.tolerances import TOL

from conftest import (
    apply_kraus,
    coin_plan,
    noisy_cnot_kraus,
    qubits,
    random_density,
    random_subspace_spec,
    random_unitary,
    realization_pmf,
    reference_sample_branch,
)


_SF = ("S", "E1_1", "E1_2")  # the system and fragment E1 on the SQD register


def branching_amplitudes():
    amps = np.zeros(32, complex)
    for idx in (0b00000, 0b01111, 0b11010, 0b10101):
        amps[idx] = 0.5
    return amps


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------

def test_prepare_sqd_ideal_amplitudes():
    rho = prepare_initial_sqd(NoiseConfig())
    amps = branching_amplitudes()
    assert np.max(np.abs(rho.matrix - np.outer(amps, amps.conj()))) < 1e-12


def test_prepare_sqd_full_mix():
    rho = prepare_initial_sqd(NoiseConfig(p=1.0))
    assert np.allclose(rho.matrix, np.eye(32) / 32)


def test_prepare_sqd_noisy_matches_branch_expansion():
    # Two oracles: expand the two depolarizing CNOTs into their four coin
    # realizations (ideal / pair-replaced) and mix with the right weights,
    # and apply the noisy CNOT's Kraus operators gate by gate.
    f = 0.733
    lay = sqd_layout()
    base_amps = np.zeros(32, complex)
    base_amps[0b00000] = base_amps[0b01111] = 0.5
    base_amps[0b10000] = base_amps[0b11111] = 0.5
    base = PureState(lay, base_amps).to_density()
    gates = (("S", "E1_1"), ("S", "E2_1"))
    expected = np.zeros((32, 32), complex)
    for bits in itertools.product((0, 1), repeat=2):
        rho = base
        weight = 1.0
        for (control, target), bit in zip(gates, bits):
            if bit:
                weight *= 1.0 - f
                pair = lay.subset([control, target])
                rho = point_channel(rho, [control, target],
                                    DensityOperator(pair, np.eye(4) / 4))
            else:
                weight *= f
                rho = apply_gate(rho, CNOT, [control, target])
        expected += weight * rho.matrix
    kraus = base
    for control, target in gates:
        kraus = apply_kraus(kraus, noisy_cnot_kraus(f), [control, target])
    produced = prepare_initial_sqd(NoiseConfig(f=f), cnot_model="noisy_prep")
    assert np.max(np.abs(produced.matrix - expected)) < 1e-12
    assert np.max(np.abs(produced.matrix - kraus.matrix)) < 1e-12

    amps = branching_amplitudes()
    overlap = float((amps.conj() @ produced.matrix @ amps).real)
    # Two depolarizing gates leave roughly an f^2 share of the ideal state.
    assert f ** 2 - 0.01 < overlap < f ** 2 + 0.15


def test_prepare_isbs_ghz():
    rho = prepare_initial_isbs(NoiseConfig())
    amps = np.zeros(32, complex)
    amps[0] = amps[31] = 1 / np.sqrt(2)
    assert np.max(np.abs(rho.matrix - np.outer(amps, amps.conj()))) < 1e-12


def test_prepare_isbs_mix_spectrum():
    rho = prepare_initial_isbs(NoiseConfig(p=0.3))
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    expected = np.sort(np.array([0.7 + 0.3 / 32] + [0.3 / 32] * 31))
    assert np.max(np.abs(eigs - expected)) < 1e-12


# ---------------------------------------------------------------------------
# run_branch
# ---------------------------------------------------------------------------

def test_branches_agree_on_objective_state():
    config = ProtocolConfig(framework="SQD", fragment=("E1",))
    rho = prepare_initial_sqd(NoiseConfig())
    v_id = run_branch(rho, config, apply_gamma=False)
    v_g = run_branch(rho, config, apply_gamma=True)
    assert np.max(np.abs(v_id - v_g)) < 1e-12


def test_identity_branch_uniform_under_full_mix():
    config = ProtocolConfig(framework="SQD", fragment=("E1",))
    rho = prepare_initial_sqd(NoiseConfig(p=1.0))
    v_id = run_branch(rho, config, apply_gamma=False)
    ctx = _resolve_context(config)
    marg = _marginalize_to_sf(v_id, ctx.layout, ctx.sf_labels)
    assert np.max(np.abs(marg - 1.0 / 8)) < 1e-12
    # Full register pattern: the replaced block contributes |0> on the first
    # photon and the Hadamard-rotated |0> (uniform) on the second.
    expected = np.zeros(32)
    for idx in range(32):
        e2_1 = (idx >> 1) & 1
        if e2_1 == 0:
            expected[idx] = (1.0 / 8) * 1.0 * 0.5
    assert np.max(np.abs(v_id - expected)) < 1e-12


def test_branch_probability_matches_born_rule():
    # Cross-check through the Born rule: the first outcome of the identity
    # branch equals tr[P_0 U rho U^dag].
    config = ProtocolConfig(framework="ISBS", fragment=("E1", "E2", "E3", "E4"))
    rho = prepare_initial_isbs(NoiseConfig())
    v_id = run_branch(rho, config, apply_gamma=False)
    ctx = _resolve_context(config)
    final = apply_gate(rho, ctx.unitary, list(rho.layout.labels))
    proj = np.zeros((32, 32))
    proj[0, 0] = 1.0
    p0 = float(np.trace(proj @ final.matrix).real)
    assert abs(v_id[0] - p0) < 1e-12
    assert abs(p0 - 1.0 / 16) < 1e-12  # constructive interference of both branches


def test_branch_sums():
    config = ProtocolConfig(framework="SQD", fragment=("E1",),
                            noise=NoiseConfig(p=0.6))
    rho = prepare_initial_sqd(NoiseConfig(p=0.6))
    v_id = run_branch(rho, config, apply_gamma=False)
    assert abs(v_id.sum() - 1.0) < 1e-10
    v_g = run_branch(rho, config, apply_gamma=True)
    ctx = _resolve_context(config)
    rho_post = point_channel(rho, ctx.ef_members, ctx.replacement)
    from qdarwin import objectivity_operation_sqd
    gamma_trace = objectivity_operation_sqd(rho_post, ctx.spec, ("E1",)).trace
    assert abs(v_g.sum() - gamma_trace) < 1e-10


def test_identity_branch_sums_to_one_on_random_states(rng):
    config = ProtocolConfig(framework="SQD", fragment=("E1",))
    for _ in range(10):
        rho = random_density(sqd_layout(), rng)
        v = run_branch(rho, config, apply_gamma=False)
        assert abs(v.sum() - 1.0) < 1e-10


def test_report_fields_invariant_to_unaccessed_environment_noise(rng):
    # Noise acting only on the replaced environments changes nothing: the
    # point channel discards that block before anything is measured.
    config = ProtocolConfig(framework="SQD", fragment=("E1",),
                            noise=NoiseConfig(p=0.3))
    rho = prepare_initial_sqd(NoiseConfig(p=0.3))
    noisy_ef = depolarize_local(rho, 0.7, ["E2_1", "E2_2"])
    ctx = _resolve_context(config)
    for gamma in (False, True):
        a = run_branch(rho, config, gamma)
        b = run_branch(noisy_ef, config, gamma)
        a_sf = _marginalize_to_sf(a, ctx.layout, ctx.sf_labels)
        b_sf = _marginalize_to_sf(b, ctx.layout, ctx.sf_labels)
        assert np.max(np.abs(a_sf - b_sf)) < 1e-10
    m_a = nonobjectivity_measure(
        partial_trace(rho, set(ctx.sf_labels)), ctx.spec)
    m_b = nonobjectivity_measure(
        partial_trace(noisy_ef, set(ctx.sf_labels)), ctx.spec)
    assert abs(m_a - m_b) < 1e-10


# ---------------------------------------------------------------------------
# witness_exact
# ---------------------------------------------------------------------------

def test_exact_objective_case_is_silent():
    report = witness_exact(ProtocolConfig(framework="SQD", fragment=("E1",)))
    assert report.measure < 1e-10
    assert report.witness_max_subset < 1e-10
    assert report.mode == "exact"


def test_exact_mix_noise_bound_is_tight():
    # Every outcome difference equals p/16 here, so the subset witness
    # saturates the measure p/2.
    for p in (0.2, 0.5, 0.9):
        report = witness_exact(ProtocolConfig(
            framework="SQD", fragment=("E1",), noise=NoiseConfig(p=p)))
        assert abs(report.measure - p / 2) < 1e-9
        assert report.witness_max_subset <= report.measure + 1e-9
        assert abs(report.witness_max_subset - p / 2) < 1e-9
        assert np.max(np.abs(report.witness_single - p / 16)) < 1e-9
        assert report.witness_max_subset >= np.max(report.witness_single)


def test_exact_full_fragment_witness_is_strictly_below_measure():
    report = witness_exact(ProtocolConfig(framework="SQD", fragment=("E1", "E2")))
    assert abs(report.measure - 1.0) < 1e-9
    assert report.witness_max_subset < report.measure - 0.25
    assert abs(report.witness_max_subset - 0.5) < 1e-9


def test_exact_isbs_full_fragment():
    report = witness_exact(ProtocolConfig(
        framework="ISBS", fragment=("E1", "E2", "E3", "E4")))
    assert abs(report.measure - 1.0) < 1e-9
    assert abs(report.witness_max_subset - 0.5) < 1e-9


def test_exact_isbs_partial_fragment_tightness():
    # For reduced fragments the local-Hadamard witness saturates the measure.
    for p in (0.2, 0.6):
        report = witness_exact(ProtocolConfig(
            framework="ISBS", fragment=("E1",), noise=NoiseConfig(p=p)))
        assert abs(report.measure - report.witness_max_subset) < 1e-9


def test_exact_rejects_nonzero_shots():
    with pytest.raises(InvariantViolation):
        witness_exact(ProtocolConfig(framework="SQD", fragment=("E1",), shots=10))


def test_witness_bounded_by_measure_on_random_instances(rng):
    # Random states, random subspace splits, random register unitaries and
    # random outcome subsets never violate the lower-bound relation.
    checked = 0
    lay = sqd_layout()
    while checked < 60:
        if checked % 2 == 0:  # a spec of E1 alone and a unitary on S and E1
            envs = {"E1": ("E1_1", "E1_2")}
            unitary = embed_operator(lay, random_unitary(8, rng), _SF)
        else:
            envs = {"E1": ("E1_1", "E1_2"), "E2": ("E2_1", "E2_2")}
            unitary = random_unitary(lay.total_dim, rng)
        spec = random_subspace_spec(rng, envs)
        config = ProtocolConfig(
            framework="SQD", fragment=("E1",), subspace=spec, unitary=unitary)
        rho = random_density(lay, rng)
        ctx = _resolve_context(config)
        v_id = _marginalize_to_sf(run_branch(rho, config, False), lay, ctx.sf_labels)
        v_g = _marginalize_to_sf(run_branch(rho, config, True), lay, ctx.sf_labels)
        diffs = v_id - v_g
        measure = nonobjectivity_measure(
            partial_trace(rho, set(ctx.sf_labels)), spec)
        assert _max_subset(diffs) <= measure + 1e-9
        subset = rng.random(diffs.shape) < 0.5
        assert abs(float(diffs[subset].sum())) <= measure + 1e-9
        checked += 1


def test_config_rejects_a_unitary_sized_to_its_spec():
    # A custom subspace over S and E1 does not shrink the register: a witness
    # run spans all five photons, so the unitary must be 32 x 32.
    spec = random_subspace_spec(np.random.default_rng(3), {"E1": ("E1_1", "E1_2")})
    with pytest.raises(InvariantViolation, match=r"unitary shape \(8, 8\) is not \(32, 32\)"):
        ProtocolConfig(framework="SQD", fragment=("E1",), subspace=spec, unitary=np.eye(8))
    ProtocolConfig(framework="SQD", fragment=("E1",), subspace=spec, unitary=np.eye(32))


def test_run_branch_rejects_a_state_off_the_register(rng):
    config = ProtocolConfig(framework="SQD", fragment=("E1",))
    for layout in (qubits("S", "E1_1", "E1_2"), qubits("S", "E1", "E2", "E3", "E4")):
        with pytest.raises(InvariantViolation, match="is not the SQD register"):
            run_branch(random_density(layout, rng), config, apply_gamma=False)


def test_subset_formula_matches_brute_force(rng):
    # All 2^8 subsets of the outcomes of the system and fragment E1.
    instances = 0
    lay = sqd_layout()
    while instances < 50:
        spec = random_subspace_spec(rng, {"E1": ("E1_1", "E1_2")})
        config = ProtocolConfig(framework="SQD", fragment=("E1",), subspace=spec,
                                unitary=embed_operator(lay, random_unitary(8, rng), _SF))
        rho = random_density(lay, rng)
        v_id = _marginalize_to_sf(run_branch(rho, config, False), lay, _SF)
        v_g = _marginalize_to_sf(run_branch(rho, config, True), lay, _SF)
        diffs = v_id - v_g
        best = 0.0
        for mask in range(1, 2 ** diffs.size):
            chosen = np.array([(mask >> k) & 1 for k in range(diffs.size)], bool)
            best = max(best, abs(float(diffs[chosen].sum())))
        assert best == _max_subset(diffs)
        instances += 1


# ---------------------------------------------------------------------------
# witness_monte_carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_objective_case_consistent_with_zero():
    report = witness_monte_carlo(ProtocolConfig(
        framework="SQD", fragment=("E1",), shots=6000, seed=21))
    assert report.successful_runs == 6000
    assert report.measure < 1e-10
    assert report.witness_max_subset <= 3 * report.stderr_max_subset


def test_monte_carlo_matches_exact_at_large_shots():
    exact = witness_exact(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=NoiseConfig(p=0.4)))
    mc = witness_monte_carlo(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=NoiseConfig(p=0.4),
        shots=10**6, seed=17))
    assert abs(mc.witness_max_subset - exact.witness_max_subset) \
        <= 4 * mc.stderr_max_subset


def test_monte_carlo_same_seed_is_bit_identical():
    config = ProtocolConfig(framework="SQD", fragment=("E1",),
                            noise=NoiseConfig(p=0.25, mode="depolarize_local"),
                            shots=4000, seed=99)
    a = witness_monte_carlo(config)
    b = witness_monte_carlo(config)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_monte_carlo_null_runs_shrink_gamma_mass():
    # With noise, some projected-branch runs miss the objective subspace and
    # are recorded as the null outcome, so the empirical vector subnormalizes.
    report = witness_monte_carlo(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=NoiseConfig(p=0.8),
        shots=8000, seed=5))
    assert report.p_gamma.sum() < 0.95
    assert abs(report.p_identity.sum() - 1.0) < 1e-9


def test_monte_carlo_estimator_is_unbiased(rng):
    # Mean of the per-outcome empirical probabilities over independent
    # replicates stays within three combined standard errors of exact.
    base = ProtocolConfig(framework="SQD", fragment=("E1",),
                          noise=NoiseConfig(p=0.4), shots=6000)
    exact = witness_exact(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=NoiseConfig(p=0.4)))
    replicates = 100
    sums_id = np.zeros(8)
    sums_g = np.zeros(8)
    for k in range(replicates):
        rep = witness_monte_carlo(ProtocolConfig(
            framework=base.framework, fragment=base.fragment, noise=base.noise,
            shots=base.shots, seed=1000 + k))
        sums_id += rep.p_identity
        sums_g += rep.p_gamma
    n_branch = 3000 * replicates
    for mean, truth in ((sums_id / replicates, exact.p_identity),
                        (sums_g / replicates, exact.p_gamma)):
        se = np.sqrt(np.clip(truth * (1 - truth), 0.0, None) / n_branch)
        assert np.all(np.abs(mean - truth) <= 3 * se + 1e-12)


def test_noisy_parity_model_can_overshoot_measure():
    # When the parity-check CNOTs themselves depolarize, the projected branch
    # no longer matches the measure's projection, so the witness may exceed
    # the measure; exact mode must not assert the bound in this model.
    report = witness_exact(ProtocolConfig(
        framework="SQD", fragment=("E1",),
        noise=NoiseConfig(p=0.05, f=0.733),
        cnot_model="noisy_prep_parity"))
    assert report.witness_max_subset >= 0.0
    clean = witness_exact(ProtocolConfig(
        framework="SQD", fragment=("E1",),
        noise=NoiseConfig(p=0.05, f=0.733),
        cnot_model="noisy_prep"))
    assert report.witness_max_subset > clean.witness_max_subset


def test_noisy_parity_monte_carlo_matches_exact():
    noise = NoiseConfig(p=0.1, f=0.733)
    exact = witness_exact(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=noise,
        cnot_model="noisy_prep_parity"))
    mc = witness_monte_carlo(ProtocolConfig(
        framework="SQD", fragment=("E1",), noise=noise,
        cnot_model="noisy_prep_parity", shots=200000, seed=41))
    assert abs(mc.witness_max_subset - exact.witness_max_subset) \
        <= 4 * mc.stderr_max_subset


def test_monte_carlo_with_hardware_discarding():
    report = witness_monte_carlo(ProtocolConfig(
        framework="SQD", fragment=("E1",),
        noise=NoiseConfig(p=0.3, p_cnot=0.5), shots=2000, seed=13))
    assert report.successful_runs == 2000


def test_monte_carlo_nontermination_abort():
    config = ProtocolConfig(
        framework="SQD", fragment=("E1", "E2"),
        noise=NoiseConfig(p_cnot=0.005), shots=100, seed=3)
    with pytest.raises(NonterminatingSampling):
        witness_monte_carlo(config)


def test_isbs_gamma_picks_the_system_by_label():
    # A computational spec naming E4 the system and S an environment describes
    # the same symmetric GHZ experiment with the two photons' roles swapped.
    rank1 = tuple(np.outer(k, k) for k in np.eye(2))
    envs = {"E1": ("E1",), "E2": ("E2",), "E3": ("E3",), "S": ("S",)}
    relabelled = ObjectiveSubspaceSpec("E4", np.eye(2), envs, {n: rank1 for n in envs})
    for p, fragment in itertools.product((0.0, 0.3), (("E1",), ("E1", "E2"))):
        noise = NoiseConfig(p=p)
        default = witness_exact(ProtocolConfig(
            framework="ISBS", fragment=fragment, noise=noise))
        swapped = witness_exact(ProtocolConfig(
            framework="ISBS", fragment=fragment, noise=noise, subspace=relabelled))
        assert abs(swapped.measure - default.measure) < 1e-12
        assert abs(swapped.witness_max_subset - default.witness_max_subset) < 1e-12
        assert (default.measure > 0.1) == (p > 0.0)


def test_config_resolves_its_spec_once_and_replace_resolves_again():
    config = ProtocolConfig(framework="SQD", fragment=("E1",))
    assert _resolve_context(config).spec is config.spec
    assert config.spec.environment_names == ("E1", "E2")
    isbs = dataclasses.replace(config, framework="ISBS")
    assert isbs.spec.environment_names == ("E1", "E2", "E3", "E4")
    assert _resolve_context(isbs).spec is isbs.spec


def test_default_isbs_spec_is_a_basis_spec():
    # ProtocolConfig checks only a user-supplied ISBS subspace.
    require_basis_spec(protocol._EXPERIMENTS[protocol.FRAMEWORK_ISBS].spec)


@pytest.mark.parametrize("framework", ["SQD", "ISBS"])
def test_default_spec_is_one_read_only_instance(framework):
    # Every config of a framework shares the preset, and with it the memo of
    # embedded projectors, so nothing may mutate it.  A config or a `check`
    # that names the preset gets the same instance.
    configs = [ProtocolConfig(framework=framework, noise=NoiseConfig(p=p))
               for p in (0.1, 0.2)]
    experiment = protocol._EXPERIMENTS[framework]
    spec = experiment.spec
    assert all(config.spec is spec for config in configs)
    assert spec_by_name(experiment.preset) is spec
    named = config_from_dict({"framework": framework, "subspace": experiment.preset})
    assert named.spec is spec
    name = spec.environment_names[0]
    with pytest.raises(TypeError):
        spec.projectors[name] = spec.projectors[name]
    with pytest.raises(ValueError):
        spec.projectors[name][0][0, 0] = 0.0
    with pytest.raises(ValueError):
        spec.system_basis[0, 0] = 0.0


# ---------------------------------------------------------------------------
# Validation boundaries
# ---------------------------------------------------------------------------

def _broken(stage):
    """The stacked ``stage`` with the smallest eigenvalue of each output
    matrix set to -1e-6."""
    def broken(*args, **kwargs):
        w, v = np.linalg.eigh(stage(*args, **kwargs))
        w[..., 0] = -1e-6
        return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return broken


_BOUNDARY_CONFIG = ProtocolConfig(framework="SQD", fragment=("E1",),
                                  noise=NoiseConfig(p=0.2))


def _assert_both_modes_raise():
    with pytest.raises(InvariantViolation, match="negative eigenvalue"):
        witness_exact(_BOUNDARY_CONFIG)
    with pytest.raises(InvariantViolation, match="negative eigenvalue"):
        witness_monte_carlo(dataclasses.replace(_BOUNDARY_CONFIG, shots=200))


def test_branch_output_boundary_catches_a_broken_gamma(monkeypatch):
    monkeypatch.setattr(protocol, "project", _broken(protocol.project))
    _assert_both_modes_raise()


def test_prepared_state_boundary_catches_broken_noise(monkeypatch):
    monkeypatch.setattr(protocol, "depolarize_stack", _broken(protocol.depolarize_stack))
    with pytest.raises(InvariantViolation, match="negative eigenvalue"):
        protocol._prepare("SQD", "ideal", 1.0, "mix_global", [0.2])
    _assert_both_modes_raise()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ProtocolConfig(fragment=()), "fragment must be nonempty",
                 id="empty-fragment"),
    pytest.param(lambda: witness_monte_carlo(ProtocolConfig()),
                 "Monte Carlo mode requires shots > 0", id="monte-carlo-without-shots"),
    # A projector from a document is a Gram matrix, Hermitian by construction.
    pytest.param(lambda: ObjectiveSubspaceSpec("S", np.eye(2), {"E1": ("E1",)}, {
        "E1": (np.array([[1.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0]))}),
                 r"projector 'E1'\[0\] is not Hermitian", id="non-hermitian-projector"),
    pytest.param(lambda: fragment_projector(spec_by_name("parity2"), ["E1"], 2),
                 "index 2 out of range", id="fragment-projector-index"),
    pytest.param(lambda: mutual_information(random_density(qubits("A", "B", "C"),
                                                           np.random.default_rng(0)),
                                            ["A"], ["B"]),
                 "parts must be nonempty and cover the layout",
                 id="mutual-information-parts-not-covering"),
    pytest.param(lambda: verify_equal_dimension_reduction(
        random_density(qubits("S"), np.random.default_rng(0))),
                 "need at least one environment", id="reduction-without-environment"),
    pytest.param(lambda: point_channel(random_density(qubits("A", "B"), np.random.default_rng(0)),
                                       [], random_density(qubits("A"), np.random.default_rng(0))),
                 "discard set must be nonempty", id="point-channel-without-discard"),
])
def test_library_guard_clauses_raise_their_messages(call, message):
    # Guards that the CLI never reaches: its parser rejects an empty
    # fragment list first, it dispatches on the shot count, and its
    # documents give projectors as Gram matrices.  The rest serve library
    # callers only.
    with pytest.raises(InvariantViolation, match=message):
        call()


def _state_on(labels, trace=1.0):
    d = 2 ** len(labels)
    return DensityOperator(qubits(*labels), np.diag([trace] + [0.0] * (d - 1)))


_NOT_A_NAME = st.text(max_size=8)
# One strategy per rejection of ProtocolConfig: the field it must name, and
# the fields of a config that breaks that check alone.
_ONE_BROKEN_FIELD = {
    "framework": ("framework", _NOT_A_NAME.filter(lambda t: t not in ("SQD", "ISBS")).map(
        lambda t: {"framework": t})),
    "fragment-empty": ("fragment", st.just({"fragment": ()})),
    "fragment-unknown": ("fragment", _NOT_A_NAME.filter(lambda t: t not in ("E1", "E2")).map(
        lambda t: {"fragment": ("E1", t)})),
    "shots-negative": ("shots", st.integers(max_value=-1).map(lambda n: {"shots": n})),
    "shots-above-int64": ("shots", st.integers(min_value=2 ** 63).map(lambda n: {"shots": n})),
    "shots-one": ("shots", st.just({"shots": 1})),
    "seed": ("seed", st.integers(max_value=-1).map(lambda n: {"seed": n})),
    "cnot_model": ("cnot_model", _NOT_A_NAME.filter(
        lambda t: t not in ("ideal", "noisy_prep", "noisy_prep_parity")).map(
        lambda t: {"cnot_model": t})),
    "branch_shots-not-positive": ("branch_shots", st.tuples(
        st.integers(max_value=0), st.integers(1, 50)).map(
        lambda ab: {"shots": 10, "branch_shots": ab})),
    "branch_shots-not-the-shots": ("branch_shots", st.tuples(
        st.integers(1, 50), st.integers(1, 50), st.integers(0, 200)).filter(
        lambda abn: abn[0] + abn[1] != abn[2]).map(
        lambda abn: {"shots": abn[2], "branch_shots": abn[:2]})),
    "isbs-cnot_model": ("cnot_model", st.sampled_from(["noisy_prep", "noisy_prep_parity"]).map(
        lambda m: {"framework": "ISBS", "fragment": ("E3",), "cnot_model": m})),
    "isbs-p_cnot": ("noise", st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda q: {"framework": "ISBS", "noise": NoiseConfig(p_cnot=q)})),
    "replacement-layout": ("replacement", st.sampled_from(
        [("E2_2", "E2_1"), ("E2_1",), ("X", "Y")]).map(
        lambda labels: {"replacement": _state_on(labels)})),
    "replacement-trace": ("replacement", st.floats(0.0, 0.99).map(
        lambda t: {"replacement": _state_on(("E2_1", "E2_2"), t)})),
    "subspace-select": ("subspace", st.sampled_from(["E3", "E9"]).map(
        lambda name: {"subspace": parity_spec(2), "fragment": (name,)})),
    "subspace-not-a-basis": ("subspace", st.just(
        {"framework": "ISBS", "subspace": parity_spec(2)})),
    "subspace-does-not-fit": ("subspace", st.integers(3, 4).map(
        lambda n: {"subspace": computational_spec(n)})),
    "unitary-preset": ("unitary", _NOT_A_NAME.filter(
        lambda t: t not in ("alternating_hadamards", "all_hadamards")).map(
        lambda t: {"unitary": t})),
    "unitary-matrix": ("unitary", st.floats(1e-9, 1.0).map(
        lambda e: {"unitary": (1 + e) * np.eye(32)})),
}


@pytest.mark.parametrize("site", sorted(_ONE_BROKEN_FIELD))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_config_rejection_names_its_field(site, data):
    # The message starts with the field at fault; the spec checks name a
    # custom subspace, or else the fragment.
    field, fields = _ONE_BROKEN_FIELD[site]
    with pytest.raises(InvariantViolation) as raised:
        ProtocolConfig(**data.draw(fields))
    assert str(raised.value).startswith(f"field '{field}': ")


@st.composite
def _small_noisy_configs(draw):
    """Configs whose projected branch has at most 64 coin realizations."""
    cnot_model = draw(st.sampled_from(["ideal", "noisy_prep", "noisy_prep_parity"]))
    if cnot_model == "ideal":
        framework = draw(st.sampled_from(["SQD", "ISBS"]))
        mode = draw(st.sampled_from(["mix_global", "depolarize_local"]))
    else:  # noisy CNOTs exist in SQD only; local noise would add five coins
        framework, mode = "SQD", "mix_global"
    envs = ["E1", "E2"] if framework == "SQD" else ["E1", "E2", "E3", "E4"]
    max_size = 1 if cnot_model == "noisy_prep_parity" else len(envs)
    fragment = draw(st.lists(st.sampled_from(envs), min_size=1, max_size=max_size,
                             unique=True))
    # Interior strengths give every realization a nonzero weight, so a wrong
    # weight or coin rule shows; the 0/1 edges are pinned by test_golden.py.
    strength = st.floats(0.05, 0.95)
    noise = NoiseConfig(p=draw(strength), mode=mode, f=draw(strength))
    return ProtocolConfig(framework=framework, fragment=tuple(fragment), noise=noise,
                          cnot_model=cnot_model)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=_small_noisy_configs())
def test_exact_mode_is_the_expectation_of_the_realizations(config):
    # Each Monte Carlo realization fixes every noise coin; weighting the
    # realization pmfs by the coins' probabilities gives exact mode.
    ctx = _resolve_context(config)
    exact = witness_exact(config)
    p, gate_noise = config.noise.p, 1.0 - config.noise.f
    for apply_gamma, expected in ((False, exact.p_identity), (True, exact.p_gamma)):
        plan = coin_plan(config, ctx, apply_gamma)
        n_coins = plan.n_noise + plan.n_prep + plan.n_parity
        assert 2 ** n_coins <= 64
        total = np.zeros_like(expected)
        for coins in itertools.product((0, 1), repeat=n_coins):
            noise_bits = coins[:plan.n_noise]
            gate_bits = coins[plan.n_noise:]
            weight = np.prod([p if b else 1.0 - p for b in noise_bits]) * np.prod(
                [gate_noise if b else config.noise.f for b in gate_bits])
            pmf = realization_pmf(config, ctx, apply_gamma, noise_bits,
                                  gate_bits[:plan.n_prep], gate_bits[plan.n_prep:])
            total += weight * pmf[:-1]
        assert np.max(np.abs(total - expected)) < 1e-12


@st.composite
def _sampler_configs(draw):
    """Monte Carlo configs over both frameworks, every CNOT model, hardware
    discarding and explicit branch splits, at most 64 realizations a branch
    so the run-by-run oracle stays quick."""
    framework = draw(st.sampled_from(["SQD", "ISBS"]))
    if framework == "SQD":
        cnot_model = draw(st.sampled_from(["ideal", "noisy_prep", "noisy_prep_parity"]))
        envs, p_cnot = ["E1", "E2"], draw(st.sampled_from([1.0, 0.85, 0.6]))
    else:  # ISBS runs neither noisy CNOTs nor parity-check hardware
        cnot_model, envs, p_cnot = "ideal", ["E1", "E2", "E3", "E4"], 1.0
    max_size = 1 if cnot_model == "noisy_prep_parity" else len(envs)
    fragment = draw(st.lists(st.sampled_from(envs), min_size=1, max_size=max_size,
                             unique=True))
    mode = "mix_global" if cnot_model != "ideal" else draw(
        st.sampled_from(["mix_global", "depolarize_local"]))
    noise = NoiseConfig(p=draw(st.floats(0.05, 0.95)), f=draw(st.floats(0.05, 0.95)),
                        mode=mode, p_cnot=p_cnot)
    branch_shots = draw(st.none() | st.tuples(st.integers(100, 300), st.integers(100, 300)))
    shots = sum(branch_shots) if branch_shots else draw(st.integers(200, 600))
    return ProtocolConfig(framework=framework, fragment=tuple(fragment), noise=noise,
                          cnot_model=cnot_model, shots=shots,
                          seed=draw(st.integers(0, 2**31)), branch_shots=branch_shots)


_CHI2_LEVEL = 1e-3  # each pooled tally must reach this chi-squared p-value
_CHI2_SEEDS = 8     # seeds pooled per config


def _chi2_pvalue(observed, pmf):
    """Chi-squared p-value of ``observed`` counts against ``pmf``, with the
    bins whose expected count is below 5 merged into one (and that bin into
    the smallest other one while it stays below 5)."""
    expected = pmf / pmf.sum() * observed.sum()
    small = expected < 5
    obs = list(observed[~small]) + [observed[small].sum()]
    exp = list(expected[~small]) + [expected[small].sum()]
    if exp[-1] < 5 and len(exp) > 1:
        j = int(np.argmin(exp[:-1]))
        obs[j] += obs.pop()
        exp[j] += exp.pop()
    if len(exp) < 2:
        return 1.0  # one bin holds every run: nothing to test
    return float(scipy_stats.chisquare(obs, exp).pvalue)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config=_sampler_configs())
def test_sampler_and_run_by_run_oracle_draw_the_exact_pmf(config):
    # Pooled over seeds, the counts of witness_monte_carlo and of the
    # run-by-run oracle both fit the exact branch pmfs (null mass last).
    ctx = _resolve_context(config)
    exact = witness_exact(dataclasses.replace(config, shots=0, branch_shots=None))
    n_id, n_g = config.split_shots()
    pmfs = [np.append(exact.p_identity, 0.0),
            np.append(exact.p_gamma, max(1.0 - exact.p_gamma.sum(), 0.0))]
    sampled = [np.zeros_like(pmf) for pmf in pmfs]
    oracle = [np.zeros_like(pmf) for pmf in pmfs]
    caches = [{}, {}]
    for seed in range(config.seed, config.seed + _CHI2_SEEDS):
        run = dataclasses.replace(config, seed=seed)
        report = witness_monte_carlo(run)
        for tag, (wanted, p) in enumerate(((n_id, report.p_identity),
                                           (n_g, report.p_gamma))):
            counts = np.rint(p * wanted)
            sampled[tag] += np.append(counts, wanted - counts.sum())
            counts, null = reference_sample_branch(run, ctx, tag == 1, wanted, tag,
                                                   caches[tag])
            oracle[tag] += np.append(counts, null)
    for tag, pmf in enumerate(pmfs):
        assert sampled[tag].sum() == oracle[tag].sum() == _CHI2_SEEDS * (n_id, n_g)[tag]
        assert _chi2_pvalue(sampled[tag], pmf) >= _CHI2_LEVEL, ("sampler", tag)
        assert _chi2_pvalue(oracle[tag], pmf) >= _CHI2_LEVEL, ("oracle", tag)


def _spy_on_rng(monkeypatch, method, record):
    """Make every generator the sampler seeds call ``record(args, kwargs,
    result)`` after each call of its ``method``."""
    real = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self._rng = real(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def spied(self, *args, **kwargs):
        result = getattr(self._rng, method)(*args, **kwargs)
        record(args, kwargs, result)
        return result

    setattr(Spy, method, spied)
    monkeypatch.setattr(np.random, "default_rng", Spy)


@pytest.mark.parametrize("config", [
    ProtocolConfig(framework="SQD", fragment=("E1", "E2"),
                   noise=NoiseConfig(p=0.3, mode="depolarize_local"), shots=600),
    ProtocolConfig(framework="ISBS", fragment=("E1", "E2", "E3"),
                   noise=NoiseConfig(p=0.45), shots=600),
    ProtocolConfig(framework="SQD", fragment=("E1",), cnot_model="noisy_prep_parity",
                   noise=NoiseConfig(p=0.2, f=0.8, p_cnot=0.9), shots=600),
], ids=["sqd", "isbs", "noisy_prep_parity"])
def test_monte_carlo_branches_draw_from_the_exact_pmfs(monkeypatch, config):
    # Each branch's multinomial draw takes, bit for bit, the pmf exact mode
    # reports for the same config, with the null mass appended.  These pmfs
    # sum to at most 1, so the sampler's normalization divides by 1.
    drawn = []

    def record(args, kwargs, _):
        if "size" not in kwargs:  # the bootstrap resamples in batches
            drawn.append(np.array(args[1]))

    _spy_on_rng(monkeypatch, "multinomial", record)
    witness_monte_carlo(config)
    exact = witness_exact(dataclasses.replace(config, shots=0))
    assert len(drawn) == 2
    for pvals, pmf in zip(drawn, (exact.p_identity, exact.p_gamma)):
        assert np.array_equal(pvals[:-1], pmf)


def _spy_on_gaps(monkeypatch):
    """Record the failure gaps the sampler draws: each geometric draw minus 1."""
    gaps = []
    _spy_on_rng(monkeypatch, "geometric",
                lambda args, kwargs, draws: gaps.append(draws - 1))
    return gaps


def test_sampler_aborts_iff_a_drawn_gap_reaches_the_window(monkeypatch, tmp_path, capsys):
    def set_window(attempts):
        monkeypatch.setattr(protocol, "TOL",
                            dataclasses.replace(TOL, mc_abort_window=attempts))

    # Hardware success 0.47^4 ~ 0.05 and a window of 30 discards: about a
    # fifth of the gaps reach the window, so seeds abort and seeds succeed.
    window = 30
    set_window(window)
    gaps = _spy_on_gaps(monkeypatch)
    config = ProtocolConfig(framework="SQD", fragment=("E1", "E2"),
                            noise=NoiseConfig(p=0.3, p_cnot=0.47), shots=10)
    outcomes = []
    for seed in range(40):
        gaps.clear()
        try:
            witness_monte_carlo(dataclasses.replace(config, seed=seed))
            aborted = False
        except NonterminatingSampling as exc:
            aborted = True
            assert f"no successful run in {window} attempts" in str(exc)
        assert len(gaps) == 1 and len(gaps[0]) == 5  # the projected branch's runs
        assert aborted == bool(gaps[0].max() >= window)
        outcomes.append(aborted)
    assert any(outcomes) and not all(outcomes)

    path = tmp_path / "abort.json"
    path.write_text(json.dumps({"framework": "SQD", "fragment": ["E1", "E2"],
                                "noise": {"p": 0.3, "p_cnot": 0.47}, "shots": 10,
                                "seed": outcomes.index(True)}))
    capsys.readouterr()
    assert main(["witness", "--config", str(path)]) == 4
    assert f"no successful run in {window} attempts" in capsys.readouterr().err

    # At the boundary: a window equal to the largest drawn gap aborts, one
    # more attempt lets the run complete.
    for seed in range(5):
        run = dataclasses.replace(config, seed=seed)
        set_window(10**9)
        gaps.clear()
        witness_monte_carlo(run)
        largest = int(gaps[0].max())
        set_window(largest)
        with pytest.raises(NonterminatingSampling):
            witness_monte_carlo(run)
        set_window(largest + 1)
        witness_monte_carlo(run)

    # A success probability p_cnot^4 that underflows to 0 aborts as well.
    with pytest.raises(NonterminatingSampling):
        witness_monte_carlo(dataclasses.replace(config, noise=NoiseConfig(p_cnot=1e-100)))

    # Without hardware discarding no gap is drawn, even with a window of one.
    set_window(1)
    gaps.clear()
    report = witness_monte_carlo(dataclasses.replace(
        config, noise=NoiseConfig(p=0.3), shots=4000))
    assert report.successful_runs == 4000 and gaps == []


def test_sampler_draws_the_gaps_in_chunks_that_give_one_draw(monkeypatch):
    # Generator.geometric drawn in pieces gives the gaps of one draw, so
    # chunking changes no report and no abort decision.
    gaps = _spy_on_gaps(monkeypatch)
    default = protocol._GAP_CHUNK
    config = ProtocolConfig(framework="SQD", fragment=("E1",), cnot_model="noisy_prep_parity",
                            noise=NoiseConfig(p=0.2, f=0.8, p_cnot=0.9), shots=600)
    whole = witness_monte_carlo(config)
    (drawn,) = gaps
    monkeypatch.setattr(protocol, "_GAP_CHUNK", 7)
    gaps.clear()
    assert witness_monte_carlo(config).to_dict() == whole.to_dict()
    assert [len(chunk) for chunk in gaps[:-1]] == [7] * (len(gaps) - 1)
    assert len(gaps) == -(-len(drawn) // 7)
    assert np.array_equal(np.concatenate(gaps), drawn)

    # The draw stops at the first chunk with a gap that reaches the window,
    # here the fifth chunk of 7, with the message of one draw.  An
    # underflowed success probability aborts in the first chunk.
    monkeypatch.setattr(protocol, "TOL", dataclasses.replace(TOL, mc_abort_window=60))
    aborting = ProtocolConfig(framework="SQD", fragment=("E1", "E2"), seed=0,
                              noise=NoiseConfig(p=0.3, p_cnot=0.47), shots=200)
    underflowing = dataclasses.replace(aborting, noise=NoiseConfig(p_cnot=1e-100))

    def abort(run, chunk):
        monkeypatch.setattr(protocol, "_GAP_CHUNK", chunk)
        gaps.clear()
        with pytest.raises(NonterminatingSampling) as raised:
            witness_monte_carlo(run)
        return str(raised.value)

    message = abort(aborting, default)
    (drawn,) = gaps
    assert abort(aborting, 7) == message
    assert [bool(chunk.max() >= 60) for chunk in gaps] == [False] * 4 + [True]
    assert np.array_equal(np.concatenate(gaps), drawn[:7 * 4 + len(gaps[-1])])
    message = abort(underflowing, default)
    assert abort(underflowing, 7) == message and len(gaps) == 1


def test_run_witness_dispatch():
    assert run_witness(ProtocolConfig(framework="SQD", fragment=("E1",))).mode == "exact"
    assert run_witness(ProtocolConfig(
        framework="SQD", fragment=("E1",), shots=100, seed=1)).mode == "monte_carlo"


# ---------------------------------------------------------------------------
# run_witnesses
# ---------------------------------------------------------------------------

# One shared object per (framework, fragment), so configs can share contexts.
_REPLACEMENTS = {
    ("SQD", ("E1",)): DensityOperator(qubits("E2_1", "E2_2"), np.diag([0.4, 0.3, 0.2, 0.1])),
    ("SQD", ("E2",)): PureState(qubits("E1_1", "E1_2"), [0.5, 0.5, 0.5, 0.5]),
    ("ISBS", ("E1", "E2", "E3")): DensityOperator(qubits("E4"), [[0.7, 0.2], [0.2, 0.3]]),
}


_FRAGMENTS = {"SQD": [("E1",), ("E2",), ("E1", "E2")],
              "ISBS": [("E1",), ("E1", "E2", "E3"), ("E1", "E2", "E3", "E4")]}


@st.composite
def _config_lists(draw):
    """Config lists that repeat preparations and contexts: each list draws
    its noise from a pool of one or two, over both frameworks and noise
    modes, every CNOT model, shared replacements, two unitary presets, and
    exact and Monte Carlo shots."""
    noises = draw(st.lists(st.builds(
        NoiseConfig, p=st.sampled_from([0.3, 0.7]),
        mode=st.sampled_from(["mix_global", "depolarize_local"]),
        f=st.sampled_from([0.8, 0.9]), p_cnot=st.sampled_from([1.0, 0.8])),
        min_size=1, max_size=2))
    configs = []
    for _ in range(draw(st.integers(2, 8))):
        framework = draw(st.sampled_from(["SQD", "ISBS"]))
        sqd = framework == "SQD"
        fragment = draw(st.sampled_from(_FRAGMENTS[framework]))
        noise = draw(st.sampled_from(noises))
        replacement = _REPLACEMENTS.get((framework, fragment))
        configs.append(ProtocolConfig(
            framework=framework, fragment=fragment,
            noise=noise if sqd else dataclasses.replace(noise, p_cnot=1.0),
            cnot_model=draw(st.sampled_from(
                ["ideal", "noisy_prep", "noisy_prep_parity"] if sqd else ["ideal"])),
            replacement=replacement if draw(st.booleans()) else None,
            unitary=draw(st.sampled_from([None, "all_hadamards"])),
            shots=draw(st.sampled_from([0, 0, 300, 1001])), seed=draw(st.integers(0, 3))))
    return configs


@settings(max_examples=50, deadline=None, derandomize=True)
@given(configs=_config_lists())
def test_run_witnesses_equals_one_call_per_config(configs):
    assert run_witnesses(configs) == [run_witness(config) for config in configs]


# (keep, noise) weights of one row: the 0/1 shortcuts and fractional mixtures.
_WEIGHT_PAIRS = st.one_of(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
                          st.floats(0.0, 1.0).map(lambda p: (1.0 - p, p)))
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(framework=st.sampled_from(["SQD", "ISBS"]),
       weights=st.lists(_WEIGHT_PAIRS, min_size=1, max_size=4), data=st.data())
def test_stacked_stages_equal_each_matrix_alone(framework, weights, data):
    # Every array stage returns, for each matrix of a stack, the bytes it
    # returns for that matrix alone, with that row's weights.
    experiment = protocol._EXPERIMENTS[framework]
    layout, spec = experiment.layout, experiment.spec
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    stack = np.stack([random_density(layout, rng, rank=data.draw(st.sampled_from([1, 3, None])))
                      .matrix for _ in weights])
    labels = data.draw(st.lists(st.sampled_from(layout.labels), min_size=1, unique=True))
    replacement = random_density(layout.subset(labels), rng).matrix
    order = data.draw(st.permutations(layout.labels))
    fragment = spec.select(data.draw(st.lists(st.sampled_from(spec.environment_names),
                                              min_size=1, unique=True)))
    projectors = embedded_projectors(spec, fragment, layout)
    stages = {
        "trace_out": lambda m, keep, noise: trace_out(m, layout, set(labels)),
        "replace_subsystems": lambda m, keep, noise: replace_subsystems(
            m, layout, labels, replacement),
        "depolarize_stack": lambda m, keep, noise: depolarize_stack(
            m, layout, labels, keep, noise),
        "project": lambda m, keep, noise: project(m, projectors),
        "permute_subsystems": lambda m, keep, noise: permute_subsystems(m, layout, order),
        "eigvals_hermitian": lambda m, keep, noise: eigvals_hermitian(m),
    }
    keep, noise = (np.array(column) for column in zip(*weights))
    for name, stage in stages.items():
        stacked = stage(stack, keep, noise)
        for row, (k, n) in enumerate(weights):
            assert stacked[row].tobytes() == stage(stack[row], k, n).tobytes(), name


@st.composite
def _prepared_groups(draw):
    """A preparation group over p values with the 0/1 edges, and the
    (CNOT model, f) pair its stack branches with."""
    framework = draw(st.sampled_from(["SQD", "ISBS"]))
    sqd = framework == "SQD"
    models = st.sampled_from(["ideal", "noisy_prep", "noisy_prep_parity"] if sqd else ["ideal"])
    ps = draw(st.lists(_UNIT, min_size=1, max_size=4))
    fragment = draw(st.sampled_from(_FRAGMENTS[framework]))
    return (framework, draw(models), draw(_UNIT),
            draw(st.sampled_from(["mix_global", "depolarize_local"])), ps,
            draw(st.tuples(models, _UNIT)), fragment)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(group=_prepared_groups())
def test_prepare_and_branch_stacks_equal_each_row_alone(group):
    # The pipeline's stages on a stack give each row the bytes of a stack of
    # one: prepared states at p = 0, 1 and between, and both branches at
    # scramble weights 0, 1 and between.
    framework, cnot_model, f, mode, ps, model, fragment = group
    stack = protocol._prepare(framework, cnot_model, f, mode, ps)
    for row, p in enumerate(ps):
        alone = protocol._prepare(framework, cnot_model, f, mode, [p])
        assert stack[row].tobytes() == alone[0].tobytes()
    ctx = _resolve_context(ProtocolConfig(framework=framework, fragment=fragment))
    stacked = protocol._branch(stack, ctx, *model)
    for row in range(len(ps)):
        alone = protocol._branch(stack[row:row + 1], ctx, *model)
        for branch in (0, 1):
            assert stacked[branch][row].tobytes() == alone[branch][0].tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(framework=st.sampled_from(["SQD", "ISBS"]), pick=st.integers(0, 2),
       p=st.sampled_from([0.0, 0.1]) | _UNIT,
       scale=st.sampled_from([0.5, 0.99, 1.01, 3.0]) | st.floats(0.25, 4.0),
       direction=st.sampled_from(["state", 0, 1]))
def test_near_unitaries_at_the_bound_are_rejected_or_run(framework, pick, p, scale, direction):
    # U = U0 (I + s A), U0 the default unitary, with A Hermitian and s set so
    # that U's deviation is ``scale`` times TOL.unitarity.  A is the prepared
    # state itself, which adds the most trace, or a random Hermitian matrix.
    # Such a U is rejected as not unitary, or the witness runs and U keeps the
    # prepared state's trace within the density check.
    fragment = _FRAGMENTS[framework][pick]
    noise = NoiseConfig(p=p)
    rho = (prepare_initial_sqd if framework == "SQD" else prepare_initial_isbs)(noise)
    if direction == "state":
        a = rho.matrix
    else:
        g = np.random.default_rng(direction).normal(size=(2, 32, 32))
        a = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
    s = scale * TOL.unitarity / (2 * np.max(np.sum(np.abs(a), axis=1)))
    u0 = _resolve_context(ProtocolConfig(framework=framework, fragment=fragment)).unitary
    u = u0 @ (np.eye(32) + s * a)
    try:
        config = ProtocolConfig(framework=framework, fragment=fragment, noise=noise, unitary=u)
    except InvariantViolation as exc:
        assert "matrix is not unitary" in str(exc)
        return
    run_witness(config)
    require_density(apply_gate(rho, u, rho.layout.labels).matrix)


def test_stacked_pass_gives_each_context_its_own_rows_of_a_preparation_group():
    # One preparation group, rows p = 0.3 and 0.7.  E1 takes both in order,
    # E2 the second only and E1+E2 both in reverse order, so each context
    # branches a stack of its own p values.  run_witnesses runs each config
    # once, so a wrong row shows in its report.
    configs = tuple(ProtocolConfig(fragment=fragment, noise=NoiseConfig(p=p))
                    for fragment, p in [(("E1",), 0.3), (("E1",), 0.7), (("E2",), 0.7),
                                        (("E1", "E2"), 0.7), (("E1", "E2"), 0.3)])
    assert run_witnesses(configs) == [run_witness(config) for config in configs]


def test_stacked_pass_branches_one_prepared_stack_per_context_and_group(monkeypatch):
    # SQD E1 spans two preparation groups, the ideal model and
    # noisy_prep_parity at f = 0.8, with interleaved p values; E2 takes the
    # ideal group's p values in the same order, so it shares that stack.
    configs = tuple(
        ProtocolConfig(fragment=fragment, cnot_model=model,
                       noise=NoiseConfig(p=p, f=1.0 if model == "ideal" else 0.8))
        for fragment, model, p in [
            (("E1",), "ideal", 0.1), (("E1",), "noisy_prep_parity", 0.2),
            (("E1",), "ideal", 0.3), (("E1",), "noisy_prep_parity", 0.1),
            (("E2",), "ideal", 0.1), (("E2",), "ideal", 0.3), (("E1",), "ideal", 0.1)])
    expected = [run_witness(config) for config in configs]
    prepared, branched = [], []
    prepare, branch = protocol._prepare, protocol._branch

    def spied_prepare(*args):
        prepared.append((args, prepare(*args)))
        return prepared[-1][1]

    def spied_branch(rho, *args):
        branched.append(rho)
        return branch(rho, *args)

    monkeypatch.setattr(protocol, "_prepare", spied_prepare)
    monkeypatch.setattr(protocol, "_branch", spied_branch)
    assert run_witnesses(configs) == expected
    # One _prepare per distinct (group, p tuple), one _branch per (context,
    # group), and every branched stack is a prepared one, not a copy.
    assert [args for args, _ in prepared] == [
        ("SQD", "ideal", 1.0, "mix_global", (0.1, 0.3)),
        ("SQD", "noisy_prep_parity", 0.8, "mix_global", (0.2, 0.1))]
    assert len(branched) == 3
    assert all(any(rho is stack for _, stack in prepared) for rho in branched)


def test_run_witnesses_raises_the_first_error_of_one_call_per_config(monkeypatch):
    # One config aborts in sampling; the other, on another context, fails its
    # exit check.  Whichever comes first raises, as in one call per config,
    # and the second config's stack is never built.
    aborting = ProtocolConfig(framework="SQD", fragment=("E1",),
                              noise=NoiseConfig(p_cnot=0.001), shots=50, seed=2)
    failing = ProtocolConfig(framework="SQD", fragment=("E2",), noise=NoiseConfig(p=0.2))
    intact, broken = protocol.replace_subsystems, _broken(protocol.replace_subsystems)
    broken_calls = []

    def replace(matrices, layout, discard, replacement):  # breaks fragment E2 only
        if discard[0] == "E1_1":
            broken_calls.append(discard)
            return broken(matrices, layout, discard, replacement)
        return intact(matrices, layout, discard, replacement)

    monkeypatch.setattr(protocol, "replace_subsystems", replace)
    with pytest.raises(InvariantViolation, match="negative eigenvalue"):
        run_witnesses([failing, aborting])
    with pytest.raises(InvariantViolation, match="negative eigenvalue"):
        run_witness(failing)
    broken_calls.clear()
    with pytest.raises(NonterminatingSampling):
        run_witnesses([aborting, failing])
    assert broken_calls == []


def test_run_witnesses_branches_each_stack_once_when_a_later_config_aborts(monkeypatch):
    # Two contexts: E1 runs, then E2 aborts in sampling.  Each stack is
    # branched once, and the abort raises without running E1 again.
    ok = ProtocolConfig(framework="SQD", fragment=("E1",), noise=NoiseConfig(p=0.2))
    aborting = ProtocolConfig(framework="SQD", fragment=("E2",),
                              noise=NoiseConfig(p_cnot=0.001), shots=50, seed=2)
    branched = []
    branch = protocol._branch

    def spied_branch(rho, ctx, *args):
        branched.append(ctx.fragment)
        return branch(rho, ctx, *args)

    monkeypatch.setattr(protocol, "_branch", spied_branch)
    with pytest.raises(NonterminatingSampling):
        run_witnesses([ok, aborting])
    assert branched == [("E1",), ("E2",)]


@pytest.mark.parametrize("name, n_p, n_fragments", [
    ("sweep_sqd_exact", 11, 2), ("sweep_isbs_exact", 11, 4)])
def test_sweep_prepares_each_p_and_resolves_each_fragment_once(
        name, n_p, n_fragments, monkeypatch, capsys):
    calls = collections.Counter()
    prepared, checked, branched = [], [], []

    def spy(owner, fn_name, record=lambda args, out: None):
        fn = getattr(owner, fn_name)

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[fn_name] += 1
            record(args, out)
            return out
        monkeypatch.setattr(owner, fn_name, counted)

    spy(protocol, "_prepare", lambda args, out: prepared.append(out))
    spy(protocol, "_resolve_context")
    spy(protocol, "require_density", lambda args, out: checked.append(len(args[0])))
    spy(protocol, "_branch", lambda args, out: branched.append(args[0]))
    spy(np.linalg, "cholesky")
    spy(np.linalg, "eigvalsh")
    config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    assert main(["sweep", "--config", str(config)]) == 0
    # One prepared row per p and one context per fragment; one entry check
    # over the prepared rows, and one exit check per fragment over both
    # branches of its points, so every row is checked exactly once.
    assert [len(stack) for stack in prepared] == [n_p]
    assert calls["_resolve_context"] == n_fragments
    assert checked == [n_p] + [n_p] * 2 * n_fragments
    # Each check factors its stack once and takes no spectrum; the measure
    # takes one spectrum per fragment.  Every fragment branches the prepared
    # stack itself, which is read-only, so no stage writes into it.
    assert (calls["cholesky"], calls["eigvalsh"]) == (1 + 2 * n_fragments, n_fragments)
    assert len(branched) == n_fragments and all(rho is prepared[0] for rho in branched)
    assert not prepared[0].flags.writeable


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_cost_model_reference_point():
    result = cost_model(1, 1000, 0.5)
    assert result.tomography_runs == 27000
    assert result.witness_runs == 5000.0
    assert result.witness_wins


def test_cost_model_break_even_scaling():
    # Above 1/3 the witness wins for every environment count; below it the
    # advantage eventually flips as environments are added.
    for m in (1, 3, 6, 10, 15):
        assert cost_model(m, 100, 1 / 3 + 0.01).witness_wins
    assert cost_model(12, 100, 1 / 3 - 0.02).witness_wins is False
    assert cost_model(30, 100, 0.25).witness_wins is False


def test_cost_model_crossover_with_fidelity():
    result = cost_model(2, 1000, 0.5, f_cnot=0.79)
    assert 0.41 <= result.crossover_p <= 0.43


def test_cost_model_validation():
    with pytest.raises(InvariantViolation):
        cost_model(0, 100, 0.5)
    with pytest.raises(InvariantViolation):
        cost_model(1, 100, 0.0)
