"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as derived are computed by independent oracles
inside this module (raw-numpy projector construction, explicit brute-force
sums, binomial error bounds), never by the code paths under test.
"""

import itertools
import time

import numpy as np
import pytest

from qdarwin import (
    CNOT,
    NoiseConfig,
    ProtocolConfig,
    average_gate_fidelity,
    cost_model,
    embed_operator,
    mix_with_noise,
    nonobjectivity_measure,
    partial_trace,
    prepare_initial_sqd,
    run_branch,
    sqd_layout,
    verify_equal_dimension_reduction,
    witness_exact,
    witness_monte_carlo,
)
from qdarwin.protocol import _marginalize_to_sf, _max_subset, _resolve_context

from conftest import qubits, random_density, random_subspace_spec, random_unitary

_SF = ("S", "E1_1", "E1_2")  # the system and fragment E1 on the SQD register


class Budget:
    """Assert the criterion's runtime budget on exit."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n{self.name}: PASS ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget"
        else:
            print(f"\n{self.name}: FAIL after {elapsed:.2f}s")
        return False


# Raw-numpy parity projectors for the independent oracles (system first, then
# the two photons of one environment; computational ordering 00,01,10,11).
_EVEN = np.diag([1.0, 0, 0, 1.0])
_ODD = np.diag([0, 1.0, 1.0, 0])
_ORACLE_P0 = np.kron(np.diag([1.0, 0.0]), _EVEN)
_ORACLE_P1 = np.kron(np.diag([0.0, 1.0]), _ODD)


def _oracle_residual_norm(rho_sf_matrix: np.ndarray) -> float:
    """Independent measure evaluation: project with raw kron-built operators
    and eigendecompose the residual directly."""
    projected = (_ORACLE_P0 @ rho_sf_matrix @ _ORACLE_P0
                 + _ORACLE_P1 @ rho_sf_matrix @ _ORACLE_P1)
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho_sf_matrix - projected))))


def test_criterion_1_objective_fixed_point():
    with Budget("criterion 1 (objective fixed point)", 1.0):
        report = witness_exact(ProtocolConfig(framework="SQD", fragment=("E1",)))
        assert abs(report.measure) < 1e-10
        assert abs(report.witness_max_subset) < 1e-10


def test_criterion_2_closed_form_noise_law():
    with Budget("criterion 2 (measure = p/2 law)", 5.0):
        base = prepare_initial_sqd(NoiseConfig())
        for k in range(21):
            p = 0.05 * k
            rho = mix_with_noise(base, p)
            rho_sf = partial_trace(rho, {"S", "E1_1", "E1_2"})
            oracle = _oracle_residual_norm(rho_sf.matrix)
            assert abs(oracle - p / 2) < 1e-9
            report = witness_exact(ProtocolConfig(
                framework="SQD", fragment=("E1",), noise=NoiseConfig(p=p)))
            assert abs(report.measure - p / 2) < 1e-9
            assert abs(report.measure - oracle) < 1e-9


def test_criterion_3_full_fragment_nonobjectivity():
    with Budget("criterion 3 (full-fragment measure 1)", 1.0):
        report = witness_exact(ProtocolConfig(framework="SQD", fragment=("E1", "E2")))
        assert abs(report.measure - 1.0) < 1e-9
        assert report.witness_max_subset < report.measure


def test_criterion_4_witness_bounded_by_measure(rng):
    with Budget("criterion 4 (lower-bound property)", 60.0):
        violations = 0
        lay = sqd_layout()
        for k in range(200):
            if k % 2 == 0:  # a spec of E1 alone and a unitary on S and E1
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
            v_id = _marginalize_to_sf(
                run_branch(rho, config, False), lay, ctx.sf_labels)
            v_g = _marginalize_to_sf(
                run_branch(rho, config, True), lay, ctx.sf_labels)
            diffs = v_id - v_g
            measure = nonobjectivity_measure(
                partial_trace(rho, set(ctx.sf_labels)), spec)
            subset = rng.random(diffs.shape) < 0.5
            if _max_subset(diffs) > measure + 1e-9:
                violations += 1
            if abs(float(diffs[subset].sum())) > measure + 1e-9:
                violations += 1
        assert violations == 0


def test_criterion_5_subset_maximization_formula(rng):
    with Budget("criterion 5 (subset formula vs brute force)", 30.0):
        lay = sqd_layout()
        for _ in range(50):  # 2^8 subsets of the outcomes of S and E1
            spec = random_subspace_spec(rng, {"E1": ("E1_1", "E1_2")})
            config = ProtocolConfig(
                framework="SQD", fragment=("E1",), subspace=spec,
                unitary=embed_operator(lay, random_unitary(8, rng), _SF))
            rho = random_density(lay, rng)
            v_id, v_g = (_marginalize_to_sf(run_branch(rho, config, gamma), lay, _SF)
                         for gamma in (False, True))
            diffs = v_id - v_g
            brute = 0.0
            for mask in range(1, 2 ** diffs.size):
                chosen = np.array(
                    [(mask >> k) & 1 for k in range(diffs.size)], bool)
                brute = max(brute, abs(float(diffs[chosen].sum())))
            assert brute == _max_subset(diffs)


def test_criterion_6_average_gate_fidelity():
    with Budget("criterion 6 (gate fidelity formula)", 1.0):
        value = average_gate_fidelity(0.733)
        assert abs(value - 0.79) < 0.0005
        # Brute-force unitary-basis sum with the literal gate-output formula
        # f CNOT U CNOT^dag + (1-f) I/4 evaluated on each basis element.
        paulis = [np.eye(2, dtype=complex),
                  np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]], dtype=complex),
                  np.array([[1, 0], [0, -1]], dtype=complex)]
        d = 4
        total = 0.0 + 0.0j
        for a, b in itertools.product(range(4), repeat=2):
            u_j = np.kron(paulis[a], paulis[b])
            out = 0.733 * (CNOT @ u_j @ CNOT.conj().T) + (1 - 0.733) * np.eye(4) / d
            total += np.trace(CNOT @ u_j.conj().T @ CNOT.conj().T @ out)
        brute = float((total.real + d ** 2) / (d ** 2 * (d + 1)))
        assert abs(value - brute) < 1e-12


def test_criterion_7_cost_model():
    with Budget("criterion 7 (cost model)", 1.0):
        for c in (1, 1000, 31415):
            result = cost_model(1, c, 0.5)
            assert result.witness_runs / result.tomography_runs == pytest.approx(5 / 27)
        crossover = cost_model(1, 1000, 0.5, f_cnot=0.79).crossover_p
        assert 0.41 <= crossover <= 0.43


def test_criterion_8_monte_carlo_consistency():
    with Budget("criterion 8 (Monte Carlo consistency)", 120.0):
        noise = NoiseConfig(p=0.4)
        exact = witness_exact(ProtocolConfig(
            framework="SQD", fragment=("E1",), noise=noise))
        config = ProtocolConfig(framework="SQD", fragment=("E1",), noise=noise,
                                shots=6000, seed=20240817)
        mc = witness_monte_carlo(config)
        n_branch = 3000
        within = 0
        checked = 0
        for est, truth in ((mc.p_identity, exact.p_identity),
                           (mc.p_gamma, exact.p_gamma)):
            for e, t in zip(est, truth):
                se = np.sqrt(max(t * (1 - t), 0.0) / n_branch)
                checked += 1
                if abs(e - t) <= 4 * se:
                    within += 1
        assert within / checked >= 0.95
        assert (abs(mc.witness_max_subset - exact.witness_max_subset)
                <= 4 * mc.stderr_max_subset)
        again = witness_monte_carlo(config)
        assert again == mc
        assert again.to_dict() == mc.to_dict()


def test_criterion_9_equal_dimension_reduction(rng):
    with Budget("criterion 9 (equal-dimension reduction)", 30.0):
        for _ in range(100):
            n_envs = int(rng.integers(2, 4))
            labels = ["S"] + [f"E{k}" for k in range(1, n_envs + 1)]
            lay = qubits(*labels)
            p = float(rng.uniform(0.05, 0.95))
            bases = [random_unitary(2, rng) for _ in range(n_envs)]
            m = np.zeros((lay.total_dim,) * 2, complex)
            for i, weight in enumerate((p, 1 - p)):
                ket = np.zeros(2, complex)
                ket[i] = 1.0
                for basis in bases:
                    ket = np.kron(ket, basis[:, i])
                m += weight * np.outer(ket, ket.conj())
            from qdarwin import DensityOperator
            rho = DensityOperator(lay, m)
            assert verify_equal_dimension_reduction(rho)
        # A non-pure conditional block on a qubit environment cannot satisfy
        # the orthogonality requirement, so such constructions always fail.
        from qdarwin import DensityOperator, ObjectiveSubspaceSpec, check_structure
        lay = qubits("S", "E1")
        spec = ObjectiveSubspaceSpec(
            "S", np.eye(2), {"E1": ("E1",)},
            {"E1": (np.diag([1.0, 0]), np.diag([0, 1.0]))})
        for _ in range(20):
            w = float(rng.uniform(0.05, 0.45))
            mixed_block = np.diag([w, 0.5 - w]).astype(complex)
            other = random_density(qubits("E1"), rng).matrix * 0.5
            m = np.zeros((4, 4), complex)
            m[:2, :2] = mixed_block
            m[2:, 2:] = other
            rho = DensityOperator(lay, m)
            overlap = float(np.sum(np.linalg.svd(
                (mixed_block / 0.5) @ (other / 0.5), compute_uv=False)))
            assert overlap > 1e-8  # orthogonality is impossible
            assert not check_structure(rho, spec, ["E1"]).bipartite_sbs
            assert not verify_equal_dimension_reduction(rho)


def test_criterion_10_isbs_endpoint_and_shape():
    with Budget("criterion 10 (ISBS endpoint and sweep shape)", 10.0):
        fragment = ("E1", "E2", "E3", "E4")
        report = witness_exact(ProtocolConfig(framework="ISBS", fragment=fragment))
        assert abs(report.measure - 1.0) < 1e-9
        measures = []
        for k in range(11):
            p = 0.1 * k
            rep = witness_exact(ProtocolConfig(
                framework="ISBS", fragment=fragment, noise=NoiseConfig(p=p)))
            measures.append(rep.measure)
            assert rep.witness_max_subset <= rep.measure + 1e-9
        assert all(measures[k] >= measures[k + 1] - 1e-9 for k in range(10))
