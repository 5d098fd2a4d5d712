"""Entropy, mutual information, discord, Holevo, and structure checkers."""

import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize
from scipy.special import entr

from qdarwin import (
    DensityOperator,
    InvariantViolation,
    NoiseConfig,
    ObjectiveSubspaceSpec,
    PureState,
    TensorLayout,
    check_structure,
    computational_spec,
    correlation_report,
    maximally_mixed,
    mutual_information,
    parity_spec,
    partial_trace,
    prepare_initial_isbs,
    prepare_initial_sqd,
    quantum_discord,
    verify_equal_dimension_reduction,
    von_neumann_entropy,
)

from qdarwin import info
from qdarwin.info import (
    _DISCORD_GRID_PHI,
    _DISCORD_GRID_THETA,
    _conditional_entropy_batch,
    _grid_seed_angles,
    _outcome_blocks,
    _structural_checks,
    _system_first,
)
from qdarwin.serialize import load_state
from qdarwin.tolerances import TOL

from conftest import qubits, random_density, random_unitary

REPO_ROOT = Path(__file__).resolve().parent.parent


def bell():
    return PureState(qubits("S", "E"), np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()


def classically_correlated():
    return DensityOperator(qubits("S", "E"), np.diag([0.5, 0, 0, 0.5]).astype(complex))


def branching_state():
    return prepare_initial_sqd(NoiseConfig())


# ---------------------------------------------------------------------------
# Entropy and mutual information
# ---------------------------------------------------------------------------

def test_entropy_examples(rng):
    lay = qubits("A", "B")
    pure = random_density(lay, rng, rank=1)
    assert abs(von_neumann_entropy(pure)) < 1e-9
    assert abs(von_neumann_entropy(maximally_mixed(qubits("A"))) - 1.0) < 1e-12
    spectrum = DensityOperator(TensorLayout([("A", 4)]),
                               np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
    assert abs(von_neumann_entropy(spectrum) - 1.5) < 1e-12


def test_entropy_rejects_subnormalized():
    lay = qubits("A")
    sub = DensityOperator(lay, np.diag([0.5, 0.0]).astype(complex))
    with pytest.raises(InvariantViolation):
        von_neumann_entropy(sub)


def test_mutual_information_examples(rng):
    prod = DensityOperator(
        qubits("S", "E"),
        np.kron(random_density(qubits("S"), rng).matrix,
                random_density(qubits("E"), rng).matrix),
    )
    assert abs(mutual_information(prod, {"S"}, {"E"})) < 1e-9
    assert abs(mutual_information(bell(), {"S"}, {"E"}) - 2.0) < 1e-9
    assert abs(mutual_information(classically_correlated(), {"S"}, {"E"}) - 1.0) < 1e-9


def test_mutual_information_rejects_overlap():
    with pytest.raises(InvariantViolation):
        mutual_information(bell(), {"S", "E"}, {"E"})


# ---------------------------------------------------------------------------
# Discord and Holevo
# ---------------------------------------------------------------------------

def _grid_discord_oracle(rho: DensityOperator, n_theta: int, n_phi: int) -> float:
    """Dense-grid evaluation of the measured conditional entropy objective,
    written independently of the library search."""
    lay = rho.layout
    d_s = lay.dims[0]
    d_e = lay.total_dim // d_s
    rho4 = rho.matrix.reshape(d_s, d_e, d_s, d_e)
    h_s = von_neumann_entropy(partial_trace(rho, {lay.labels[0]}))
    h_se = von_neumann_entropy(rho)

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    c, s = np.cos(tt / 2), np.sin(tt / 2)
    phase = np.exp(1j * pp)
    # Row (a, c) holds the E block <a|rho|c>, so one product with the
    # coefficients conj(k_a) k_c gives every conditional state <k|rho|k>.
    # Grid points run along the last axis: BLAS runs (d_E^2, 4) @ (4, g)
    # several times faster than the (g, 4) @ (4, d_E^2) form.
    blocks = rho4.transpose(0, 2, 1, 3).reshape(d_s * d_s, d_e * d_e)
    total = np.zeros(tt.shape)
    for kets in (np.stack([c, phase * s]), np.stack([s, -phase * c])):
        coef = (kets.conj()[:, None, :] * kets[None, :, :]).reshape(d_s * d_s, -1)
        cond = (blocks.T @ coef).reshape(d_e, d_e, -1)
        p = np.einsum("bbg->g", cond).real
        if d_e == 2:
            # Closed-form 2x2 Hermitian eigenvalues.
            mean = 0.5 * (cond[0, 0].real + cond[1, 1].real)
            radius = np.sqrt((0.5 * (cond[0, 0].real - cond[1, 1].real)) ** 2
                             + np.abs(cond[0, 1]) ** 2)
            eigs = np.stack([mean - radius, mean + radius])
        else:
            cond = np.moveaxis(cond, 2, 0)
            eigs = np.linalg.eigvalsh(0.5 * (cond + np.conj(np.swapaxes(cond, 1, 2)))).T
        lam = np.clip(eigs, 0.0, None)
        # p H(lam / p) = sum entr(lam) - entr(p), in nats.
        total += (entr(lam).sum(axis=0) - entr(np.clip(p, 0.0, None))) / np.log(2.0)
    best = float(np.min(total))
    return max(0.0, best + h_s - h_se)


def test_discord_product_state(rng):
    prod = DensityOperator(
        qubits("S", "E"),
        np.kron(random_density(qubits("S"), rng).matrix,
                random_density(qubits("E"), rng).matrix),
    )
    d, _ = quantum_discord(prod, "S", {"E"})
    assert d < 1e-7


def test_discord_classically_correlated_state():
    d, angles = quantum_discord(classically_correlated(), "S", {"E"})
    assert d < 1e-9
    # Computational-basis measurement wins; ties break to the smallest angles.
    assert angles[0] == 0.0 and angles[1] == 0.0


def test_discord_bell_state():
    d, _ = quantum_discord(bell(), "S", {"E"})
    oracle = _grid_discord_oracle(bell(), 96, 192)
    assert abs(d - 1.0) < 1e-6
    assert abs(oracle - 1.0) < 1e-6


def test_discord_rejects_large_system():
    lay = TensorLayout([("S", 3), ("E", 3)])
    rho = maximally_mixed(lay)
    with pytest.raises(InvariantViolation):
        quantum_discord(rho, "S", {"E"})


def test_holevo_examples(rng):
    assert abs(correlation_report(bell(), "S", {"E"}).holevo - 1.0) < 1e-6
    prod = DensityOperator(
        qubits("S", "E"),
        np.kron(random_density(qubits("S"), rng).matrix,
                random_density(qubits("E"), rng).matrix),
    )
    assert correlation_report(prod, "S", {"E"}).holevo < 1e-6


def test_holevo_of_branching_state_single_environment():
    rho = branching_state()
    d, _ = quantum_discord(rho, "S", {"E1_1", "E1_2"})
    chi = correlation_report(rho, "S", {"E1_1", "E1_2"}).holevo
    assert d < 1e-7
    assert abs(chi - 1.0) < 1e-6


def test_correlation_report_consistency(rng):
    lay = qubits("S", "E")
    for _ in range(10):
        rho = random_density(lay, rng)
        rep = correlation_report(rho, "S", {"E"})
        assert abs(rep.holevo - (rep.mutual_information - rep.discord)) < 1e-6
        for value in (rep.mutual_information, rep.discord, rep.holevo,
                      rep.system_entropy):
            assert value >= -1e-8
        assert rep.measurement_class == "rank1_projective_qubit"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d_e=st.sampled_from([2, 4, 16]), rank=st.sampled_from([1, 2, 3, None]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_correlation_report_mutual_information_is_mutual_information(d_e, rank, seed):
    # The report forms I = H(S) + H(E) - H(SE) from its own entropies, in
    # mutual_information's order, so the two agree bit for bit; ranks 1-3
    # are below d_E = 4 and 16.
    rho = random_density(TensorLayout([("S", 2), ("E", d_e)]), np.random.default_rng(seed), rank)
    report = correlation_report(rho, "S", {"E"})
    assert report.mutual_information == mutual_information(rho, {"S"}, {"E"})
    assert report.system_entropy == von_neumann_entropy(partial_trace(rho, {"S"}))


def test_discord_bounded_by_mutual_information(rng):
    # Two-qubit and qubit-vs-4-dim states.
    for lay in (qubits("S", "E"), TensorLayout([("S", 2), ("E", 4)])):
        for _ in range(50):
            rho = random_density(lay, rng)
            d, _ = quantum_discord(rho, "S", {"E"})
            i = mutual_information(rho, {"S"}, {"E"})
            assert -1e-6 <= d <= i + 1e-6


def test_discord_zero_for_block_diagonal_states(rng):
    # States sum_i p_i |i><i| x rho_i with orthogonal conditional supports.
    lay = TensorLayout([("S", 2), ("E", 4)])
    for _ in range(10):
        p = rng.uniform(0.2, 0.8)
        u = random_unitary(4, rng)
        blocks = []
        for i, weight in enumerate((p, 1 - p)):
            v = u[:, 2 * i:2 * i + 2]
            w = rng.uniform(0.1, 0.9)
            cond = w * np.outer(v[:, 0], v[:, 0].conj()) \
                + (1 - w) * np.outer(v[:, 1], v[:, 1].conj())
            blocks.append(weight * cond)
        m = np.zeros((8, 8), complex)
        m[:4, :4] = blocks[0]
        m[4:, 4:] = blocks[1]
        rho = DensityOperator(lay, m)
        d, _ = quantum_discord(rho, "S", {"E"})
        assert d < 1e-6


def test_grid_then_refine_matches_finer_grid_oracle(rng):
    lay = qubits("S", "E")
    for _ in range(20):
        rho = random_density(lay, rng)
        d, _ = quantum_discord(rho, "S", {"E"})
        oracle = _grid_discord_oracle(rho, 640, 1280)
        assert abs(d - oracle) < 1e-4


def test_discord_of_low_rank_states_matches_grid_oracle(rng):
    # States of rank below d_E take the Gram-block path.
    lay = TensorLayout([("S", 2), ("E", 4)])
    for rank in (1, 2, 3):
        rho = random_density(lay, rng, rank=rank)
        d, _ = quantum_discord(rho, "S", {"E"})
        oracle = _grid_discord_oracle(rho, 160, 320)
        assert abs(d - oracle) < 1e-4


@st.composite
def _low_rank_cases(draw):
    """A random S x E state of rank below d_E and a batch of Bloch angles."""
    d_e = draw(st.sampled_from([2, 4, 8]))
    rank = draw(st.integers(1, d_e - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density(TensorLayout([("S", 2), ("E", d_e)]), rng, rank)
    return rho, rank, rng.uniform(0.0, np.pi, 16), rng.uniform(0.0, 2.0 * np.pi, 16)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_low_rank_cases())
def test_gram_blocks_and_mirrored_angles_keep_the_conditional_entropy(case):
    # The discord search rests on two identities: the r x r Gram blocks have
    # the nonzero spectrum of the d_E x d_E conditional blocks, and
    # (pi - theta, phi + pi) is the measurement at (theta, phi) with its
    # outcomes swapped.
    rho, rank, theta, phi = case
    rho4 = _system_first(rho, "S")
    gram = _outcome_blocks(rho4)
    assert gram.shape == (2, 2, rank, rank)
    full = _conditional_entropy_batch(rho4.transpose(0, 2, 1, 3), theta, phi)
    assert np.max(np.abs(_conditional_entropy_batch(gram, theta, phi) - full)) < 1e-12
    mirrored = _conditional_entropy_batch(gram, np.pi - theta, phi + np.pi)
    assert np.max(np.abs(mirrored - full)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d_e=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2, None]))
def test_discord_grid_seed_reaches_the_full_sphere_minimum(seed, d_e, rank):
    # The seed covers half the grid; by the mirror symmetry its minimum is
    # the whole sphere's.  A seed that misses part of the half sphere fails
    # on states whose minimum lies there, even where the simplex refinement
    # would recover it.
    rho = random_density(TensorLayout([("S", 2), ("E", d_e)]),
                         np.random.default_rng(seed), rank)
    blocks = _outcome_blocks(_system_first(rho, "S"))
    thetas = np.linspace(0.0, np.pi, _DISCORD_GRID_THETA)
    phis = np.linspace(0.0, 2.0 * np.pi, _DISCORD_GRID_PHI, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    sphere = _conditional_entropy_batch(blocks, tt.ravel(), pp.ravel()).min()
    seed_grid = _conditional_entropy_batch(blocks, *_grid_seed_angles()).min()
    assert abs(seed_grid - sphere) < 1e-12


def _per_outcome_entropy_batch(blocks, theta, phi):
    """The unchunked kernel: one outcome at a time over the whole batch,
    summed in outcome order."""
    k = blocks.shape[-1]
    flat = blocks.reshape(-1, k * k)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    phase = np.exp(1j * phi)
    total = np.zeros(theta.shape, dtype=float)
    for kets in (np.stack([c, phase * s], axis=-1), np.stack([s, -phase * c], axis=-1)):
        weights = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(len(kets), -1)
        cond = (weights @ flat).reshape(-1, k, k)
        p = np.trace(cond, axis1=1, axis2=2).real
        eigs = np.linalg.eigvalsh(0.5 * (cond + np.conj(np.swapaxes(cond, -1, -2))))
        safe_p = np.where(p > TOL.conditional_skip, p, 1.0)
        lam = np.clip((eigs / safe_p[:, None]).real, 0.0, None)
        terms = np.where(lam > TOL.entropy_eig_cutoff, -lam * np.log2(
            np.where(lam > TOL.entropy_eig_cutoff, lam, 1.0)), 0.0)
        total += np.where(p > TOL.conditional_skip, p * terms.sum(axis=-1), 0.0)
    return total


def test_chunked_kernel_matches_the_per_outcome_kernel_bit_for_bit(rng):
    # Chunking changes the row count of the BLAS matmul and stacking the
    # outcomes changes the eigvalsh batch; neither may change a bit, on the
    # grid (several chunks for k = 16) or on the single angles of the
    # refinement.  Blocks of size k = 1, 2, 4, 8 and 16.
    lay = TensorLayout([("S", 2), ("E", 16)])
    states = [random_density(lay, rng, rank) for rank in (1, 2, 4, 8, None)]
    states.append(maximally_mixed(qubits("S", "E1", "E2", "E3", "E4")))
    tt, pp = _grid_seed_angles()
    assert len(tt) * 2 * 16 * 16 * 16 > 2 * info._DISCORD_CHUNK_BYTES
    for rho, k in zip(states, (1, 2, 4, 8, 16, 16)):
        blocks = _outcome_blocks(_system_first(rho, "S"))
        assert blocks.shape[-1] == k
        assert (_conditional_entropy_batch(blocks, tt, pp).tobytes()
                == _per_outcome_entropy_batch(blocks, tt, pp).tobytes())
        for theta, phi in zip(rng.uniform(0.0, np.pi, 20), rng.uniform(0.0, 2 * np.pi, 20)):
            one = np.array([theta]), np.array([phi])
            assert (_conditional_entropy_batch(blocks, *one).tobytes()
                    == _per_outcome_entropy_batch(blocks, *one).tobytes())


def test_discord_grid_memory_is_bounded():
    # The grid is evaluated in chunks of bounded size; unchunked, the
    # 16 x 16 blocks of this state peak at about 34 MB.
    rho = maximally_mixed(qubits("S", "E1", "E2", "E3", "E4"))
    env = {"E1", "E2", "E3", "E4"}
    quantum_discord(rho, "S", env)
    tracemalloc.start()
    try:
        quantum_discord(rho, "S", env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_minimizing_angles_are_plain_floats(rng):
    # On the maximally mixed state the grid point wins; on a random state
    # the refinement does.
    for rho in (maximally_mixed(qubits("S", "E")), random_density(qubits("S", "E"), rng)):
        angles = correlation_report(rho, "S", {"E"}).minimizing_measurement
        assert [type(a) for a in angles] == [float, float]


def _discord_refinements(monkeypatch) -> list[tuple]:
    """The (objective, x0, xatol, fatol) of each discord refinement on seeded
    random S x E states (d_E 2-16, ranks 1 to 2 d_E) and the shipped states."""
    calls = []

    def record(fun, x0, xatol, fatol):
        calls.append((fun, x0, xatol, fatol))
        return info.SimplexResult(x0, np.inf, 0)

    monkeypatch.setattr(info, "minimize", record)
    rng = np.random.default_rng(1965)
    for d_e in (2, 3, 4, 5, 8, 16):
        for rank in sorted({1, 2, d_e, 2 * d_e}):
            quantum_discord(random_density(TensorLayout([("S", 2), ("E", d_e)]), rng, rank),
                            "S", {"E"})
    for name in ("sqd_initial", "ghz5", "maximally_mixed_sqd"):
        rho = load_state(REPO_ROOT / "states" / f"{name}.json")
        quantum_discord(rho, rho.layout.labels[0], rho.layout.labels[1:])
    monkeypatch.undo()
    return calls


def _scripted_objective():
    """Returns 1, 2, 3, 1.5, 1.2 on its first five calls, 0 on its 400th and
    5 otherwise: after two accepted reflections every iteration shrinks, and
    the 400th call is the first of a shrink's two evaluations."""
    calls = iter(range(1, 1000))
    return lambda x: {1: 1.0, 2: 2.0, 3: 3.0, 4: 1.5, 5: 1.2, 400: 0.0}.get(next(calls), 5.0)


def test_simplex_matches_scipy_nelder_mead_bit_for_bit(monkeypatch):
    # The refinement is a copy of scipy's Nelder-Mead with its defaults: the
    # same vertex bytes, value and evaluation count on every discord
    # objective, and on two objectives that never converge and stop at the
    # 400-evaluation cap mid-iteration: f(x) = x[0], whose 400th evaluation is
    # a reflection whose expansion the cap skips, and a scripted objective
    # whose cap falls inside a shrink that moves a vertex ahead of the best.
    cases = [(lambda fun=fun: fun, x0, xatol, fatol)
             for fun, x0, xatol, fatol in _discord_refinements(monkeypatch)]
    assert len(cases) == 26
    cases += [(lambda: (lambda x: x[0]), np.array([0.3, 0.0]), 0.0, 0.0),
              (_scripted_objective, np.array([0.3, 0.0]), 0.0, 0.0)]
    for make, x0, xatol, fatol in cases:
        ours = info.minimize(make(), x0, xatol=xatol, fatol=fatol)
        ref = scipy_minimize(make(), x0=x0, method="Nelder-Mead",
                             options={"xatol": xatol, "fatol": fatol})
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun and ours.nfev == ref.nfev
    assert [ours.nfev, ours.fun] == [400, 0.0]


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def test_branching_state_fragment_e1_is_objective():
    verdict = check_structure(branching_state(), parity_spec(2), ["E1"])
    assert verdict.qd and verdict.sqd and verdict.bipartite_sbs
    assert not verdict.isbs  # rank-2 parity conditionals are not pure


def test_branching_state_full_fragment_is_not_objective():
    verdict = check_structure(branching_state(), parity_spec(2), ["E1", "E2"])
    assert verdict.qd  # each single environment still carries full information
    assert not verdict.sqd
    assert not verdict.bipartite_sbs


def test_explicit_broadcast_state_passes_all_checks(rng):
    # sum_i p_i |i><i| x |i><i| x |i><i| over three qubits.
    lay = qubits("S", "E1", "E2")
    p = float(rng.uniform(0.2, 0.8))
    m = np.zeros((8, 8), complex)
    m[0b000, 0b000] = p
    m[0b111, 0b111] = 1 - p
    rho = DensityOperator(lay, m)
    spec = ObjectiveSubspaceSpec(
        "S", np.eye(2),
        {"E1": ("E1",), "E2": ("E2",)},
        {"E1": (np.diag([1.0, 0]), np.diag([0, 1.0])),
         "E2": (np.diag([1.0, 0]), np.diag([0, 1.0]))},
    )
    verdict = check_structure(rho, spec, ["E1", "E2"])
    assert verdict.qd and verdict.sqd and verdict.bipartite_sbs and verdict.isbs


def test_flag_implications_on_assorted_states(rng):
    spec = parity_spec(2)
    lay = branching_state().layout
    states = [branching_state(), prepare_initial_sqd(NoiseConfig(p=0.35)),
              maximally_mixed(lay), random_density(lay, rng)]
    for rho in states:
        for fragment in (["E1"], ["E1", "E2"]):
            v = check_structure(rho, spec, fragment)
            assert (not v.sqd) or v.qd
            assert (not v.isbs) or v.bipartite_sbs


def test_ghz_structure_checks():
    ghz = prepare_initial_isbs(NoiseConfig())
    spec = computational_spec(4)
    full = check_structure(ghz, spec, ["E1", "E2", "E3", "E4"])
    assert full.qd  # every single environment carries the full system information
    assert not full.sqd  # joint information is twice the system entropy
    single = check_structure(ghz, spec, ["E1"])
    assert single.qd and single.sqd and single.isbs


@pytest.mark.parametrize("fragment", [["E1"], ["E1", "E2"]])
def test_check_structure_takes_each_entropy_and_the_discord_grid_once(monkeypatch, fragment):
    # One correlation_report on the joint fragment takes H(S), H(F) and H(SF)
    # and runs the grid once; each of the n environments adds the three
    # entropies of its own mutual information: 3 + 3n in all.
    calls = {"entropy": 0, "grid": 0}
    entropy, batch = info.von_neumann_entropy, info._conditional_entropy_batch

    def count_entropy(rho):
        calls["entropy"] += 1
        return entropy(rho)

    def count_grid(blocks, theta, phi):
        calls["grid"] += len(theta) > 1  # the refinement evaluates one angle a call
        return batch(blocks, theta, phi)

    monkeypatch.setattr(info, "von_neumann_entropy", count_entropy)
    monkeypatch.setattr(info, "_conditional_entropy_batch", count_grid)
    rho = load_state(REPO_ROOT / "states" / "sqd_initial.json")
    check_structure(rho, parity_spec(2), fragment)
    assert calls == {"entropy": 3 + 3 * len(fragment), "grid": 1}


def test_check_structure_enforces_the_holevo_invariant(monkeypatch):
    # A measured conditional entropy above H(F) would make chi = I - D
    # negative; the check's correlation_report refuses it.
    monkeypatch.setattr(info, "_conditional_entropy_batch",
                        lambda blocks, theta, phi: np.full(theta.shape, 5.0))
    rho = load_state(REPO_ROOT / "states" / "sqd_initial.json")
    with pytest.raises(InvariantViolation, match="Holevo information"):
        check_structure(rho, parity_spec(2), ["E1"])


def test_maximally_mixed_is_not_objective():
    verdict = check_structure(maximally_mixed(branching_state().layout),
                              parity_spec(2), ["E1"])
    assert not verdict.qd


# ---------------------------------------------------------------------------
# Equal-dimension reduction
# ---------------------------------------------------------------------------

def _random_broadcast_state(rng, n_envs: int) -> DensityOperator:
    """sum_i p_i |i><i| x product of random orthonormal env kets."""
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
    return DensityOperator(lay, m)


def test_reduction_on_already_broadcast_states(rng):
    for _ in range(10):
        rho = _random_broadcast_state(rng, 2)
        assert verify_equal_dimension_reduction(rho)


def test_reduction_on_many_random_equal_dim_states(rng):
    for _ in range(100):
        n_envs = int(rng.integers(2, 4))
        rho = _random_broadcast_state(rng, n_envs)
        assert verify_equal_dimension_reduction(rho)


def test_reduction_rejects_unequal_dims():
    lay = TensorLayout([("S", 2), ("E1", 4)])
    with pytest.raises(InvariantViolation):
        verify_equal_dimension_reduction(maximally_mixed(lay))


def test_reduction_of_an_accepted_eigenvalue_dip_gets_an_answer():
    # The four entries with S = 0, E1 = 0 of a diagonal four-qubit state dip
    # to -0.9e-10, within TOL.psd_min_eig; the pair (S, E1) sums them over
    # E2 and E3 to -3.6e-10, which its blocks' check reads at the scale of
    # the state.  The answer is that of the state with its dip clipped.
    lay = qubits("S", "E1", "E2", "E3")
    answers = []
    for dip in (0.9e-10, 0.0):
        diagonal = np.full(16, (1 + 4 * dip) / 12)
        diagonal[:4] = -dip
        answers.append(verify_equal_dimension_reduction(DensityOperator(lay, np.diag(diagonal))))
    assert answers[0] == answers[1]


def test_rank2_conditional_block_cannot_be_orthogonal(rng):
    # On qubit environments a rank-2 conditional block overlaps every other
    # block, so the orthogonality requirement must fail for any attempt.
    lay = qubits("S", "E1")
    spec = ObjectiveSubspaceSpec(
        "S", np.eye(2), {"E1": ("E1",)},
        {"E1": (np.diag([1.0, 0]), np.diag([0, 1.0]))},
    )
    for _ in range(20):
        w = float(rng.uniform(0.05, 0.45))
        rank2 = np.diag([w, 0.5 - w]).astype(complex)  # mixed conditional
        other = random_density(qubits("E1"), rng).matrix * 0.5
        m = np.zeros((4, 4), complex)
        m[:2, :2] = rank2
        m[2:, 2:] = other
        rho = DensityOperator(lay, m)
        overlap = np.linalg.norm(
            (rank2 / 0.5) @ (other / 0.5), ord="nuc")
        assert overlap > 1e-6
        verdict = check_structure(rho, spec, ["E1"])
        assert not verdict.bipartite_sbs
        assert not verify_equal_dimension_reduction(rho)


# ---------------------------------------------------------------------------
# The stacked structure checks against a per-conditional oracle
# ---------------------------------------------------------------------------

def _oracle_structural_checks(rho_sf, spec, names):
    """``_structural_checks`` one conditional state at a time: a block
    validated as a DensityOperator, normalized, and one partial trace per
    conditional state and environment, and a nuclear norm per pair."""
    rho4 = _system_first(rho_sf, spec.system_label)
    d_s, d_f = rho4.shape[:2]
    rot = np.kron(spec.system_basis.conj().T, np.eye(d_f))
    blocks = (rot @ rho4.reshape(d_s * d_f, -1) @ rot.conj().T).reshape(rho4.shape)
    offdiag = np.abs(blocks).max(axis=(1, 3))
    np.fill_diagonal(offdiag, 0.0)
    fragment = rho_sf.layout.subset(
        [lab for lab in rho_sf.layout.labels if lab != spec.system_label])
    conds = []
    for i in range(d_s):
        p = float(np.trace(blocks[i, :, i, :]).real)
        if p > TOL.conditional_skip:  # checked at the state's scale, then normalized
            DensityOperator(fragment, blocks[i, :, i, :])
            conds.append(DensityOperator._trusted(fragment, blocks[i, :, i, :] / p))
    marginals = [[partial_trace(c, set(spec.members_of([name]))).matrix for c in conds]
                 for name in names]
    overlap = max((float(np.sum(np.linalg.svd(a @ b, compute_uv=False)))
                   for states in [[c.matrix for c in conds], *marginals]
                   for a, b in itertools.combinations(states, 2)), default=0.0)
    impurity = gap = 0.0
    for k, c in enumerate(conds):
        eigs = np.linalg.eigvalsh(0.5 * (c.matrix + c.matrix.conj().T))
        impurity = max(impurity, float(np.sum(eigs[:-1].clip(min=0.0))))
        product = functools.reduce(np.kron, [m[k] for m in marginals], np.array([[1.0 + 0j]]))
        gap = max(gap, float(np.max(np.abs(c.matrix - product))))
    sbs = (float(offdiag.max()) <= TOL.block_diagonal
           and overlap <= TOL.conditional_orthogonality)
    isbs = sbs and impurity <= TOL.conditional_purity and gap <= TOL.conditional_purity
    return sbs, isbs, {"max_offdiagonal_block": float(offdiag.max()),
                       "max_conditional_overlap": overlap,
                       "max_conditional_impurity": impurity,
                       "max_product_gap": gap}


def _oracle_reduction(rho, basis):
    """``verify_equal_dimension_reduction`` on the oracle checks."""
    system, *envs = rho.layout.labels
    d = rho.layout.dims[0]
    rank1 = tuple(np.outer(basis[:, i], basis[:, i].conj()) for i in range(d))
    spec = ObjectiveSubspaceSpec(system, basis, {lab: (lab,) for lab in envs},
                                 {lab: rank1 for lab in envs})
    if not all(_oracle_structural_checks(partial_trace(rho, {system, lab}), spec, [lab])[0]
               for lab in envs):
        return False
    sbs, isbs, _ = _oracle_structural_checks(rho, spec, envs)
    return sbs and isbs


def _outcome(check, *args):
    """The flags and the repr of each detail, or the error and its message up
    to the number in parentheses: the stack's check names its largest
    deviation, the oracle that of its first failing conditional state."""
    try:
        result = check(*args)
    except InvariantViolation as exc:
        return "raises", str(exc).split(" (")[0]
    if isinstance(result, bool):
        return result
    return result[:2], {key: repr(value) for key, value in result[2].items()}


def _broadcast_or_random_state(rng, layout, groups, basis, kind, weights, mixed):
    """A random state of rank 1, 2 or full, or sum_i w_i |b_i><b_i| (x) the
    product over ``groups`` of the projectors on orthogonal kets |u_i>, mixed
    with I/d at the weight ``kind``.  With ``mixed``, a first group of at
    least 2 d_S dimensions takes the mixture of |u_i> and |u_(i + d_S)>."""
    if kind in ("1", "2", "full"):
        return random_density(layout, rng, None if kind == "full" else int(kind))
    d_s = basis.shape[0]
    kets = [random_unitary(math.prod(layout.dim_of(m) for m in g), rng) for g in groups]
    m = np.zeros((layout.total_dim,) * 2, complex)
    for i, w in enumerate(weights[:d_s]):
        sigma = np.outer(basis[:, i], basis[:, i].conj())
        for k, u in enumerate(kets):
            cols = [i, i + d_s] if mixed and k == 0 and len(u) >= 2 * d_s else [i]
            sigma = np.kron(sigma, u[:, cols] @ u[:, cols].conj().T / len(cols))
        m += w / sum(weights[:d_s]) * sigma
    return DensityOperator(layout, (1 - kind) * m + kind * np.eye(len(m)) / len(m))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), n_envs=st.integers(1, 3), pairs=st.booleans(),
       kind=st.sampled_from(["1", "2", "full", 0.0, 1e-9, 1e-3]),
       weights=st.sampled_from([(0.5, 0.3, 0.2), (0.7, 0.0, 0.3), (0.0, 1.0, 0.0)]),
       mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_structure_checks_equal_the_per_conditional_oracle(dim, n_envs, pairs, kind,
                                                                   weights, mixed, seed):
    # Qubit environments of one or two photons, or single qutrits; the
    # broadcast states pass the checks near their tolerances, and a zero
    # weight leaves an index without a conditional state.  At a noise of
    # 1e-9 such an index's conditional state is its block over a probability
    # near 1e-9, whose rounding is not Hermitian within TOL.hermiticity; both
    # sides check the block before the division, so both give a verdict.
    rng = np.random.default_rng(seed)
    width = 2 if pairs and dim == 2 and n_envs < 3 else 1
    groups = [tuple(f"E{k}_{j}" for j in range(width)) for k in range(n_envs)]
    layout = TensorLayout([("S", dim)] + [(m, dim) for g in groups for m in g])
    basis = random_unitary(dim, rng)
    rho = _broadcast_or_random_state(rng, layout, groups, basis, kind, weights, mixed)
    spec = ObjectiveSubspaceSpec(
        "S", basis, {f"E{k}": g for k, g in enumerate(groups)},
        {f"E{k}": tuple(np.diag(np.arange(dim ** width) % dim == i).astype(complex)
                        for i in range(dim)) for k in range(n_envs)})
    names = list(spec.environment_names)
    for fragment in (names, names[:1], names[-1:]):
        rho_sf = partial_trace(rho, {"S", *spec.members_of(fragment)})
        got = _outcome(_structural_checks, rho_sf, spec, fragment)
        assert got == _outcome(_oracle_structural_checks, rho_sf, spec, fragment)
    for system_basis in (None, basis):
        oracle = np.eye(dim) if system_basis is None else system_basis
        got = _outcome(verify_equal_dimension_reduction, rho, system_basis)
        assert got == _outcome(_oracle_reduction, rho, oracle)


def test_zero_operator_has_no_conditional_states():
    # Trace 0 is a valid DensityOperator; every index is skipped, and the
    # checks pass vacuously, as one conditional state at a time.
    zero = DensityOperator(qubits("S", "E1", "E2"), np.zeros((8, 8)))
    assert verify_equal_dimension_reduction(zero) is _oracle_reduction(zero, np.eye(2)) is True


def test_conditional_states_are_checked_as_density_operators():
    # A valid state may dip to -TOL.psd_min_eig.  Over a probability near
    # TOL.conditional_skip, that dip is a conditional eigenvalue of -1/3:
    # the block is checked at the state's scale, so the state gets a verdict.
    m = np.diag([1 - 1.5e-10, 0.0, 2e-10, -5e-11]).astype(complex)
    rho = DensityOperator(qubits("S", "E1"), m)
    verdict = check_structure(rho, computational_spec(1), ["E1"])
    assert (verdict.bipartite_sbs, verdict.isbs) == (False, False)
    assert verify_equal_dimension_reduction(rho) is _oracle_reduction(rho, np.eye(2)) is False
    # A block that dips further is refused with its own eigenvalue, not the
    # conditional state's -1.
    broken = DensityOperator._trusted(qubits("S", "E1"), np.diag([1 - 1e-6, 0, 2e-6, -1e-6]))
    message = r"^matrix has negative eigenvalue -1\.000e-06$"
    for check in (_structural_checks, _oracle_structural_checks):
        with pytest.raises(InvariantViolation, match=message):
            check(broken, computational_spec(1), ["E1"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exponent=st.floats(-12.0, -3.0), noise=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_conditional_states_near_the_skip_cutoff_get_a_verdict(exponent, noise, seed):
    # A qubit pair (1 - w)|v0 0><v0 0| plus w times white noise, or w times
    # |v1 1><v1 1|, under a random system basis (v0, v1).  Index 1 holds
    # probability w / 2 or w; its block's rounding over that probability
    # fails a density check below about w = 1e-6.  A white-noise conditional
    # state I/2 breaks orthogonality once it is kept; the second branch is
    # orthogonal, and above w = 1e-7 its rounding stays within the checks.
    w = 10.0 ** exponent
    basis = random_unitary(2, np.random.default_rng(seed))
    kets = [np.kron(basis[:, i], np.eye(2)[i]) for i in range(2)]
    m = (1 - w) * np.outer(kets[0], kets[0].conj())
    m += w * (np.eye(4) / 4 if noise else np.outer(kets[1], kets[1].conj()))
    rho = DensityOperator(qubits("S", "E1"), m)
    spec = ObjectiveSubspaceSpec("S", basis, {"E1": ("E1",)},
                                 {"E1": (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))})
    verdict = check_structure(rho, spec, ["E1"])
    if noise:
        assert verdict.bipartite_sbs is verdict.isbs is (w / 2 <= TOL.conditional_skip)
    elif w >= 1e-7:
        assert verdict.bipartite_sbs is verdict.isbs is True
