"""Entropy, mutual information, discord, Holevo, and structure checkers."""

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
    _system_first,
)
from qdarwin.serialize import load_state

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
