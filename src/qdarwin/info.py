"""Entropic and correlation measures plus objectivity structure checkers.

All information quantities are in bits (logarithm base 2).  The discord
minimization searches rank-1 projective qubit measurements parameterized by
Bloch angles: a coarse grid seed refined by an in-repo Nelder-Mead simplex
(`minimize`, scipy's defaults).  Each outcome's conditional state enters
only through its nonzero spectrum, so a state of rank r below d_E is
searched on r x r Gram blocks.  The grid seed covers half the sphere,
because (theta, phi) and (pi - theta, phi + pi) are one measurement with its
outcomes swapped; the reported angles are one of those two representatives.
One kernel takes both outcomes at once and the grid in chunks of 4 MiB of
conditional blocks, so the grid's memory does not grow with the angle count.

The structure checks take the fragment's conditional states, one per
preferred system state, as one ``(n, d_F, d_F)`` stack, and each
environment's marginals as one partial trace of that stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .hilbert import (
    DensityOperator,
    InvariantViolation,
    _symmetrized,
    partial_trace,
    permute_subsystems,
    require_density,
    trace_out,
)
from .objectivity import ObjectiveSubspaceSpec
from .tolerances import TOL

MEASUREMENT_CLASS = "rank1_projective_qubit"

_DISCORD_GRID_THETA = 64
_DISCORD_GRID_PHI = 128
# Bytes of complex128 conditional blocks, both outcomes, per grid chunk.
_DISCORD_CHUNK_BYTES = 4 << 20


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """Mutual information, discord and Holevo information between a system
    qubit and an environment block, all in bits."""

    mutual_information: float
    discord: float
    holevo: float
    system_entropy: float
    minimizing_measurement: tuple[float, float]
    measurement_class: str = MEASUREMENT_CLASS


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of the objectivity structure checks on one bipartition.

    ``qd`` tests mutual information against system entropy; ``sqd``
    additionally requires vanishing discord; ``bipartite_sbs`` tests the
    explicit block structure; ``isbs`` further requires pure, product
    conditional states.
    """

    qd: bool
    sqd: bool
    bipartite_sbs: bool
    isbs: bool
    tolerances: dict[str, float]
    details: dict[str, float]


# ---------------------------------------------------------------------------
# Entropic measures
# ---------------------------------------------------------------------------

def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -sum(lambda log2 lambda) of a normalized state, in bits."""
    if abs(rho.trace - 1.0) > TOL.entropy_trace:
        raise InvariantViolation(f"entropy input has trace {rho.trace}, expected 1")
    return _entropy_of_eigs(np.linalg.eigvalsh(_symmetrized(rho.matrix)))


def _entropy_of_eigs(eigs: np.ndarray) -> float:
    lam = eigs[eigs > TOL.entropy_eig_cutoff]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def mutual_information(rho: DensityOperator, part_a: Iterable[str],
                       part_b: Iterable[str]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) for a bipartition of the full layout."""
    a, b = set(part_a), set(part_b)
    if a & b:
        raise InvariantViolation(f"overlapping parts {sorted(a & b)}")
    if a | b != set(rho.layout.labels) or not a or not b:
        raise InvariantViolation("parts must be nonempty and cover the layout")
    h_a = von_neumann_entropy(partial_trace(rho, a))
    h_b = von_neumann_entropy(partial_trace(rho, b))
    h_ab = von_neumann_entropy(rho)
    return h_a + h_b - h_ab


# ---------------------------------------------------------------------------
# Discord minimization
# ---------------------------------------------------------------------------

class SimplexResult(NamedTuple):
    """Best vertex of a simplex search, its value and the evaluation count."""

    x: np.ndarray
    fun: float
    nfev: int


class _EvaluationCap(Exception):
    """The simplex search reached its evaluation cap."""


def minimize(fun: Callable, x0: np.ndarray, xatol: float, fatol: float) -> SimplexResult:
    """Nelder-Mead simplex search (Nelder and Mead, Comput. J. 7, 308, 1965),
    step for step as scipy.optimize.minimize(method="Nelder-Mead") with its
    defaults: coefficients 1, 2, 1/2, 1/2; initial steps of 5 % (0.00025 for
    a zero coordinate); the xatol/fatol test before each iteration; at most
    200 n iterations and 200 n evaluations, and no evaluation once the count
    reaches the cap, even mid-iteration.  Each evaluation gets a copy of x.
    """
    n = len(x0)
    cap = 200 * n
    nfev = 0

    def f(x: np.ndarray) -> float:
        nonlocal nfev
        if nfev >= cap:
            raise _EvaluationCap
        nfev += 1
        return fun(np.copy(x))

    sim = np.array([x0] * (n + 1), dtype=float)
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(vertex) for vertex in sim], dtype=float)
    for _ in range(2):  # as in scipy: argsort need not keep ties in place
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while nfev < cap and iterations < cap:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside or inside, or else shrink towards sim[0]
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return SimplexResult(sim[0], np.min(fsim), nfev)


def _system_first(rho: DensityOperator, system: str) -> np.ndarray:
    """State tensor reshaped to (d_S, d_E, d_S, d_E) with the system leading."""
    order = [system] + [lab for lab in rho.layout.labels if lab != system]
    matrix = permute_subsystems(rho.matrix, rho.layout, order)
    d_s = rho.layout.dim_of(system)
    d_e = rho.layout.total_dim // d_s
    return matrix.reshape(d_s, d_e, d_s, d_e)


def _measurement_kets(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal qubit measurement kets of g Bloch angles, shape (2, g, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    phase = np.exp(1j * phi)
    return np.stack([np.stack([c, phase * s], axis=-1),
                     np.stack([s, -phase * c], axis=-1)])


def _outcome_blocks(rho4: np.ndarray) -> np.ndarray:
    """Operators K[a, c] whose sum over conj(m_a) m_c K[a, c] has the nonzero
    spectrum of the unnormalized conditional state of outcome ket m.

    For a state of rank r < d_E, with rho_SE = A A^dag and
    Phi = (<m| x I) A, that sum is the r x r Gram matrix Phi^dag Phi, so
    K[a, c] = A_c^dag A_a.  Otherwise K[a, c] = rho[a, :, c, :], the d_E x d_E
    conditional block itself.
    """
    d_s, d_e = rho4.shape[:2]
    eigs, vecs = np.linalg.eigh(rho4.reshape(d_s * d_e, d_s * d_e))
    keep = eigs > TOL.entropy_eig_cutoff
    if np.count_nonzero(keep) >= d_e:
        return rho4.transpose(0, 2, 1, 3)
    factor = (vecs[:, keep] * np.sqrt(eigs[keep])).reshape(d_s, d_e, -1)
    return np.einsum("cbk,abl->ackl", factor.conj(), factor)


def _conditional_entropy_batch(blocks: np.ndarray, theta: np.ndarray,
                               phi: np.ndarray) -> np.ndarray:
    """sum_i p_i H(rho_E|i) for a batch of measurement angles.

    ``blocks`` comes from `_outcome_blocks`.  The angles are taken in chunks
    whose k x k conditional blocks, both outcomes together, fit
    ``_DISCORD_CHUNK_BYTES``; a chunk of g angles is one
    (2g x d_S^2) . (d_S^2 x k^2) matmul and one eigvalsh on (2, g, k, k).
    The outcomes are summed as 0.0 + h_0 + h_1, in that order.
    """
    k = blocks.shape[-1]
    flat = blocks.reshape(-1, k * k)
    kets = _measurement_kets(theta, phi)
    weights = (kets.conj()[..., :, None] * kets[..., None, :]).reshape(2, len(theta), -1)
    step = max(1, _DISCORD_CHUNK_BYTES // (2 * flat[0].nbytes))
    total = np.empty(theta.shape, dtype=float)
    for start in range(0, len(theta), step):
        w = weights[:, start:start + step]
        cond = (w.reshape(-1, w.shape[-1]) @ flat).reshape(2, -1, k, k)
        p = np.trace(cond, axis1=-2, axis2=-1).real
        eigs = np.linalg.eigvalsh(0.5 * (cond + np.conj(np.swapaxes(cond, -1, -2))))
        safe_p = np.where(p > TOL.conditional_skip, p, 1.0)
        lam = eigs / safe_p[..., None]
        lam = np.clip(lam.real, 0.0, None)
        terms = np.where(lam > TOL.entropy_eig_cutoff, -lam * np.log2(
            np.where(lam > TOL.entropy_eig_cutoff, lam, 1.0)), 0.0)
        h = np.where(p > TOL.conditional_skip, p * terms.sum(axis=-1), 0.0)
        total[start:start + step] = (0.0 + h[0]) + h[1]
    return total


def _grid_seed_angles() -> tuple[np.ndarray, np.ndarray]:
    """Bloch angles (theta, phi) of the discord grid seed: the point (0, 0)
    and the rows 0 < theta < pi/2 of the 64 x 128 grid over the sphere.

    Its minimum equals the full grid's, because the rows theta > pi/2 repeat
    these measurements with their outcomes swapped, and theta = 0 is one
    measurement for every phi.
    """
    thetas = np.linspace(0.0, np.pi, _DISCORD_GRID_THETA)
    phis = np.linspace(0.0, 2.0 * np.pi, _DISCORD_GRID_PHI, endpoint=False)
    upper = thetas[(thetas > 0.0) & (thetas < 0.5 * np.pi)]
    tt, pp = np.meshgrid(upper, phis, indexing="ij")
    return np.concatenate([[0.0], tt.ravel()]), np.concatenate([[0.0], pp.ravel()])


def quantum_discord(rho: DensityOperator, system: str,
                    environment: Iterable[str]) -> tuple[float, tuple[float, float]]:
    """The discord and minimizing Bloch angles (theta, phi) of `correlation_report`."""
    report = correlation_report(rho, system, environment)
    return report.discord, report.minimizing_measurement


def correlation_report(rho: DensityOperator, system: str,
                       environment: Iterable[str]) -> CorrelationReport:
    """Mutual information, discord and Holevo information of a qubit system
    with an environment block, from one reduction, one H(S), H(E) and H(SE)
    each and one discord search: I = H(S) + H(E) - H(SE), and the discord is
    the least measured conditional entropy plus H(S) - H(SE), clamped at 0.

    A state of rank r below d_E is searched on r x r Gram blocks (see
    `_outcome_blocks`).  The measurement at (theta, phi) is the one at
    (pi - theta, phi + pi) with its outcomes swapped, and theta = 0 fixes it
    for every phi, so the grid seed (`_grid_seed_angles`) evaluates only the
    rows 0 < theta < pi/2 and the point (0, 0); grid ties break toward the
    lexicographically smallest angles.  The seed is refined by the in-repo
    Nelder-Mead search `minimize`, with scipy's defaults.  The angles are one
    of the two equivalent representatives: the seed has theta < pi/2, and the
    refinement may leave that range.  Only qubit systems are supported.
    """
    env = set(environment)
    if system in env:
        raise InvariantViolation(f"overlapping parts {[system]}")
    if rho.layout.dim_of(system) != 2:
        raise InvariantViolation("discord minimization supports qubit systems only "
                                 "(documented limitation)")
    rho = partial_trace(rho, env | {system})
    h_s = von_neumann_entropy(partial_trace(rho, {system}))
    h_e = von_neumann_entropy(partial_trace(rho, env))
    h_se = von_neumann_entropy(rho)

    blocks = _outcome_blocks(_system_first(rho, system))
    tt, pp = _grid_seed_angles()
    grid = _conditional_entropy_batch(blocks, tt, pp)
    best = int(np.argmin(grid))  # first minimum = smallest (theta, phi)
    t0, p0 = tt[best], pp[best]

    def objective(x: np.ndarray) -> float:
        return float(_conditional_entropy_batch(
            blocks, np.array([x[0]]), np.array([x[1]]))[0])

    res = minimize(objective, np.array([t0, p0]), xatol=1e-6, fatol=TOL.discord_ftol)
    cond_entropy = min(float(grid[best]), float(res.fun))
    theta, phi = (t0, p0) if grid[best] <= res.fun else res.x

    i_se = h_s + h_e - h_se
    d_se = max(0.0, cond_entropy + h_s - h_se)
    chi = i_se - d_se
    if chi < -TOL.info_condition:
        raise InvariantViolation(f"Holevo information {chi} below -{TOL.info_condition}")
    return CorrelationReport(
        mutual_information=i_se,
        discord=d_se,
        holevo=max(0.0, chi),
        system_entropy=h_s,
        minimizing_measurement=(float(theta), float(phi)),
    )


# ---------------------------------------------------------------------------
# Structure checkers
# ---------------------------------------------------------------------------

def check_structure(rho: DensityOperator, spec: ObjectiveSubspaceSpec,
                    fragment: Iterable[str]) -> StructureVerdict:
    """Evaluate the objectivity structure conditions for one fragment.

    The state is reduced to the system plus the fragment environments, then
    checked four ways: the mutual-information condition against each single
    environment, the zero-discord strengthening on the joint fragment (its
    one `correlation_report`), the explicit bipartite block structure, and
    the pure product-conditional refinement.
    """
    names = list(spec.select(fragment))
    members = spec.members_of(names)
    sys_label = spec.system_label
    rho_sf = partial_trace(rho, {sys_label, *members})
    if abs(rho_sf.trace - 1.0) > TOL.entropy_trace:
        raise InvariantViolation("structure checks need a normalized state")

    joint = correlation_report(rho_sf, sys_label, members)
    h_s = joint.system_entropy
    # Information shared with each single environment of the fragment.
    env_infos: list[float] = []
    for name in names:
        env_members = set(spec.members_of([name]))
        rho_sk = partial_trace(rho_sf, {sys_label, *env_members})
        env_infos.append(mutual_information(rho_sk, {sys_label}, env_members))
    qd = all(abs(i_k - h_s) <= TOL.info_condition for i_k in env_infos)

    # Joint fragment information must also be purely classical and complete.
    sqd = (qd and abs(joint.mutual_information - h_s) <= TOL.info_condition
           and joint.discord <= TOL.info_condition)

    bipartite_sbs, isbs, structural = _structural_checks(
        rho_sf, spec, names, rho.layout.total_dim // rho_sf.layout.total_dim)

    return StructureVerdict(
        qd=qd,
        sqd=sqd,
        bipartite_sbs=bipartite_sbs,
        isbs=isbs,
        tolerances={
            "info_condition": TOL.info_condition,
            "block_diagonal": TOL.block_diagonal,
            "conditional_orthogonality": TOL.conditional_orthogonality,
            "conditional_purity": TOL.conditional_purity,
        },
        details={
            "mutual_information": joint.mutual_information,
            "min_single_environment_information": min(env_infos),
            "max_single_environment_information": max(env_infos),
            "system_entropy": h_s,
            "discord": joint.discord,
            **structural,
        },
    )


def _structural_checks(rho_sf: DensityOperator, spec: ObjectiveSubspaceSpec, names: list[str],
                       d_b: int = 1) -> tuple[bool, bool, dict[str, float]]:
    """Block-structure and pure-product-conditional checks on a reduced state.

    The state is read through ``_system_first`` with the system rotated into
    the spec's preferred basis.  Its diagonal system blocks of probability
    above ``TOL.conditional_skip``, checked at 1/``d_b`` scale, then normalized,
    are the conditional states: one ``(n, d_F, d_F)`` stack.  Each
    environment's marginals are one partial trace of that stack; the
    orthogonality check pairs up the rows of each stack, and the product
    check rebuilds each conditional state as the row-wise kron of its marginals.
    """
    rho4 = _system_first(rho_sf, spec.system_label)
    d_s, d_f = rho4.shape[:2]
    rot = np.kron(spec.system_basis.conj().T, np.eye(d_f))
    blocks = (rot @ rho4.reshape(d_s * d_f, -1) @ rot.conj().T).reshape(rho4.shape)
    offdiag = np.abs(blocks).max(axis=(1, 3))
    np.fill_diagonal(offdiag, 0.0)
    max_offdiag = float(offdiag.max())
    diagonal = blocks[np.arange(d_s), :, np.arange(d_s), :]
    p = np.trace(diagonal, axis1=-2, axis2=-1).real
    kept = p > TOL.conditional_skip
    require_density(diagonal[kept] / d_b)  # before 1/p: a trace over d_b deepens a dip d_b-fold
    conds = diagonal[kept] / p[kept, None, None]
    frag_layout = rho_sf.layout.subset(
        [lab for lab in rho_sf.layout.labels if lab != spec.system_label])
    marginals = [trace_out(conds, frag_layout, set(spec.members_of([name])))
                 for name in names]
    # The joint conditional states and each environment's marginals must be
    # pairwise orthogonal: the nuclear norm of each product, which is not
    # Hermitian in general, is the sum of its singular values.
    first, second = np.triu_indices(len(conds), 1)
    max_overlap = max(float(np.linalg.svd(states[first] @ states[second], compute_uv=False)
                            .sum(-1).max(initial=0.0)) for states in [conds, *marginals])
    bipartite_sbs = (max_offdiag <= TOL.block_diagonal
                     and max_overlap <= TOL.conditional_orthogonality)

    eigs = np.linalg.eigvalsh(0.5 * (conds + conds.conj().swapaxes(-1, -2)))
    max_impurity = float(eigs[:, :-1].clip(min=0.0).sum(-1).max(initial=0.0))
    product = np.ones((len(conds), 1, 1), complex)
    for margs in marginals:  # np.kron of each row's marginals
        d = product.shape[-1] * margs.shape[-1]
        product = (product[:, :, None, :, None] * margs[:, None, :, None, :]).reshape(-1, d, d)
    max_product_gap = float(np.abs(conds - product).max(initial=0.0))
    isbs = (bipartite_sbs
            and max_impurity <= TOL.conditional_purity
            and max_product_gap <= TOL.conditional_purity)

    details = {
        "max_offdiagonal_block": max_offdiag,
        "max_conditional_overlap": max_overlap,
        "max_conditional_impurity": max_impurity,
        "max_product_gap": max_product_gap,
    }
    return bipartite_sbs, isbs, details


def verify_equal_dimension_reduction(rho: DensityOperator,
                                system_basis: np.ndarray | None = None) -> bool:
    """Check that equal-dimension bipartite objectivity forces pure product
    conditional states.

    The state's first subsystem is taken as the system and every other
    subsystem as a single environment; all local dimensions must be equal
    (raises otherwise).  Returns True when the bipartite structure holds
    against every environment and the joint conditional states are pure and
    product; False when the structural hypothesis itself fails.
    """
    layout = rho.layout
    dims = set(layout.dims)
    if len(dims) != 1:
        raise InvariantViolation(
            f"all subsystem dimensions must be equal, got {sorted(dims)}"
        )
    d = layout.dims[0]
    sys_label = layout.labels[0]
    env_labels = list(layout.labels[1:])
    if not env_labels:
        raise InvariantViolation("need at least one environment")
    basis = np.eye(d, dtype=np.complex128) if system_basis is None else system_basis

    environments = {lab: (lab,) for lab in env_labels}
    rank1 = tuple(np.outer(basis[:, i], basis[:, i].conj()) for i in range(d))
    spec = ObjectiveSubspaceSpec(sys_label, basis, environments,
                                 {lab: rank1 for lab in env_labels})

    for lab in env_labels:
        rho_sk = partial_trace(rho, {sys_label, lab})
        ok, _, _ = _structural_checks(rho_sk, spec, [lab], layout.total_dim // d ** 2)
        if not ok:
            return False
    joint_sbs, joint_isbs, _ = _structural_checks(rho, spec, env_labels)
    return bool(joint_sbs and joint_isbs)
