"""End-to-end non-objectivity witness protocol in exact and Monte Carlo modes.

A run prepares a noisy system-environment state, isolates the accessed
fragment with a point channel, either leaves the system-fragment untouched or
applies the objectivity operation, evolves under local Hadamards, and measures
in the computational basis.  The witness is built from the per-outcome
probability differences of the two branches; the subset maximization over
outcomes never needs extra measurement settings.

Both modes run one pipeline, ``_prepare`` followed by ``_branch``.  Every
noise event in it replaces some photons by I/d with a weight: global mixing
or local depolarization of strength p, depolarizing preparation CNOTs that
keep their output with weight f, and parity checks whose two depolarizing
CNOTs scramble the checked environment with weight 1 - f^2.  Monte Carlo
mode realizes these events run by run as 0/1 coins and post-selects on
parity-check hardware success; exact mode passes the probabilities, so it is
the expectation of the run-by-run statistics.  Per-run randomness comes from
counter-style stream splitting, so results are bit-reproducible for a given
seed regardless of evaluation order.  The sampler works a block of runs at a
time and evaluates each distinct realization once per branch; both branches
of one call share the prepared states.

The pipeline runs on (k, 32, 32) stacks of states with one row of weights
per state.  Exact mode passes a single row.  A sampler block prepares the
states it lacks and evaluates its new realizations in stacks of at most
``_MC_CHUNK`` = 16 states, so a stacked array holds at most 256 KiB.  Each
row equals the single-state result bit for bit.  States are validated where
they enter the pipeline and where they leave it, every row of each prepared
stack and of each branch-output stack; the CP maps in between build their
outputs unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import (
    CNOT,
    HADAMARD,
    NoiseConfig,
    _depolarize_stack,
    _replace_subsystems,
)
from .hilbert import (
    DensityOperator,
    InvariantViolation,
    PureState,
    TensorLayout,
    _check_density_stack,
    computational_ket,
    embed_operator,
    partial_trace,
)
from .objectivity import (
    ObjectiveSubspaceSpec,
    _objectivity_stack,
    computational_spec,
    nonobjectivity_measure,
    parity_spec,
    require_basis_spec,
)
from .tolerances import TOL

DEFAULT_SEED = 123456789

FRAMEWORK_SQD = "SQD"
FRAMEWORK_ISBS = "ISBS"

CNOT_IDEAL = "ideal"
CNOT_NOISY_PREP = "noisy_prep"
CNOT_NOISY_PREP_PARITY = "noisy_prep_parity"

UNITARY_ALTERNATING = "alternating_hadamards"
UNITARY_ALL = "all_hadamards"

_MC_BLOCK = 4096
# States per stacked evaluation: a (16, 32, 32) complex stack is 256 KiB.
# Measured against 8 and 32, 16 was the fastest and keeps peak memory near
# that of one state at a time.
_MC_CHUNK = 16
_BOOTSTRAP_RESAMPLES = 1000


class NonterminatingSampling(RuntimeError):
    """Monte Carlo sampling aborted: success probability too small."""


# ---------------------------------------------------------------------------
# Standard layouts
# ---------------------------------------------------------------------------

def sqd_layout() -> TensorLayout:
    """One system photon plus two environments of two photons each."""
    return TensorLayout([
        ("S", 2), ("E1_1", 2), ("E1_2", 2), ("E2_1", 2), ("E2_2", 2),
    ])


def isbs_layout() -> TensorLayout:
    """One system photon plus four single-photon environments."""
    return TensorLayout([("S", 2), ("E1", 2), ("E2", 2), ("E3", 2), ("E4", 2)])


@lru_cache(maxsize=None)
def default_spec(framework: str) -> ObjectiveSubspaceSpec:
    """The framework's preset spec: one shared, read-only instance each, so
    the projectors its objectivity operation embeds are memoized once."""
    if framework == FRAMEWORK_SQD:
        return parity_spec(2)
    if framework == FRAMEWORK_ISBS:
        return computational_spec(4)
    raise InvariantViolation(f"unknown framework {framework!r}")


def default_layout(framework: str) -> TensorLayout:
    return sqd_layout() if framework == FRAMEWORK_SQD else isbs_layout()


# ---------------------------------------------------------------------------
# Configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Full description of one witness evaluation.

    ``shots`` = 0 selects exact mode.  In Monte Carlo mode the successful
    runs are split evenly between the two branches unless ``branch_shots``
    overrides the split.  ``unitary`` may be a preset name or an explicit
    unitary matrix over the whole register, or with a custom ``subspace``
    over that spec's subsystems (see ``run_branch``); ``subspace`` defaults
    to the parity preset (subspace framework) or the computational basis
    (basis framework).  ``replacement``, the state the point channel
    installs, must be normalized and span the unaccessed environments in
    layout order.  Construction rejects every field value the pipeline would
    fail on or silently mis-run, and keeps the resolved subspace as the
    non-field attribute ``spec``, so ``dataclasses.replace`` resolves again.
    """

    framework: str = FRAMEWORK_SQD
    fragment: tuple[str, ...] = ("E1",)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    unitary: str | np.ndarray | None = None
    replacement: DensityOperator | PureState | None = None
    shots: int = 0
    seed: int = DEFAULT_SEED
    cnot_model: str = CNOT_IDEAL
    subspace: ObjectiveSubspaceSpec | None = None
    branch_shots: tuple[int, int] | None = None

    def __post_init__(self):
        if self.framework not in (FRAMEWORK_SQD, FRAMEWORK_ISBS):
            raise InvariantViolation(f"unknown framework {self.framework!r}")
        if not self.fragment:
            raise InvariantViolation("fragment must be nonempty")
        if self.shots < 0:
            raise InvariantViolation("shots must be nonnegative")
        if self.seed < 0:
            raise InvariantViolation(f"seed {self.seed} must be nonnegative")
        if self.cnot_model not in (CNOT_IDEAL, CNOT_NOISY_PREP, CNOT_NOISY_PREP_PARITY):
            raise InvariantViolation(f"unknown cnot_model {self.cnot_model!r}")
        if self.branch_shots is not None:
            a, b = self.branch_shots
            if a < 1 or b < 1:
                raise InvariantViolation("branch_shots entries must be positive")
        elif self.shots == 1:
            raise InvariantViolation("shots = 1 leaves a branch without runs: "
                                     "Monte Carlo mode needs at least 2")
        if self.framework == FRAMEWORK_ISBS and self.cnot_model != CNOT_IDEAL:
            raise InvariantViolation(
                f"cnot_model {self.cnot_model!r} needs the SQD framework: "
                "the ISBS GHZ state is prepared without CNOTs")
        if self.framework == FRAMEWORK_ISBS and self.noise.p_cnot < 1.0:
            raise InvariantViolation(
                f"p_cnot {self.noise.p_cnot} < 1 needs the SQD framework: "
                "ISBS runs no parity-check CNOTs")
        spec = self.subspace if self.subspace is not None else default_spec(self.framework)
        spec.select(self.fragment)
        if self.framework == FRAMEWORK_ISBS and self.subspace is not None:
            require_basis_spec(spec)  # the default ISBS spec is one by construction
        object.__setattr__(self, "spec", spec)
        layout = default_layout(self.framework)
        labels = {spec.system_label, *spec.members_of(spec.environment_names)}
        outside = labels - set(layout.labels)
        if outside:
            raise InvariantViolation(
                f"subspace labels {sorted(outside)} are not in the "
                f"{self.framework} layout")
        if self.replacement is not None:
            unaccessed = _unaccessed(layout, spec, self.fragment)
            expected = tuple(s for s in layout.subsystems if s[0] in unaccessed)
            if self.replacement.layout.subsystems != expected:
                raise InvariantViolation(
                    f"replacement layout {list(self.replacement.layout.labels)} != "
                    f"unaccessed subsystems {list(unaccessed)}")
            if isinstance(self.replacement, DensityOperator) \
                    and abs(self.replacement.trace - 1.0) > TOL.entropy_trace:
                raise InvariantViolation(
                    f"replacement trace {self.replacement.trace} is not 1")
        if self.unitary is not None:
            full = (layout.total_dim, layout.total_dim)
            if self.subspace is not None and np.shape(self.unitary) != full:
                layout = layout.subset(labels)
            _resolve_unitary(self, layout)

    def split_shots(self) -> tuple[int, int]:
        if self.branch_shots is not None:
            return self.branch_shots
        half = self.shots // 2
        return half, self.shots - half


def _unaccessed(layout: TensorLayout, spec: ObjectiveSubspaceSpec,
                fragment: Sequence[str]) -> tuple[str, ...]:
    """Labels of ``layout`` outside the system and the fragment's members, in
    layout order: the environments the point channel replaces."""
    accessed = {spec.system_label, *spec.members_of(fragment)}
    return tuple(lab for lab in layout.labels if lab not in accessed)


@dataclass(eq=False)
class WitnessReport:
    """Branch probabilities, per-outcome witnesses and the subset maximum.

    Outcome vectors are marginalized to the system-fragment register (the
    replaced environment block is uncorrelated by construction and carries no
    information about the branches).  In Monte Carlo mode the probabilities
    are empirical and ``stderr_max_subset`` holds a bootstrap standard error.
    """

    framework: str
    fragment: tuple[str, ...]
    outcome_labels: tuple[str, ...]
    p_identity: np.ndarray
    p_gamma: np.ndarray
    witness_single: np.ndarray
    witness_max_subset: float
    measure: float
    stderr_max_subset: float | None
    successful_runs: int
    shots: int
    seed: int
    mode: str

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WitnessReport):
            return NotImplemented
        return (
            self.framework == other.framework
            and self.fragment == other.fragment
            and self.outcome_labels == other.outcome_labels
            and np.array_equal(self.p_identity, other.p_identity)
            and np.array_equal(self.p_gamma, other.p_gamma)
            and np.array_equal(self.witness_single, other.witness_single)
            and self.witness_max_subset == other.witness_max_subset
            and self.measure == other.measure
            and self.stderr_max_subset == other.stderr_max_subset
            and self.successful_runs == other.successful_runs
            and self.shots == other.shots
            and self.seed == other.seed
            and self.mode == other.mode
        )

    def to_dict(self) -> dict:
        return {
            "framework": self.framework,
            "fragment": list(self.fragment),
            "outcome_labels": list(self.outcome_labels),
            "p_identity": [float(x) for x in self.p_identity],
            "p_gamma": [float(x) for x in self.p_gamma],
            "witness_single": [float(x) for x in self.witness_single],
            "witness_max_subset": float(self.witness_max_subset),
            "measure": float(self.measure),
            "stderr_max_subset": (None if self.stderr_max_subset is None
                                  else float(self.stderr_max_subset)),
            "successful_runs": int(self.successful_runs),
            "shots": int(self.shots),
            "seed": int(self.seed),
            "mode": self.mode,
        }

    @staticmethod
    def from_dict(data: dict) -> "WitnessReport":
        return WitnessReport(
            framework=str(data["framework"]),
            fragment=tuple(data["fragment"]),
            outcome_labels=tuple(data["outcome_labels"]),
            p_identity=np.asarray(data["p_identity"], dtype=float),
            p_gamma=np.asarray(data["p_gamma"], dtype=float),
            witness_single=np.asarray(data["witness_single"], dtype=float),
            witness_max_subset=float(data["witness_max_subset"]),
            measure=float(data["measure"]),
            stderr_max_subset=(None if data["stderr_max_subset"] is None
                               else float(data["stderr_max_subset"])),
            successful_runs=int(data["successful_runs"]),
            shots=int(data["shots"]),
            seed=int(data["seed"]),
            mode=str(data["mode"]),
        )


@dataclass(frozen=True)
class CostComparison:
    """Run counts of naive state tomography versus the witness scheme."""

    tomography_runs: int
    witness_runs: float
    witness_wins: bool
    crossover_p: float


# ---------------------------------------------------------------------------
# Resolved context shared by exact and Monte Carlo paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Context:
    config: ProtocolConfig
    layout: TensorLayout
    spec: ObjectiveSubspaceSpec
    fragment: tuple[str, ...]
    sf_labels: tuple[str, ...]
    ef_members: tuple[str, ...]
    replacement: DensityOperator | None
    unitary: np.ndarray


def _resolve_unitary(config: ProtocolConfig, layout: TensorLayout) -> np.ndarray:
    """The final unitary over ``layout``, and the only copy of its rules: a
    known preset name, or a (d, d) matrix for this layout that is unitary
    within ``TOL.unitarity``."""
    choice = config.unitary
    if choice is None:
        choice = UNITARY_ALTERNATING if config.framework == FRAMEWORK_SQD else UNITARY_ALL
    if isinstance(choice, str):
        if choice not in (UNITARY_ALTERNATING, UNITARY_ALL):
            raise InvariantViolation(f"unknown unitary preset {choice!r}")
        spec = config.spec
        env_members: dict[str, tuple[str, ...]] = dict(spec.environments)
        hadamard_labels: set[str] = {spec.system_label}
        if choice == UNITARY_ALL:
            hadamard_labels |= set(layout.labels)
        else:
            # Hadamard on the system and on the last photon of each environment.
            for members in env_members.values():
                hadamard_labels.add(members[-1])
        u = np.array([[1.0 + 0.0j]])
        for label, dim in layout.subsystems:
            if label in hadamard_labels:
                if dim != 2:
                    raise InvariantViolation("Hadamard presets need qubit subsystems")
                u = np.kron(u, HADAMARD)
            else:
                u = np.kron(u, np.eye(dim, dtype=np.complex128))
        return u
    u = np.asarray(choice, dtype=np.complex128)
    d = layout.total_dim
    if u.shape != (d, d):
        raise InvariantViolation(f"custom unitary shape {u.shape} != ({d}, {d})")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if not dev <= TOL.unitarity:  # NaN entries fail too
        raise InvariantViolation(f"custom unitary is not unitary (max dev {dev:.3e})")
    return u


def _resolve_context(config: ProtocolConfig,
                     layout: TensorLayout | None = None) -> _Context:
    layout = layout if layout is not None else default_layout(config.framework)
    spec = config.spec
    fragment = spec.select(config.fragment)
    ef_members = _unaccessed(layout, spec, fragment)
    sf_labels = tuple(lab for lab in layout.labels if lab not in ef_members)
    replacement = None
    if ef_members:
        if config.replacement is None:
            sub = layout.subset(ef_members)
            replacement = computational_ket(sub, [0] * len(sub)).to_density()
        else:
            replacement = config.replacement
            if isinstance(replacement, PureState):
                replacement = replacement.to_density()
    unitary = _resolve_unitary(config, layout)
    return _Context(
        config=config, layout=layout, spec=spec, fragment=fragment,
        sf_labels=sf_labels, ef_members=ef_members, replacement=replacement,
        unitary=unitary,
    )


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------

def _sqd_base_state() -> DensityOperator:
    """System in |+>, environments in a four-photon GHZ state."""
    layout = sqd_layout()
    amps = np.zeros(32, dtype=np.complex128)
    # |0>(|0000> + |1111>) / 2 + |1>(|0000> + |1111>) / 2 before the CNOTs.
    amps[0b00000] = 0.5
    amps[0b01111] = 0.5
    amps[0b10000] = 0.5
    amps[0b11111] = 0.5
    return PureState(layout, amps).to_density()


def _isbs_base_state() -> DensityOperator:
    """Five-photon GHZ state."""
    amps = np.zeros(32, dtype=np.complex128)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(isbs_layout(), amps).to_density()


_SQD_PREP_CNOTS = (("S", "E1_1"), ("S", "E2_1"))


def _noise_sites(mode: str, layout: TensorLayout) -> list[tuple[str, ...]]:
    """Subsystem groups the added noise replaces: all at once, or one by one."""
    if mode == "mix_global":
        return [layout.labels]
    return [(label,) for label in layout.labels]


def _prepare(framework: str, mode: str, cnot_keep: np.ndarray,
             noise_weights: np.ndarray) -> np.ndarray:
    """Initial states as mixtures over the noise events of the preparation,
    as a (k, d, d) stack with one row per row of the weights.

    Each SQD preparation CNOT keeps its ideal output with weight
    ``cnot_keep[r, j]`` and otherwise replaces its two qubits by I/4; then
    each noise site (see ``_noise_sites``) is replaced by I/d with weight
    ``noise_weights[r, j]``.  Exact mode passes one row of the probabilities
    f and p, the Monte Carlo sampler one row of 0/1 coins per realization.
    The ISBS GHZ state is prepared without CNOTs, so ``cnot_keep`` only
    applies to SQD.
    """
    noise_weights = np.asarray(noise_weights, dtype=float)
    base = _sqd_base_state() if framework == FRAMEWORK_SQD else _isbs_base_state()
    layout = base.layout
    rho = np.repeat(base.matrix[None], len(noise_weights), axis=0)
    if framework == FRAMEWORK_SQD:
        cnot_keep = np.asarray(cnot_keep, dtype=float)
        for (control, target), keep in zip(_SQD_PREP_CNOTS, cnot_keep.T, strict=True):
            on = np.flatnonzero(keep != 0)  # a fully replaced pair keeps no trace of the gate
            if on.size:
                gate = embed_operator(layout, CNOT, [control, target])
                rho[on] = gate @ rho[on] @ gate.conj().T
            rho = _depolarize_stack(rho, layout, [control, target], keep, 1.0 - keep)
    sites = _noise_sites(mode, layout)
    for labels, weight in zip(sites, noise_weights.T, strict=True):
        rho = _depolarize_stack(rho, layout, labels, 1.0 - weight, weight)
    _check_density_stack(rho)  # the pipeline's entry check
    return rho


def _prepare_exact(framework: str, noise: NoiseConfig, cnot_model: str) -> DensityOperator:
    f = 1.0 if cnot_model == CNOT_IDEAL else noise.f
    layout = default_layout(framework)
    n_sites = len(_noise_sites(noise.mode, layout))
    stack = _prepare(framework, noise.mode, [(f,) * len(_SQD_PREP_CNOTS)],
                     [(noise.p,) * n_sites])
    return DensityOperator._trusted(layout, stack[0])


def prepare_initial_sqd(noise: NoiseConfig,
                        cnot_model: str = CNOT_IDEAL) -> DensityOperator:
    """Branching system-environment state of the two-environment experiment.

    The system starts in |+>, the four environment photons in a GHZ state;
    CNOTs from the system onto the first photon of each environment correlate
    the system with the environment parities.  The configured noise (global
    mixing or local depolarization of strength p) is applied afterwards.
    """
    return _prepare_exact(FRAMEWORK_SQD, noise, cnot_model)


def prepare_initial_isbs(noise: NoiseConfig,
                         cnot_model: str = CNOT_IDEAL) -> DensityOperator:
    """Five-photon GHZ state followed by the configured noise.

    The GHZ state is prepared without CNOTs, so ``cnot_model`` has no effect.
    """
    return _prepare_exact(FRAMEWORK_ISBS, noise, cnot_model)


def prepare_initial(config: ProtocolConfig) -> DensityOperator:
    if config.framework == FRAMEWORK_SQD:
        return prepare_initial_sqd(config.noise, config.cnot_model)
    return prepare_initial_isbs(config.noise, config.cnot_model)


# ---------------------------------------------------------------------------
# Branch evaluation
# ---------------------------------------------------------------------------

def _branch(states: np.ndarray, ctx: _Context, apply_gamma: bool,
            scramble_weights: np.ndarray) -> np.ndarray:
    """Computational-basis outcome probabilities over the full register, one
    row per state of a (k, d, d) stack.

    Applies the point channel on the unaccessed environments and, in the
    projected branch, scrambles each fragment environment to I/d with weight
    ``scramble_weights[r, j]`` (its parity check's two depolarizing CNOTs, so
    1 - f^2 in exact mode) before the objectivity operation; then the final
    unitary.  A null projected state yields the all-zero vector.
    """
    layout = ctx.layout
    if ctx.ef_members:
        states = _replace_subsystems(states, layout, ctx.ef_members,
                                     ctx.replacement.matrix)
    if apply_gamma:
        for name, weight in zip(ctx.fragment, np.transpose(scramble_weights)):
            states = _depolarize_stack(states, layout, ctx.spec.members_of([name]),
                                       1.0 - weight, weight)
        states = _objectivity_stack(states, layout, ctx.spec, ctx.fragment)
    u = ctx.unitary
    states = u @ states @ u.conj().T
    # The pipeline's exit check: it bounds the clipped dips by TOL.psd_min_eig.
    _check_density_stack(states)
    return np.clip(np.diagonal(states, axis1=1, axis2=2).real, 0.0, None)


def _exact_branch(rho_t: DensityOperator, ctx: _Context, apply_gamma: bool) -> np.ndarray:
    """``_branch`` on the single state ``rho_t`` with the exact weights."""
    scramble: tuple[float, ...] = ()
    if ctx.config.cnot_model == CNOT_NOISY_PREP_PARITY:
        scramble = (1.0 - ctx.config.noise.f ** 2,) * len(ctx.fragment)
    return _branch(rho_t.matrix[None], ctx, apply_gamma, np.array([scramble]))[0]


def run_branch(rho_t: DensityOperator, config: ProtocolConfig,
               apply_gamma: bool) -> np.ndarray:
    """Exact outcome probabilities of one branch over the full register (see
    ``_branch``), with the context resolved on ``rho_t``'s layout."""
    return _exact_branch(rho_t, _resolve_context(config, rho_t.layout), apply_gamma)


def _marginalize_to_sf(vectors: np.ndarray, layout: TensorLayout,
                       sf_labels: Sequence[str]) -> np.ndarray:
    """Sum the last axis of ``vectors``, indexed by the register's outcomes,
    over the subsystems outside ``sf_labels``."""
    keep = set(sf_labels)
    lead = vectors.shape[:-1]
    tensor = vectors.reshape(lead + layout.dims)
    axes = tuple(len(lead) + k for k, lab in enumerate(layout.labels) if lab not in keep)
    if axes:
        tensor = tensor.sum(axis=axes)
    return tensor.reshape(lead + (-1,))


def _outcome_labels(layout: TensorLayout, sf_labels: Sequence[str]) -> tuple[str, ...]:
    sub = layout.subset(sf_labels)
    labels = []
    for index in range(sub.total_dim):
        digits = []
        rem = index
        for dim in reversed(sub.dims):
            digits.append(rem % dim)
            rem //= dim
        labels.append("".join(str(d) for d in reversed(digits)))
    return tuple(labels)


def _max_subset(differences: np.ndarray) -> float:
    """Largest |sum over an outcome subset| = max(positive sum, -negative sum)."""
    positive = float(np.sum(differences[differences > 0.0]))
    negative = float(np.sum(differences[differences < 0.0]))
    return max(positive, -negative)


def _report(ctx: _Context, rho_t: DensityOperator, p_id: np.ndarray, p_g: np.ndarray,
            stderr: float | None, successful_runs: int) -> WitnessReport:
    """Report of either mode.  The accompanying non-objectivity measure is
    computed on the system-fragment marginal of the prepared state ``rho_t``
    (post-noise, pre-point-channel)."""
    config = ctx.config
    rho_sf = partial_trace(rho_t, set(ctx.sf_labels))
    diffs = p_id - p_g
    return WitnessReport(
        framework=config.framework,
        fragment=ctx.fragment,
        outcome_labels=_outcome_labels(ctx.layout, ctx.sf_labels),
        p_identity=p_id,
        p_gamma=p_g,
        witness_single=np.abs(diffs),
        witness_max_subset=_max_subset(diffs),
        measure=nonobjectivity_measure(rho_sf, ctx.spec),
        stderr_max_subset=stderr,
        successful_runs=successful_runs,
        shots=config.shots,
        seed=config.seed,
        mode="exact" if config.shots == 0 else "monte_carlo",
    )


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------

def witness_exact(config: ProtocolConfig) -> WitnessReport:
    """Evaluate the witness from exact branch probability vectors.

    The lower-bound invariant (witness <= measure) is asserted whenever the
    objectivity operation itself is noiseless.
    """
    if config.shots != 0:
        raise InvariantViolation("exact mode requires shots = 0")
    ctx = _resolve_context(config)
    rho_t = prepare_initial(config)
    v_id = _exact_branch(rho_t, ctx, apply_gamma=False)
    v_g = _exact_branch(rho_t, ctx, apply_gamma=True)
    report = _report(ctx, rho_t, _marginalize_to_sf(v_id, ctx.layout, ctx.sf_labels),
                     _marginalize_to_sf(v_g, ctx.layout, ctx.sf_labels), None, 0)
    witness, measure = report.witness_max_subset, report.measure
    if config.cnot_model != CNOT_NOISY_PREP_PARITY \
            and witness > measure + TOL.witness_bound_slack:
        raise InvariantViolation(
            f"witness {witness} exceeds measure {measure} beyond tolerance"
        )
    return report


# ---------------------------------------------------------------------------
# Monte Carlo mode
# ---------------------------------------------------------------------------

def _prepare_realizations(ctx: _Context, noise_bits: np.ndarray,
                          prep_bits: np.ndarray) -> np.ndarray:
    """Prepared states of realizations given one row of coins each."""
    # A failed preparation CNOT (bit 1) keeps nothing of its ideal output.
    cnot_keep = (1 - prep_bits if prep_bits.shape[1]
                 else np.ones((len(prep_bits), len(_SQD_PREP_CNOTS))))
    return _prepare(ctx.config.framework, ctx.config.noise.mode, cnot_keep, noise_bits)


def _realization_pmfs(ctx: _Context, apply_gamma: bool, states: np.ndarray,
                      parity_bits: np.ndarray) -> np.ndarray:
    """Outcome pmfs over the system-fragment register with the null mass
    appended, one row per realization: its prepared state in ``states`` and
    its parity-check CNOT coins in ``parity_bits``.

    A realization runs the exact pipeline with its coins as weights.  The
    objectivity operation's measurement cascade (system measurement plus
    per-environment parity checks, mismatches recorded as the null outcome)
    is aggregated analytically: conditioned on the realization, the sampled
    outcome distribution equals the projected state's outcome distribution
    with the missing trace as the null mass.
    """
    # A parity check scrambles its environment when either of its CNOTs fails.
    scramble = parity_bits[:, 0::2] | parity_bits[:, 1::2]
    pmf = _marginalize_to_sf(_branch(states, ctx, apply_gamma, scramble),
                             ctx.layout, ctx.sf_labels)
    return np.column_stack([pmf, np.maximum(1.0 - pmf.sum(axis=1), 0.0)])


def _realization_pmf(ctx: _Context, apply_gamma: bool, noise_bits: Sequence[int],
                     prep_bits: Sequence[int], parity_bits: Sequence[int]) -> np.ndarray:
    """``_realization_pmfs`` of the single realization with these coins."""
    noise, prep, parity = (np.array(bits, dtype=np.int8).reshape(1, -1)
                           for bits in (noise_bits, prep_bits, parity_bits))
    return _realization_pmfs(ctx, apply_gamma, _prepare_realizations(ctx, noise, prep),
                             parity)[0]


@dataclass
class _BranchPlan:
    """Column layout of the per-attempt uniform draws for one branch."""

    n_noise: int
    n_prep: int
    n_parity: int
    use_hardware: bool
    hardware_success: float

    @property
    def columns(self) -> int:
        return self.n_noise + self.n_prep + self.n_parity + int(self.use_hardware) + 1


def _branch_plan(ctx: _Context, apply_gamma: bool) -> _BranchPlan:
    config = ctx.config
    n_checks = 2 * len(ctx.fragment)  # two CNOTs per parity check
    return _BranchPlan(
        n_noise=len(_noise_sites(config.noise.mode, ctx.layout)),
        n_prep=0 if config.cnot_model == CNOT_IDEAL else len(_SQD_PREP_CNOTS),
        n_parity=n_checks if apply_gamma and config.cnot_model == CNOT_NOISY_PREP_PARITY else 0,
        use_hardware=apply_gamma and config.noise.p_cnot < 1.0,
        hardware_success=config.noise.p_cnot ** n_checks,
    )


def _sample_branch(ctx: _Context, apply_gamma: bool, wanted: int, branch_tag: int,
                   prepared: dict) -> tuple[np.ndarray, int, int]:
    """Sample one branch until ``wanted`` successful runs are collected.

    Returns (outcome counts over SF outcomes, null-run count, attempts).
    Runs discarded by parity-check hardware failure do not count; runs whose
    objectivity projection misses are recorded as the null outcome and do
    count as successful.  Attempts are drawn and evaluated a block at a time:
    each run's coins are packed into an integer key, each distinct key's
    outcome CDF is built once per call, and a run's outcome is the CDF bin
    its uniform falls in.  ``prepared`` maps the (noise, prep) coins, the
    low bits of a key, to prepared states; both branches of one call pass
    the same dict.  A block prepares its missing states as one stack and
    evaluates its new keys in stacks of at most ``_MC_CHUNK`` states.  The
    results equal a run-by-run loop over the same draws.
    """
    config = ctx.config
    plan = _branch_plan(ctx, apply_gamma)
    n_outcomes = int(np.prod([ctx.layout.dim_of(lab) for lab in ctx.sf_labels]))
    n_coins = plan.n_noise + plan.n_prep + plan.n_parity
    thresholds = np.array([config.noise.p] * plan.n_noise
                          + [1.0 - config.noise.f] * (n_coins - plan.n_noise))
    tally = np.zeros(n_outcomes + 1, dtype=np.int64)  # the null outcome last
    cdfs: dict[int, np.ndarray] = {}
    collected = attempts = failures = 0  # failures: hardware failures in a row

    block_index = 0
    while collected < wanted:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.seed, branch_tag, block_index)))
        u = rng.random((_MC_BLOCK, plan.columns))
        ok = (u[:, n_coins] < plan.hardware_success if plan.use_hardware
              else np.ones(_MC_BLOCK, dtype=bool))
        # Rows after the one that completes ``wanted`` are not attempted.
        n = min(_MC_BLOCK, int(np.searchsorted(np.cumsum(ok), wanted - collected)) + 1)
        ok, rows = ok[:n], np.arange(n)
        run = rows - np.maximum.accumulate(np.where(ok, rows, -1 - failures))
        aborted = np.flatnonzero(~ok & (run >= TOL.mc_abort_window))
        if aborted.size:
            raise NonterminatingSampling(
                f"no successful run in {int(run[aborted[0]])} attempts; "
                f"estimated success probability below 1e-6 "
                f"(p_cnot = {config.noise.p_cnot}, "
                f"fragment size {len(ctx.fragment)})"
            )
        failures, attempts = int(run[-1]), attempts + n

        good = u[:n][ok]  # the successful runs
        coins = (good[:, :n_coins] < thresholds).astype(np.int8)
        keys, first, inverse = np.unique(coins @ (1 << np.arange(n_coins)),
                                         return_index=True, return_inverse=True)
        new = [j for j, key in enumerate(keys.tolist()) if key not in cdfs]
        if new:
            _add_cdfs(ctx, apply_gamma, plan, keys[new], coins[first[new]], prepared, cdfs)
        # The bin count equals searchsorted(cdf, u, side="right"): CDFs are sorted.
        table = np.array([cdfs[key] for key in keys])[inverse]
        bins = (table <= good[:, -1:]).sum(axis=1)
        tally += np.bincount(np.minimum(bins, n_outcomes), minlength=n_outcomes + 1)
        collected += len(bins)
        block_index += 1
    return tally[:-1], int(tally[-1]), attempts


def _add_cdfs(ctx: _Context, apply_gamma: bool, plan: _BranchPlan, keys: np.ndarray,
              coins: np.ndarray, prepared: dict, cdfs: dict) -> None:
    """Add the normalized outcome CDFs of new realizations to ``cdfs``.

    ``keys`` are the packed coin rows ``coins``; the states that ``prepared``
    lacks are prepared first, then the realizations are evaluated
    ``_MC_CHUNK`` at a time.
    """
    n_state = plan.n_noise + plan.n_prep
    state_keys = (keys & ((1 << n_state) - 1)).tolist()
    missing = {key: j for j, key in enumerate(state_keys) if key not in prepared}
    new_states, rows = list(missing), coins[list(missing.values())]
    for start in range(0, len(rows), _MC_CHUNK):
        chunk = rows[start:start + _MC_CHUNK]
        prepared.update(zip(new_states[start:start + _MC_CHUNK], _prepare_realizations(
            ctx, chunk[:, :plan.n_noise], chunk[:, plan.n_noise:n_state])))
    for start in range(0, len(keys), _MC_CHUNK):
        chunk = slice(start, start + _MC_CHUNK)
        states = np.stack([prepared[key] for key in state_keys[chunk]])
        cdf = np.cumsum(_realization_pmfs(ctx, apply_gamma, states,
                                          coins[chunk, n_state:]), axis=1)
        total = cdf[:, -1:]
        cdfs.update(zip(keys[chunk].tolist(),
                        np.where(total > 0, cdf / np.where(total > 0, total, 1.0), cdf)))


def _bootstrap_stderr(counts_id: np.ndarray, n_id: int, counts_g: np.ndarray,
                      null_g: int, n_g: int, seed: int) -> float:
    """Bootstrap standard error of the subset-maximum estimator."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2, 0)))
    p_id = counts_id / n_id
    full_g = np.append(counts_g, null_g) / n_g
    boot_id = rng.multinomial(n_id, p_id, size=_BOOTSTRAP_RESAMPLES) / n_id
    boot_g = rng.multinomial(n_g, full_g, size=_BOOTSTRAP_RESAMPLES)[:, :-1] / n_g
    diffs = boot_id - boot_g
    positives = np.where(diffs > 0.0, diffs, 0.0).sum(axis=1)
    negatives = np.where(diffs < 0.0, diffs, 0.0).sum(axis=1)
    stats = np.maximum(positives, -negatives)
    return float(np.std(stats, ddof=1))


def witness_monte_carlo(config: ProtocolConfig) -> WitnessReport:
    """Estimate the witness from simulated experimental runs.

    Each run draws a stochastic realization (noise coins, gate-fidelity
    coins), post-selects on parity-check hardware success, and records one
    measurement outcome; objectivity-projection misses are recorded as the
    null outcome.  Empirical branch probabilities feed the same subset
    maximization as exact mode, and the standard error comes from a seeded
    bootstrap over run outcomes.
    """
    if config.shots <= 0:
        raise InvariantViolation("Monte Carlo mode requires shots > 0")
    n_id, n_g = config.split_shots()
    ctx = _resolve_context(config)

    prepared: dict = {}  # both branches draw the same (noise, prep) coins
    counts_id, _, _ = _sample_branch(ctx, False, n_id, 0, prepared)
    counts_g, null_g, _ = _sample_branch(ctx, True, n_g, 1, prepared)

    stderr = _bootstrap_stderr(counts_id, n_id, counts_g, null_g, n_g, config.seed)
    return _report(ctx, prepare_initial(config), counts_id / n_id, counts_g / n_g,
                   stderr, n_id + n_g)


def run_witness(config: ProtocolConfig) -> WitnessReport:
    """Dispatch to exact or Monte Carlo mode based on the shot count."""
    return witness_exact(config) if config.shots == 0 else witness_monte_carlo(config)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def cost_model(m_envs: int, c: int, p_cnot: float, f_cnot: float = 1.0) -> CostComparison:
    """Run counts for tomography versus the witness, with the CNOT budget.

    Tomography of 1 + 2M photons needs C counts in each of 3^(1+2M) basis
    combinations.  The witness needs C identity-branch runs plus enough
    attempts that C projected-branch runs survive the 2M parity-check CNOTs,
    each succeeding with effective probability p_cnot * f_cnot.  The
    crossover is the per-environment break-even success probability
    1 / (3 f_cnot): above it the witness scales better as environments are
    added.
    """
    if m_envs < 1:
        raise InvariantViolation("m_envs must be at least 1")
    if c < 1:
        raise InvariantViolation("c must be at least 1")
    if not 0.0 < p_cnot <= 1.0:
        raise InvariantViolation(f"p_cnot {p_cnot} outside (0, 1]")
    if not 0.0 < f_cnot <= 1.0:
        raise InvariantViolation(f"f_cnot {f_cnot} outside (0, 1]")
    effective = p_cnot * f_cnot
    tomography = c * 3 ** (1 + 2 * m_envs)
    witness = c + c * (1.0 / effective) ** (2 * m_envs)
    return CostComparison(
        tomography_runs=int(tomography),
        witness_runs=float(witness),
        witness_wins=bool(witness < tomography),
        crossover_p=1.0 / (3.0 * f_cnot),
    )
