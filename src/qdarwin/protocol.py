"""End-to-end non-objectivity witness protocol in exact and Monte Carlo modes.

A run prepares a noisy system-environment state, isolates the accessed
fragment with a point channel, either leaves the system-fragment untouched or
applies the objectivity operation, evolves under local Hadamards, and measures
in the computational basis.  The witness is built from the per-outcome
probability differences of the two branches; the subset maximization over
outcomes never needs extra measurement settings.

Both modes run one pipeline, ``_prepare`` followed by ``_branch``, on
stacks of states, and one evaluation, ``_evaluate``: it takes each branch's
pmf, which exact mode reports and Monte Carlo mode draws from.
Every noise event in the pipeline replaces some photons by I/d with a
weight: global mixing or local depolarization of strength p, depolarizing
preparation CNOTs that keep their output with weight f, and parity checks
whose two depolarizing CNOTs scramble the checked environment with weight
1 - f^2.  Exact mode passes these probabilities as the weights.  In a Monte
Carlo run each event is a 0/1 coin, and the run's outcome follows the pmf of
its coin realization.  Each coin enters the pipeline as one affine weight,
so the mean of those pmfs over the coins is exact mode's pmf: a branch's
tally of runs is one multinomial draw from it.  Parity-check hardware
failures discard projected-branch runs and cost attempts, drawn as geometric
gaps.  Each branch draws from its own seeded stream, so results are
bit-reproducible for a given seed.  States are validated where they enter
the pipeline and where they leave it; the CP maps in between build their
outputs unchecked.  ``run_witnesses`` runs a list of configs, such as a
sweep's points, as stacks, each stage called once per stack; a single
witness is a stack of one.  Its reports equal one call per config.

The two experiments differ only in their setup, one ``_EXPERIMENTS`` record
per framework: the register, the preset subspace and its CLI name
(``parity2`` for SQD, ``computational`` for ISBS), the equal-weight base
state, the preparation CNOTs (the ISBS GHZ state has none, so it takes no
CNOT noise), the default unitary preset and whether a custom subspace must
be a basis spec.  No other code branches on a framework or a preset name.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    CNOT,
    HADAMARD,
    NoiseConfig,
    apply_gate,
    depolarize_stack,
    depolarize_subsystems,
    replace_subsystems,
)
from .hilbert import (
    DensityOperator,
    InvariantViolation,
    PureState,
    TensorLayout,
    computational_ket,
    require_density,
    require_unitary,
    trace_out,
)
from .objectivity import (
    ObjectiveSubspaceSpec,
    computational_spec,
    embedded_projectors,
    nonobjectivity_measures,
    parity_spec,
    project,
    require_basis_spec,
    require_spec_fits,
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

_BOOTSTRAP_RESAMPLES = 1000
# Most failure gaps the Monte Carlo sampler draws in one call.
_GAP_CHUNK = 1 << 16


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


class _Experiment(NamedTuple):
    """One framework's experiment (see the module docstring)."""

    layout: TensorLayout  # the register
    preset: str  # the CLI name of ``spec``
    spec: ObjectiveSubspaceSpec  # the preset subspace: shared, read-only, memoized
    base: tuple[int, ...]  # register indices of the equal-weight base state
    cnots: tuple[tuple[str, str], ...]  # preparation CNOTs, (control, target)
    unitary: str  # the default unitary preset
    basis_only: bool  # a custom subspace must be a basis spec


_EXPERIMENTS = {
    # |+> on the system and a four-photon GHZ state on the environments; the
    # CNOTs copy the system onto each environment's parity.
    FRAMEWORK_SQD: _Experiment(
        sqd_layout(), "parity2", parity_spec(2), (0b00000, 0b01111, 0b10000, 0b11111),
        (("S", "E1_1"), ("S", "E2_1")), UNITARY_ALTERNATING, False),
    FRAMEWORK_ISBS: _Experiment(  # a five-photon GHZ state
        isbs_layout(), "computational", computational_spec(4), (0b00000, 0b11111),
        (), UNITARY_ALL, True),
}


# ---------------------------------------------------------------------------
# Configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Full description of one witness evaluation.

    ``shots`` = 0 selects exact mode.  In Monte Carlo mode the successful
    runs are split evenly between the two branches unless ``branch_shots``
    overrides the split; its two entries must add up to ``shots``.
    ``unitary`` may be a preset name or an explicit unitary matrix over the
    framework's whole register, whatever the ``subspace``; ``subspace``
    defaults to the framework's preset.  ``replacement``, the state the
    point channel installs, must be normalized and span the unaccessed
    environments in layout order.  Construction rejects every field value
    the pipeline would fail on or silently mis-run, and keeps the resolved
    subspace as the non-field attribute ``spec``, so ``dataclasses.replace``
    resolves again.
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
        experiment = _EXPERIMENTS.get(self.framework)
        if experiment is None:
            raise InvariantViolation(f"unknown framework {self.framework!r}")
        if not self.fragment:
            raise InvariantViolation("fragment must be nonempty")
        if not 0 <= self.shots <= np.iinfo(np.int64).max:  # a multinomial draw's count
            raise InvariantViolation(f"shots must be nonnegative and below 2^63: {self.shots}")
        if self.seed < 0:
            raise InvariantViolation(f"seed {self.seed} must be nonnegative")
        if self.cnot_model not in (CNOT_IDEAL, CNOT_NOISY_PREP, CNOT_NOISY_PREP_PARITY):
            raise InvariantViolation(f"unknown cnot_model {self.cnot_model!r}")
        if self.branch_shots is not None:
            a, b = self.branch_shots
            if a < 1 or b < 1:
                raise InvariantViolation("branch_shots entries must be positive")
            if a + b != self.shots:  # so exact mode (shots = 0) takes no split
                raise InvariantViolation(f"branch_shots {a} + {b} != shots {self.shots}")
        elif self.shots == 1:
            raise InvariantViolation("shots = 1 leaves a branch without runs: "
                                     "Monte Carlo mode needs at least 2")
        if not experiment.cnots and (self.cnot_model != CNOT_IDEAL or self.noise.p_cnot < 1):
            raise InvariantViolation(
                f"the {self.framework} experiment has no CNOTs: it takes cnot_model "
                f"{CNOT_IDEAL!r} and p_cnot 1 only, not {self.cnot_model!r} and "
                f"{self.noise.p_cnot}")
        spec = self.subspace if self.subspace is not None else experiment.spec
        spec.select(self.fragment)
        if experiment.basis_only and self.subspace is not None:
            require_basis_spec(spec)  # the preset is one by construction
        object.__setattr__(self, "spec", spec)
        layout = experiment.layout
        require_spec_fits(spec, spec.environment_names, layout)
        if self.replacement is not None:
            unaccessed = _unaccessed(layout, spec, self.fragment)
            expected = tuple(s for s in layout.subsystems if s[0] in unaccessed)
            if self.replacement.layout.subsystems != expected:
                raise InvariantViolation(
                    f"replacement layout {list(self.replacement.layout.labels)} != "
                    f"unaccessed subsystems {list(unaccessed)}")
            if isinstance(self.replacement, DensityOperator) \
                    and not abs(self.replacement.trace - 1.0) <= TOL.entropy_trace:
                raise InvariantViolation(
                    f"replacement trace {self.replacement.trace} is not 1")
        if self.unitary is not None:
            _resolve_unitary(self)

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
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        return {f.name: _REPORT_CODECS[f.type][0](getattr(self, f.name))
                for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "WitnessReport":
        return WitnessReport(**{f.name: _REPORT_CODECS[f.type][1](data[f.name])
                                for f in fields(WitnessReport)})


# (to JSON, from JSON) for each annotation of a ``WitnessReport`` field.
_REPORT_CODECS = {
    "str": (str, str),
    "int": (int, int),
    "float": (float, float),
    "float | None": (lambda v: None if v is None else float(v),) * 2,
    "tuple[str, ...]": (list, tuple),
    "np.ndarray": (lambda v: [float(x) for x in v], lambda v: np.asarray(v, dtype=float)),
}


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
    """What a config's fragment, spec, replacement and unitary fix, whatever
    its noise, shots or seed."""

    layout: TensorLayout
    spec: ObjectiveSubspaceSpec
    fragment: tuple[str, ...]
    sf_labels: tuple[str, ...]
    ef_members: tuple[str, ...]
    replacement: DensityOperator | None
    unitary: np.ndarray
    outcome_labels: tuple[str, ...]


def _resolve_unitary(config: ProtocolConfig) -> np.ndarray:
    """The final unitary over the framework's register, and the only copy of
    its rules: a known preset name, or a matrix over the whole register that
    ``require_unitary`` accepts."""
    experiment = _EXPERIMENTS[config.framework]
    layout = experiment.layout
    choice = experiment.unitary if config.unitary is None else config.unitary
    if isinstance(choice, str):
        if choice not in (UNITARY_ALTERNATING, UNITARY_ALL):
            raise InvariantViolation(f"unknown unitary preset {choice!r}")
        spec = config.spec
        hadamard_labels: set[str] = {spec.system_label}
        if choice == UNITARY_ALL:
            hadamard_labels |= set(layout.labels)
        else:
            # Hadamard on the system and on the last photon of each environment.
            hadamard_labels |= {members[-1] for _, members in spec.environments}
        u = np.array([[1.0 + 0.0j]])
        for label, dim in layout.subsystems:
            u = np.kron(u, HADAMARD if label in hadamard_labels
                        else np.eye(dim, dtype=np.complex128))
        return u
    return require_unitary(choice, layout.total_dim)


def _resolve_context(config: ProtocolConfig) -> _Context:
    layout = _EXPERIMENTS[config.framework].layout
    spec = config.spec
    fragment = spec.select(config.fragment)
    ef_members = _unaccessed(layout, spec, fragment)
    sf_labels = tuple(lab for lab in layout.labels if lab not in ef_members)
    replacement = config.replacement  # always None when ef_members is empty
    if ef_members and replacement is None:
        sub = layout.subset(ef_members)
        replacement = computational_ket(sub, [0] * len(sub))
    if isinstance(replacement, PureState):
        replacement = replacement.to_density()
    unitary = _resolve_unitary(config)
    return _Context(
        layout=layout, spec=spec, fragment=fragment, sf_labels=sf_labels,
        ef_members=ef_members, replacement=replacement, unitary=unitary,
        outcome_labels=_outcome_labels(layout, sf_labels),
    )


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------

def _prepare(framework: str, cnot_model: str, f: float, mode: str,
             ps: Sequence[float]) -> np.ndarray:
    """A stack of initial states, a row per p in ``ps``: mixtures over the
    noise events of the preparation.  Each preparation CNOT of the
    framework's experiment keeps its ideal output with weight f (1 in the
    ideal model) and otherwise replaces its two qubits by I/4; then the
    added noise replaces the whole register (global mixing) or each photon
    in turn (local depolarization) by I/d with weight p.
    """
    experiment = _EXPERIMENTS[framework]
    amps = np.zeros(experiment.layout.total_dim, dtype=np.complex128)
    amps[list(experiment.base)] = 1.0 / math.sqrt(len(experiment.base))
    rho = PureState(experiment.layout, amps).to_density()
    f = 1.0 if cnot_model == CNOT_IDEAL else f
    for pair in experiment.cnots:
        if f:  # a fully replaced pair keeps no trace of the gate
            rho = apply_gate(rho, CNOT, pair)
        rho = depolarize_subsystems(rho, pair, f, 1.0 - f)
    p = np.array(ps, dtype=float)
    stack = np.broadcast_to(rho.matrix, p.shape + rho.matrix.shape)
    labels = rho.layout.labels
    for site in [labels] if mode == "mix_global" else [(lab,) for lab in labels]:
        stack = depolarize_stack(stack, rho.layout, site, 1.0 - p, p)
    require_density(stack)  # the pipeline's entry check
    stack.flags.writeable = False  # no stage writes into its input
    return stack


def prepare_initial_sqd(noise: NoiseConfig,
                        cnot_model: str = CNOT_IDEAL) -> DensityOperator:
    """Branching system-environment state of the SQD experiment (see
    ``_EXPERIMENTS``) followed by the configured noise."""
    stack = _prepare(FRAMEWORK_SQD, cnot_model, noise.f, noise.mode, [noise.p])
    return DensityOperator._trusted(_EXPERIMENTS[FRAMEWORK_SQD].layout, stack[0])


def prepare_initial_isbs(noise: NoiseConfig,
                         cnot_model: str = CNOT_IDEAL) -> DensityOperator:
    """Five-photon GHZ state followed by the configured noise; it is
    prepared without CNOTs, so ``cnot_model`` has no effect."""
    stack = _prepare(FRAMEWORK_ISBS, cnot_model, noise.f, noise.mode, [noise.p])
    return DensityOperator._trusted(_EXPERIMENTS[FRAMEWORK_ISBS].layout, stack[0])


# ---------------------------------------------------------------------------
# Branch evaluation
# ---------------------------------------------------------------------------

def _branch(rho: np.ndarray, ctx: _Context, cnot_model: str, f: float) -> list[np.ndarray]:
    """Computational-basis outcome probabilities over the full register of
    the identity and the projected branch, a row per state of ``rho``.

    Applies the point channel on the unaccessed environments and, in the
    projected branch under the ``noisy_prep_parity`` CNOT model, scrambles
    each fragment environment to I/d with weight 1 - f^2 (its parity check's
    two depolarizing CNOTs) before the objectivity operation; then the final
    unitary.  A null projected state yields the all-zero vector.
    """
    scramble = 1.0 - f ** 2 if cnot_model == CNOT_NOISY_PREP_PARITY else 0.0
    layout, u = ctx.layout, ctx.unitary
    if ctx.ef_members:
        rho = replace_subsystems(rho, layout, ctx.ef_members, ctx.replacement.matrix)
    pmfs = []
    for apply_gamma in (False, True):
        if apply_gamma:
            for name in ctx.fragment:
                rho = depolarize_stack(rho, layout, ctx.spec.members_of([name]),
                                       1.0 - scramble, scramble)
            rho = project(rho, embedded_projectors(ctx.spec, ctx.fragment, layout))
        out = u @ rho @ u.conj().T
        # The pipeline's exit check: it bounds the clipped dips by TOL.psd_min_eig.
        require_density(out)
        pmfs.append(np.clip(np.diagonal(out, axis1=-2, axis2=-1).real, 0.0, None))
    return pmfs


def run_branch(rho_t: DensityOperator, config: ProtocolConfig,
               apply_gamma: bool) -> np.ndarray:
    """Exact outcome probabilities of one branch over the full register (see
    ``_branch``); ``rho_t`` must be a state on the framework's register."""
    ctx = _resolve_context(config)
    if rho_t.layout != ctx.layout:
        raise InvariantViolation(f"state layout {list(rho_t.layout.labels)} is not "
                                 f"the {config.framework} register")
    return _branch(rho_t.matrix[None], ctx, config.cnot_model, config.noise.f)[apply_gamma][0]


def _marginalize_to_sf(vector: np.ndarray, layout: TensorLayout,
                       sf_labels: Sequence[str]) -> np.ndarray:
    """Sum ``vector``, indexed by the register's outcomes, over the
    subsystems outside ``sf_labels``."""
    keep = set(sf_labels)
    axes = tuple(k for k, lab in enumerate(layout.labels) if lab not in keep)
    return vector.reshape(layout.dims).sum(axis=axes).reshape(-1)


def _outcome_labels(layout: TensorLayout, sf_labels: Sequence[str]) -> tuple[str, ...]:
    """One digit string per outcome of the ``sf_labels`` register, in index order."""
    digits = itertools.product(*(range(dim) for dim in layout.subset(sf_labels).dims))
    return tuple("".join(str(d) for d in outcome) for outcome in digits)


def _max_subset(differences: np.ndarray) -> float:
    """Largest |sum over an outcome subset| = max(positive sum, -negative sum)."""
    positive = float(np.sum(differences[differences > 0.0]))
    negative = float(np.sum(differences[differences < 0.0]))
    return max(positive, -negative)


def _sample_branch(config: ProtocolConfig, ctx: _Context, pmf: np.ndarray,
                   projected: bool, wanted: int) -> tuple[np.ndarray, int]:
    """Counts over SF outcomes and the null-run count of ``wanted`` successful
    runs of one branch, whose exact SF pmf is ``pmf``; each branch draws
    from its own stream of the config's seed.

    Given its noise coins, a run's outcome follows that realization's pmf,
    with the projection's missing trace as the null outcome.  Every coin is
    the weight of one affine step of the pipeline, so the pmf averaged over
    the coins is the pipeline at the coin means: the exact branch.  The
    counts are therefore one multinomial draw from the exact pmf.  In the
    projected branch with p_cnot < 1, parity-check hardware failures discard
    runs; the failures before each success are geometric, drawn in chunks of
    ``_GAP_CHUNK``, and the run aborts at the first chunk with a gap that
    reaches ``TOL.mc_abort_window``.
    """
    pmf = np.append(pmf, max(1.0 - pmf.sum(), 0.0))
    pmf /= pmf.sum()  # the total is at least 1; multinomial rejects a sum above 1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, int(projected))))
    tally = rng.multinomial(wanted, pmf)
    if projected and config.noise.p_cnot < 1.0:
        success = config.noise.p_cnot ** (2 * len(ctx.fragment))  # two CNOTs per check
        # An underflowed success probability draws the longest gaps instead.
        # Chunks of the draw give the gaps of one draw, in bounded memory.
        for start in range(0, wanted, _GAP_CHUNK):
            size = min(_GAP_CHUNK, wanted - start)
            gaps = rng.geometric(max(success, np.finfo(float).tiny), size=size) - 1
            if gaps.max() >= TOL.mc_abort_window:
                raise NonterminatingSampling(
                    f"no successful run in {TOL.mc_abort_window} attempts; "
                    f"estimated success probability below 1e-6 "
                    f"(p_cnot = {config.noise.p_cnot}, "
                    f"fragment size {len(ctx.fragment)})"
                )
    return tally[:-1], int(tally[-1])


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


def _evaluate(config: ProtocolConfig, ctx: _Context, measure: float,
              *pmfs: np.ndarray) -> WitnessReport:
    """The report of ``config`` in its shot count's mode, from its two rows
    of ``_branch`` and the non-objectivity measure of its prepared state.

    Exact mode reports the branches' SF pmfs and asserts witness <= measure
    whenever the objectivity operation itself is noiseless.  Monte Carlo mode
    reports the frequencies of runs drawn from them (see ``_sample_branch``),
    with a seeded bootstrap standard error.
    """
    p_id, p_g = (_marginalize_to_sf(pmf, ctx.layout, ctx.sf_labels) for pmf in pmfs)
    stderr, successful_runs = None, 0
    if config.shots:
        n_id, n_g = config.split_shots()
        counts_id, _ = _sample_branch(config, ctx, p_id, False, n_id)
        counts_g, null_g = _sample_branch(config, ctx, p_g, True, n_g)
        stderr = _bootstrap_stderr(counts_id, n_id, counts_g, null_g, n_g, config.seed)
        p_id, p_g, successful_runs = counts_id / n_id, counts_g / n_g, n_id + n_g
    diffs = p_id - p_g
    witness = _max_subset(diffs)
    if config.shots == 0 and config.cnot_model != CNOT_NOISY_PREP_PARITY \
            and witness > measure + TOL.witness_bound_slack:
        raise InvariantViolation(
            f"witness {witness} exceeds measure {measure} beyond tolerance"
        )
    return WitnessReport(
        framework=config.framework,
        fragment=ctx.fragment,
        outcome_labels=ctx.outcome_labels,
        p_identity=p_id,
        p_gamma=p_g,
        witness_single=np.abs(diffs),
        witness_max_subset=witness,
        measure=measure,
        stderr_max_subset=stderr,
        successful_runs=successful_runs,
        shots=config.shots,
        seed=config.seed,
        mode="exact" if config.shots == 0 else "monte_carlo",
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_witnesses(configs: Sequence[ProtocolConfig]) -> list[WitnessReport]:
    """The report of each config, in order, by its shot count's mode.

    The only place prepared states and contexts are made.  Each distinct
    context (framework, selected fragment, and the spec, replacement and
    unitary objects) is resolved once.  Each (context, preparation group)
    pair, the group being the framework, CNOT model, f and noise mode, is one
    ``_branch`` and measure stack: the ``_prepare`` stack of its distinct p
    values in first-seen order, prepared once per group and p tuple.
    If that raises, the configs run again one at a time, as stacks of one,
    so every report and the first error equal those of one call per config.
    """
    configs = tuple(configs)  # held for the call, so the ids of its objects stay unique
    try:
        return _run_stacked(configs)
    except Exception:  # whatever it is, the replay raises the per-config loop's first
        if len(configs) == 1:
            raise
    return [_run_stacked((config,))[0] for config in configs]


def _run_stacked(configs: tuple[ProtocolConfig, ...]) -> list[WitnessReport]:
    contexts: dict[tuple, _Context] = {}
    buckets: dict[tuple, dict[float, int]] = {}  # (context, group) -> {p: row}
    placed = []
    for config in configs:
        u = config.unitary
        key = (config.framework, config.spec.select(config.fragment), id(config.spec),
               id(config.replacement), id(u) if isinstance(u, np.ndarray) else u)
        if key not in contexts:
            contexts[key] = _resolve_context(config)
        bucket = (key, (config.framework, config.cnot_model, config.noise.f, config.noise.mode))
        ps = buckets.setdefault(bucket, {})
        placed.append((bucket, ps.setdefault(config.noise.p, len(ps)), config))
    prepare = functools.cache(_prepare)  # one stack per group and tuple of p
    evaluated = {}
    for (key, group), ps in buckets.items():
        rho, ctx = prepare(*group, tuple(ps)), contexts[key]
        identity, projected = _branch(rho, ctx, *group[1:3])  # its CNOT model and f
        sfs = trace_out(rho, ctx.layout, set(ctx.sf_labels))
        measures = nonobjectivity_measures(sfs, ctx.layout.subset(ctx.sf_labels), ctx.spec)
        evaluated[key, group] = list(zip(measures.tolist(), identity, projected))
    return [_evaluate(config, contexts[bucket[0]], *evaluated[bucket][row])
            for bucket, row, config in placed]


def witness_exact(config: ProtocolConfig) -> WitnessReport:
    """Exact-mode report of one config (see ``_evaluate``)."""
    if config.shots != 0:
        raise InvariantViolation("exact mode requires shots = 0")
    return run_witnesses([config])[0]


def witness_monte_carlo(config: ProtocolConfig) -> WitnessReport:
    """Monte Carlo report of one config (see ``_evaluate``)."""
    if config.shots <= 0:
        raise InvariantViolation("Monte Carlo mode requires shots > 0")
    return run_witnesses([config])[0]


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
    try:
        witness = c + c * (1.0 / effective) ** (2 * m_envs)
    except OverflowError:
        witness = math.inf
    if not witness < math.inf:
        raise InvariantViolation(
            f"witness run count overflows a float (m_envs = {m_envs}, c = {c}, "
            f"p_cnot = {p_cnot}, f_cnot = {f_cnot})")
    # Python prints an int of at most 4 300 digits by default.  3^17201 has
    # more, so a larger m_envs is capped there before the power is built.
    tomography = c * 3 ** (1 + 2 * min(m_envs, 8600))
    if tomography >= 10 ** 4300:
        raise InvariantViolation("tomography run count has more than 4300 digits "
                                 f"(m_envs = {m_envs}, c = {c})")
    return CostComparison(
        tomography_runs=int(tomography),
        witness_runs=float(witness),
        witness_wins=bool(witness < tomography),
        crossover_p=1.0 / (3.0 * f_cnot),
    )
