"""Shared helpers: random states, unitaries and subspace specs, a Kraus
oracle for the noise channels, and a run-by-run oracle for the Monte Carlo
sampler."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qdarwin import (
    CNOT,
    DensityOperator,
    NonterminatingSampling,
    ObjectiveSubspaceSpec,
    PureState,
    TensorLayout,
    apply_gate,
    objectivity_operation_sqd,
    point_channel,
)
from qdarwin.channels import depolarize_subsystems
from qdarwin.hilbert import embed_operator
from qdarwin.protocol import _marginalize_to_sf
from qdarwin.tolerances import TOL


def qubits(*labels: str) -> TensorLayout:
    return TensorLayout([(lab, 2) for lab in labels])


def random_density(layout: TensorLayout, rng: np.random.Generator,
                   rank: int | None = None) -> DensityOperator:
    d = layout.total_dim
    k = d if rank is None else rank
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return DensityOperator(layout, m / np.trace(m).real)


def random_pure(layout: TensorLayout, rng: np.random.Generator) -> PureState:
    d = layout.total_dim
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(layout, v / np.linalg.norm(v))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace_spec(rng: np.random.Generator,
                         environments: dict[str, tuple[str, ...]],
                         member_dim: int = 2) -> ObjectiveSubspaceSpec:
    """Random preferred basis and random disjoint subspace split per environment."""
    projectors = {}
    for name, members in environments.items():
        d_env = member_dim ** len(members)
        v = random_unitary(d_env, rng)
        split = int(rng.integers(1, d_env))
        p0 = v[:, :split] @ v[:, :split].conj().T
        p1 = v[:, split:] @ v[:, split:].conj().T
        projectors[name] = (p0, p1)
    basis = random_unitary(2, rng)
    return ObjectiveSubspaceSpec("S", basis, environments, projectors)


def depolarizing_kraus(d: int, p: float) -> list[np.ndarray]:
    """Kraus operators of (1 - p) rho + p I/d: sqrt(1 - p) I and the d^2
    matrix units |i><j| scaled by sqrt(p / d)."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return [np.sqrt(1.0 - p) * np.eye(d)] + list(np.sqrt(p / d) * units)


def noisy_cnot_kraus(f: float) -> list[np.ndarray]:
    """Kraus operators of a CNOT whose output pair is depolarized with
    weight 1 - f: the depolarizing operators composed with the CNOT."""
    return [k @ CNOT for k in depolarizing_kraus(4, 1.0 - f)]


def apply_kraus(rho: DensityOperator, kraus_ops: list[np.ndarray],
                targets: list[str]) -> DensityOperator:
    """sum_k K rho K^dag with each K embedded on ``targets``."""
    d = kraus_ops[0].shape[0]
    assert np.allclose(sum(k.conj().T @ k for k in kraus_ops), np.eye(d), atol=1e-12)
    out = np.zeros_like(rho.matrix)
    for k in kraus_ops:
        k_full = embed_operator(rho.layout, k, targets)
        out += k_full @ rho.matrix @ k_full.conj().T
    return DensityOperator(rho.layout, out)


# ---------------------------------------------------------------------------
# Run-by-run Monte Carlo oracle
# ---------------------------------------------------------------------------

@dataclass
class CoinPlan:
    """Column layout of the per-attempt uniform draws for one branch: the
    noise coins, the preparation-CNOT coins, the parity-check-CNOT coins, the
    hardware coin and the outcome uniform."""

    n_noise: int
    n_prep: int
    n_parity: int
    use_hardware: bool
    hardware_success: float

    @property
    def columns(self) -> int:
        return self.n_noise + self.n_prep + self.n_parity + int(self.use_hardware) + 1


def coin_plan(config, ctx, apply_gamma: bool) -> CoinPlan:
    n_checks = 2 * len(ctx.fragment)  # two CNOTs per parity check
    return CoinPlan(
        n_noise=1 if config.noise.mode == "mix_global" else len(ctx.layout),
        n_prep=0 if config.cnot_model == "ideal" else 2,
        n_parity=n_checks if apply_gamma and config.cnot_model == "noisy_prep_parity" else 0,
        use_hardware=apply_gamma and config.noise.p_cnot < 1.0,
        hardware_success=config.noise.p_cnot ** n_checks,
    )


def _base_state(framework: str, layout: TensorLayout) -> DensityOperator:
    """SQD: |+> times a four-photon GHZ state, before the CNOTs; ISBS: GHZ5."""
    amps = np.zeros(32, dtype=complex)
    if framework == "SQD":
        amps[[0b00000, 0b01111, 0b10000, 0b11111]] = 0.5
    else:
        amps[[0, 31]] = 1.0 / math.sqrt(2.0)
    return PureState(layout, amps).to_density()


def realization_pmf(config, ctx, apply_gamma: bool, noise_bits, prep_bits,
                    parity_bits) -> np.ndarray:
    """Outcome pmf over the system-fragment register, null mass last, of the
    realization with these 0/1 coins (1 = the noise event happens): the
    pipeline with each coin as the weight of its step."""
    layout = ctx.layout
    rho = _base_state(config.framework, layout)
    if config.framework == "SQD":  # the ideal model draws no CNOT coins
        for pair, bit in zip((["S", "E1_1"], ["S", "E2_1"]), tuple(prep_bits) or (0, 0)):
            rho = (depolarize_subsystems(rho, pair, 0.0, 1.0) if bit
                   else apply_gate(rho, CNOT, pair))
    sites = [layout.labels] if config.noise.mode == "mix_global" else \
        [(label,) for label in layout.labels]
    for labels, bit in zip(sites, noise_bits, strict=True):
        rho = depolarize_subsystems(rho, labels, 1.0 - bit, float(bit))
    if ctx.ef_members:
        rho = point_channel(rho, ctx.ef_members, ctx.replacement)
    if apply_gamma:
        for k, name in enumerate(ctx.fragment):
            # A parity check scrambles its environment when either CNOT fails.
            scramble = float(any(parity_bits[2 * k:2 * k + 2]))
            rho = depolarize_subsystems(rho, ctx.spec.members_of([name]),
                                        1.0 - scramble, scramble)
        rho = objectivity_operation_sqd(rho, ctx.spec, ctx.fragment)
    u = ctx.unitary
    probs = np.clip(np.diag(u @ rho.matrix @ u.conj().T).real, 0.0, None)
    pmf = _marginalize_to_sf(probs, layout, ctx.sf_labels)
    return np.append(pmf, max(1.0 - pmf.sum(), 0.0))


def reference_sample_branch(config, ctx, apply_gamma: bool, wanted: int,
                            branch_tag: int, cache: dict | None = None):
    """Simulate one branch run by run until ``wanted`` runs succeed.

    Each attempt draws one row of uniforms (see ``CoinPlan``): its coins pick
    a realization, a failed hardware coin discards the run, and the outcome
    uniform picks a bin of the realization's normalized CDF, the null outcome
    last.  A run of ``TOL.mc_abort_window`` discards in a row aborts.
    ``cache`` maps coin tuples to CDFs and may be shared across calls on the
    same context and branch.  Returns (counts over SF outcomes, null count).
    """
    plan = coin_plan(config, ctx, apply_gamma)
    n_outcomes = int(np.prod([ctx.layout.dim_of(lab) for lab in ctx.sf_labels]))
    tally = np.zeros(n_outcomes + 1, dtype=np.int64)
    cache = {} if cache is None else cache
    collected = failures = block_index = 0
    block = 4096
    gate_noise = 1.0 - config.noise.f
    while collected < wanted:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.seed, branch_tag, block_index)))
        u = rng.random((block, plan.columns))
        bounds = np.cumsum([0, plan.n_noise, plan.n_prep, plan.n_parity])
        noise_bits = (u[:, :bounds[1]] < config.noise.p).astype(np.int8)
        gate_bits = (u[:, bounds[1]:bounds[3]] < gate_noise).astype(np.int8)
        hardware_ok = (u[:, bounds[3]] < plan.hardware_success if plan.use_hardware
                       else np.ones(block, dtype=bool))
        for r in range(block):
            if collected >= wanted:
                break
            if not hardware_ok[r]:
                failures += 1
                if failures >= TOL.mc_abort_window:
                    raise NonterminatingSampling(f"no successful run in {failures} attempts")
                continue
            failures = 0
            key = (tuple(noise_bits[r]), tuple(gate_bits[r, :plan.n_prep]),
                   tuple(gate_bits[r, plan.n_prep:]))
            if key not in cache:
                cdf = np.cumsum(realization_pmf(config, ctx, apply_gamma, *key))
                cache[key] = cdf / cdf[-1] if cdf[-1] > 0 else cdf
            tally[min(int(np.searchsorted(cache[key], u[r, -1], side="right")),
                      n_outcomes)] += 1
            collected += 1
        block_index += 1
    return tally[:-1], int(tally[-1])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
