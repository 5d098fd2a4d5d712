"""Gates and noise processes for the simulated photonic circuits.

Covers unitary gate application, noise as the replacement of some
subsystems by I/d with a weight (local depolarization, global noise mixing,
and the pair depolarization that follows a noisy CNOT, whose average gate
fidelity is given in closed form), and the point channel that discards part
of the environment and installs a fresh uncorrelated state.

Subsystem replacement and depolarization work on (k, d, d) stacks of
states with per-row weights (``_replace_subsystems``, ``_depolarize_stack``);
the public ``depolarize_subsystems`` and ``point_channel`` are their
single-state forms, so each row of a stack equals the public function on it
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hilbert import (
    DensityOperator,
    InvariantViolation,
    PureState,
    TensorLayout,
    _partial_trace_stack,
    embed_operator,
    permute_subsystems,
)
from .tolerances import TOL

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=np.complex128,
)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    """Noise parameters of a simulated run.

    p is the added-noise strength, mode selects global mixing or local
    depolarization, f is the CNOT depolarization weight and p_cnot the CNOT
    success probability used for run discarding in Monte Carlo mode.
    """

    p: float = 0.0
    mode: str = "mix_global"
    f: float = 1.0
    p_cnot: float = 1.0

    def __post_init__(self):
        _check_unit_interval(self.p, "p")
        _check_unit_interval(self.f, "f")
        if self.mode not in ("mix_global", "depolarize_local"):
            raise InvariantViolation(f"unknown noise mode {self.mode!r}")
        if not 0.0 < self.p_cnot <= 1.0:
            raise InvariantViolation(f"p_cnot {self.p_cnot} outside (0, 1]")


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvariantViolation(f"{name} = {value} outside [0, 1]")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def apply_gate(rho: DensityOperator, unitary: np.ndarray,
               targets: Sequence[str]) -> DensityOperator:
    """Conjugate ``rho`` by a unitary embedded on the target subsystems."""
    u = np.asarray(unitary, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvariantViolation(f"unitary must be square, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if dev > TOL.unitarity:
        raise InvariantViolation(f"matrix is not unitary (max dev {dev:.3e})")
    u_full = embed_operator(rho.layout, u, targets)
    return DensityOperator._trusted(rho.layout, u_full @ rho.matrix @ u_full.conj().T)


def depolarize_subsystems(rho: DensityOperator, labels: Sequence[str],
                          keep: float, noise: float) -> DensityOperator:
    """keep * rho + noise * (rho with the listed subsystems replaced by I/d).

    The replacement keeps the marginal of the other subsystems and the trace.
    Callers pass both weights in the form they hold them, so 1 - (1 - f) is
    never formed; a 0/1 weight (a sampled coin) skips the unused term.  The
    weights must be nonnegative with keep + noise <= 1, so the output is a CP
    map of ``rho`` and needs no further validation.
    """
    if keep < 0 or noise < 0 or keep + noise > 1.0 + TOL.trace_upper_slack:
        raise InvariantViolation(f"weights keep = {keep}, noise = {noise} are not "
                                 "a subnormalized mixture")
    return DensityOperator._trusted(rho.layout, _depolarize_stack(
        rho.matrix[None], rho.layout, labels, [keep], [noise])[0])


def _depolarize_stack(matrices: np.ndarray, layout: TensorLayout, labels: Sequence[str],
                      keep: Sequence[float], noise: Sequence[float]) -> np.ndarray:
    """``depolarize_subsystems`` on each row of a (k, d, d) stack, with the
    row's own weights ``keep[r]`` and ``noise[r]`` (unchecked).

    A row with zero noise passes through unchanged and a row with zero keep
    becomes its replacement; the replacement is formed only for rows with
    nonzero noise.
    """
    keep, noise = np.asarray(keep, dtype=float), np.asarray(noise, dtype=float)
    noisy = np.flatnonzero(noise != 0)
    if not noisy.size:
        return matrices
    d = layout.subset(labels).total_dim
    replaced = _replace_subsystems(matrices[noisy], layout, labels,
                                   np.eye(d, dtype=np.complex128) / d)
    mixed = np.flatnonzero(keep[noisy] != 0)
    if mixed.size:
        rows = noisy[mixed]
        replaced[mixed] = (keep[rows, None, None] * matrices[rows]
                           + noise[rows, None, None] * replaced[mixed])
    if noisy.size == len(matrices):
        return replaced
    out = matrices.copy()
    out[noisy] = replaced
    return out


def _replace_subsystems(matrices: np.ndarray, layout: TensorLayout, labels: Sequence[str],
                        replacement_matrix: np.ndarray) -> np.ndarray:
    """Discard the listed subsystems of each row of a (k, d, d) stack and
    install ``replacement_matrix`` there.

    Each row's kept marginal is multiplied by the replacement as
    ``np.kron`` does, then transposed back to canonical order.
    """
    labels = list(labels)
    keep = [lab for lab in layout.labels if lab not in labels]
    replacement = np.asarray(replacement_matrix, dtype=np.complex128)
    if not keep:
        return replacement * np.trace(matrices, axis1=1, axis2=2).real[:, None, None]
    kept = _partial_trace_stack(matrices, layout, keep)
    prod_layout = TensorLayout(layout.subset(keep).subsystems
                               + layout.subset(labels).subsystems)
    return permute_subsystems(np.kron(kept, replacement), prod_layout, layout.labels)


def average_gate_fidelity(f: float) -> float:
    """Average gate fidelity (63 f + 17) / 80 of the depolarizing-output CNOT."""
    _check_unit_interval(f, "f")
    return (63.0 * f + 17.0) / 80.0


def depolarize_local(rho: DensityOperator, p: float,
                     targets: Iterable[str]) -> DensityOperator:
    """Independently depolarize each target: rho -> (1-p) rho + p I/d locally."""
    _check_unit_interval(p, "p")
    out = rho
    for label in targets:
        out = depolarize_subsystems(out, [label], 1.0 - p, p)
    return out


def mix_with_noise(rho: DensityOperator, p: float) -> DensityOperator:
    """Mix with the maximally mixed state: (1-p) rho + p I/total_dim."""
    _check_unit_interval(p, "p")
    return depolarize_subsystems(rho, rho.layout.labels, 1.0 - p, p)


def point_channel(rho: DensityOperator, discard: Iterable[str],
                  replacement: DensityOperator | PureState) -> DensityOperator:
    """Discard the listed subsystems and install the replacement state.

    Output is the kept marginal tensored with the replacement, reordered to
    the canonical layout; all correlations with the discarded block are
    destroyed.
    """
    discard = list(discard)
    if not discard:
        raise InvariantViolation("discard set must be nonempty")
    if isinstance(replacement, PureState):
        replacement = replacement.to_density()
    expected = rho.layout.subset(discard)
    if replacement.layout.subsystems != expected.subsystems:
        raise InvariantViolation(
            f"replacement layout {replacement.layout.labels} != discarded "
            f"subsystems {expected.labels}"
        )
    return DensityOperator._trusted(rho.layout, _replace_subsystems(
        rho.matrix[None], rho.layout, discard, replacement.matrix)[0])
