"""Gates and noise processes for the simulated photonic circuits.

Covers unitary gate application, noise as the replacement of some
subsystems by I/d with a weight (local depolarization, global noise mixing,
and the pair depolarization that follows a noisy CNOT, whose average gate
fidelity is given in closed form), and the point channel that discards part
of the environment and installs a fresh uncorrelated state.  Depolarization
is the point channel with I/d as the installed state, mixed with the input.
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
    embed_operator,
    partial_trace,
    permute_subsystems,
    require_unitary,
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
    u_full = embed_operator(rho.layout, require_unitary(unitary), targets)
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
    if noise == 0:
        return rho
    sub = rho.layout.subset(labels)
    d = sub.total_dim
    replaced = point_channel(rho, labels, DensityOperator._trusted(sub, np.eye(d) / d))
    if keep == 0:
        return replaced
    return DensityOperator._trusted(rho.layout, keep * rho.matrix + noise * replaced.matrix)


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
    keep = [lab for lab in rho.layout.labels if lab not in discard]
    if not keep:
        return DensityOperator._trusted(rho.layout, replacement.matrix * rho.trace)
    kept = partial_trace(rho, keep)
    # The kept marginal times the replacement, as np.kron orders them, then
    # transposed back to canonical order.
    product = TensorLayout(kept.layout.subsystems + expected.subsystems)
    return DensityOperator._trusted(rho.layout, permute_subsystems(
        np.kron(kept.matrix, replacement.matrix), product, rho.layout.labels))
