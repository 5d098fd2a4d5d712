"""Preferred objective subspaces, the projection-sum objectivity operations,
and the trace-norm non-objectivity measures.

Two operation variants exist: the subspace version, which pins a preferred
system basis and a disjoint subspace partition of each environment, and the
basis version, which pins a single correlated local basis across the system
and every fragment environment (rank-1 conditional projectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hilbert import (
    DensityOperator,
    InvariantViolation,
    embed_operator,
    trace_norm_distance,
)
from .tolerances import TOL

FRAMEWORK_SQD = "SQD"
FRAMEWORK_ISBS = "ISBS"


# ---------------------------------------------------------------------------
# Subspace specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObjectiveSubspaceSpec:
    """Preferred system basis plus per-environment conditional projectors.

    ``environments`` maps each environment name to the tuple of subsystem
    labels it is made of; ``projectors`` maps the same names to one projector
    per system-basis index, acting on the environment's combined space.
    Disjointness and idempotence are validated eagerly at construction.
    """

    system_label: str
    system_basis: np.ndarray = field(repr=False)
    environments: tuple[tuple[str, tuple[str, ...]], ...]
    projectors: Mapping[str, tuple[np.ndarray, ...]] = field(repr=False)

    def __init__(
        self,
        system_label: str,
        system_basis: np.ndarray,
        environments: Mapping[str, Sequence[str]],
        projectors: Mapping[str, Sequence[np.ndarray]],
    ):
        basis = np.asarray(system_basis, dtype=np.complex128)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise InvariantViolation("system basis must be a square matrix of kets")
        d_s = basis.shape[0]
        dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(d_s))))
        if dev > TOL.projector:
            raise InvariantViolation(
                f"system basis does not resolve the identity (max dev {dev:.3e})"
            )

        env_items = tuple((str(name), tuple(members)) for name, members in environments.items())
        seen: set[str] = set()
        for name, members in env_items:
            if not members:
                raise InvariantViolation(f"environment {name!r} has no subsystems")
            overlap = seen & set(members)
            if overlap:
                raise InvariantViolation(f"subsystems {sorted(overlap)} assigned twice")
            seen |= set(members)
        if system_label in seen:
            raise InvariantViolation("system label cannot belong to an environment")

        checked: dict[str, tuple[np.ndarray, ...]] = {}
        for name, _ in env_items:
            if name not in projectors:
                raise InvariantViolation(f"missing projectors for environment {name!r}")
            pis = tuple(np.asarray(p, dtype=np.complex128) for p in projectors[name])
            if len(pis) != d_s:
                raise InvariantViolation(
                    f"environment {name!r} needs {d_s} projectors, got {len(pis)}"
                )
            dim = pis[0].shape[0]
            for i, p in enumerate(pis):
                if p.shape != (dim, dim):
                    raise InvariantViolation(f"projector shapes differ in {name!r}")
                if float(np.max(np.abs(p - p.conj().T))) > TOL.projector:
                    raise InvariantViolation(f"projector {name!r}[{i}] is not Hermitian")
                if float(np.max(np.abs(p @ p - p))) > TOL.projector:
                    raise InvariantViolation(f"projector {name!r}[{i}] is not idempotent")
            for i in range(d_s):
                for j in range(i + 1, d_s):
                    if float(np.max(np.abs(pis[i] @ pis[j]))) > TOL.projector:
                        raise InvariantViolation(
                            f"projectors {name!r}[{i}] and [{j}] are not disjoint"
                        )
            checked[name] = pis

        object.__setattr__(self, "system_label", str(system_label))
        object.__setattr__(self, "system_basis", basis)
        object.__setattr__(self, "environments", env_items)
        object.__setattr__(self, "projectors", checked)

    @property
    def system_dim(self) -> int:
        return self.system_basis.shape[0]

    @property
    def environment_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.environments)

    def members_of(self, names: Iterable[str]) -> list[str]:
        """Subsystem labels of the given environments, in spec order."""
        wanted = set(names)
        unknown = wanted - set(self.environment_names)
        if unknown:
            raise InvariantViolation(f"unknown environments {sorted(unknown)}")
        out: list[str] = []
        for name, members in self.environments:
            if name in wanted:
                out.extend(members)
        return out

    def system_ket(self, i: int) -> np.ndarray:
        return self.system_basis[:, i]


def parity_spec(n_environments: int = 2) -> ObjectiveSubspaceSpec:
    """Two-photon-per-environment parity partition preset ("parity2").

    For a system qubit in |0> each environment pair must live in the even
    span {|00>, |11>}; for |1> in the odd span {|01>, |10>}.
    """
    even = np.diag([1.0, 0.0, 0.0, 1.0]).astype(np.complex128)
    odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(np.complex128)
    environments = {
        f"E{k}": (f"E{k}_1", f"E{k}_2") for k in range(1, n_environments + 1)
    }
    projectors = {name: (even, odd) for name in environments}
    return ObjectiveSubspaceSpec("S", np.eye(2), environments, projectors)


def computational_spec(n_environments: int = 4, dim: int = 2) -> ObjectiveSubspaceSpec:
    """Single-photon environments with rank-1 computational projectors."""
    kets = np.eye(dim, dtype=np.complex128)
    rank1 = tuple(np.outer(kets[:, i], kets[:, i].conj()) for i in range(dim))
    environments = {f"E{k}": (f"E{k}",) for k in range(1, n_environments + 1)}
    projectors = {name: rank1 for name in environments}
    return ObjectiveSubspaceSpec("S", np.eye(dim), environments, projectors)


def spec_from_basis_vectors(
    system_label: str,
    system_basis: np.ndarray,
    environments: Mapping[str, Sequence[str]],
    basis_vectors: Mapping[str, Sequence[Sequence[np.ndarray]]],
) -> ObjectiveSubspaceSpec:
    """Build a spec from lists of spanning vectors per environment per index."""
    projectors: dict[str, list[np.ndarray]] = {}
    for name, per_index in basis_vectors.items():
        pis = []
        for vectors in per_index:
            vs = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vectors])
            pis.append(vs @ vs.conj().T)
        projectors[name] = pis
    return ObjectiveSubspaceSpec(system_label, system_basis, environments, projectors)


# ---------------------------------------------------------------------------
# Objectivity operations
# ---------------------------------------------------------------------------

def fragment_projector(spec: ObjectiveSubspaceSpec, fragment: Iterable[str],
                       i: int) -> np.ndarray:
    """Tensor product of the index-i projectors of the fragment environments."""
    names = [name for name in spec.environment_names if name in set(fragment)]
    missing = set(fragment) - set(names)
    if missing:
        raise InvariantViolation(f"environments {sorted(missing)} not in spec")
    if not 0 <= i < spec.system_dim:
        raise InvariantViolation(f"index {i} out of range")
    out = np.array([[1.0 + 0.0j]])
    for name in names:
        out = np.kron(out, spec.projectors[name][i])
    return out


def _fragment_names(spec: ObjectiveSubspaceSpec, rho: DensityOperator,
                    fragment: Iterable[str] | None) -> list[str]:
    """Resolve the fragment environment names present in a state's layout."""
    present = set(rho.layout.labels)
    if fragment is None:
        names = [
            name for name, members in spec.environments
            if all(m in present for m in members)
        ]
    else:
        names = [name for name in spec.environment_names if name in set(fragment)]
        missing = set(fragment) - set(names)
        if missing:
            raise InvariantViolation(f"environments {sorted(missing)} not in spec")
    for name in names:
        for member in spec.members_of([name]):
            if member not in present:
                raise InvariantViolation(
                    f"state lacks subsystem {member!r} of environment {name!r}"
                )
    if spec.system_label not in present:
        raise InvariantViolation(f"state lacks system {spec.system_label!r}")
    return names


def objectivity_operation_sqd(rho: DensityOperator, spec: ObjectiveSubspaceSpec,
                              fragment: Iterable[str] | None = None) -> DensityOperator:
    """Project onto the preferred objective subspaces (possibly subnormalizing).

    Applies sum_i P_i rho P_i with P_i the system ket |i><i| tensored with the
    fragment projector of index i; identity acts on any further subsystems
    carried by ``rho``.  A null output is legal.
    """
    names = _fragment_names(spec, rho, fragment)
    members = spec.members_of(names)
    out = np.zeros_like(rho.matrix)
    for i in range(spec.system_dim):
        ket = spec.system_ket(i)
        block = np.kron(np.outer(ket, ket.conj()), fragment_projector(spec, names, i))
        p_full = embed_operator(rho.layout, block, [spec.system_label] + members)
        out += p_full @ rho.matrix @ p_full
    return DensityOperator(rho.layout, out)


def objectivity_operation_isbs(rho: DensityOperator, basis: np.ndarray | None,
                               labels: Iterable[str]) -> DensityOperator:
    """Project onto correlated rank-1 subspaces |i...i><i...i| over ``labels``.

    ``labels`` names the system and every fragment subsystem; the projector
    is symmetric under their exchange, so their order does not matter.
    ``basis`` holds the shared local kets as columns (computational when
    None); every listed subsystem must have the basis dimension.  Built
    directly from assembled product kets, independently of the
    subspace-projector route.
    """
    wanted = set(labels)
    unknown = wanted - set(rho.layout.labels)
    if unknown:
        raise InvariantViolation(f"unknown labels {sorted(unknown)}")
    labels = [lab for lab in rho.layout.labels if lab in wanted]
    d = rho.layout.dim_of(labels[0])
    kets = np.eye(d, dtype=np.complex128) if basis is None else np.asarray(basis, dtype=np.complex128)
    dev = float(np.max(np.abs(kets.conj().T @ kets - np.eye(d))))
    if dev > TOL.projector:
        raise InvariantViolation("basis kets are not orthonormal")
    for lab in labels:
        if rho.layout.dim_of(lab) != d:
            raise InvariantViolation(
                f"subsystem {lab!r} dimension differs from {labels[0]!r}'s"
            )
    out = np.zeros_like(rho.matrix)
    for i in range(d):
        ket = np.array([1.0 + 0.0j])
        for _ in labels:
            ket = np.kron(ket, kets[:, i])
        proj = np.outer(ket, ket.conj())
        p_full = embed_operator(rho.layout, proj, labels)
        out += p_full @ rho.matrix @ p_full
    return DensityOperator(rho.layout, out)


def isbs_basis_from_spec(spec: ObjectiveSubspaceSpec) -> np.ndarray:
    """Shared local basis of a spec whose projectors are all rank-1.

    Requires every environment to use the same rank-1 kets as the system
    basis up to phase; raises otherwise.
    """
    d = spec.system_dim
    for name in spec.environment_names:
        for i, p in enumerate(spec.projectors[name]):
            if p.shape != (d, d):
                raise InvariantViolation(
                    f"environment {name!r} dimension differs from the system's"
                )
            if abs(float(np.trace(p).real) - 1.0) > TOL.isbs_projector:
                raise InvariantViolation(
                    f"projector {name!r}[{i}] is not rank-1; not a basis-style spec"
                )
            want = np.outer(spec.system_ket(i), spec.system_ket(i).conj())
            if float(np.max(np.abs(p - want))) > TOL.isbs_projector:
                raise InvariantViolation(
                    f"projector {name!r}[{i}] is not aligned with the system basis"
                )
    return spec.system_basis


def nonobjectivity_measure(rho_sf: DensityOperator, spec: ObjectiveSubspaceSpec,
                           framework: str = FRAMEWORK_SQD) -> float:
    """Trace-norm distance between a system-fragment state and its projection.

    ``rho_sf`` must live on the system and fragment only.  The measure
    vanishes exactly on objective states and equals 1 when the projection
    annihilates the state.  Its nominal maximum of 1 holds across the
    protocol's state families, but it is not a hard bound: a state
    superposing a matched subspace with an unmatched one reaches sqrt(5)/2
    (see the property suite), so callers must not normalize by it.
    """
    if framework == FRAMEWORK_SQD:
        gamma = objectivity_operation_sqd(rho_sf, spec, fragment=None)
    elif framework == FRAMEWORK_ISBS:
        fragment = [lab for lab in rho_sf.layout.labels if lab != spec.system_label]
        gamma = objectivity_operation_isbs(rho_sf, isbs_basis_from_spec(spec),
                                           [spec.system_label, *fragment])
    else:
        raise InvariantViolation(f"unknown framework {framework!r}")
    return trace_norm_distance(rho_sf, gamma)
