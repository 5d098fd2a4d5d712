"""Preferred objective subspaces, the objectivity operation and the
trace-norm non-objectivity measure.

One operation serves both frameworks: a spec pins a preferred system basis
and a disjoint subspace partition of each environment.  The basis framework
is the same operation on a rank-1 spec aligned with the system basis (see
``require_basis_spec``).  The operation sums P_i rho P_i, or, with the same
bytes, masks rho where every P_i is a 0/1 diagonal, as on both presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hilbert import (
    DensityOperator,
    InvariantViolation,
    TensorLayout,
    embed_operator,
    trace_norm_distances,
)
from .tolerances import TOL

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
    The basis, the projectors and their mapping are read-only copies, so one
    instance can be shared.  At its first projection on a (fragment, layout)
    it memoizes the embedded projectors and, if exact, their 0/1 mask.
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
        basis = np.array(system_basis, dtype=np.complex128)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise InvariantViolation("system basis must be a square matrix of kets")
        if not np.isfinite(basis).all():  # checked first: B^dag B turns inf into NaN
            raise InvariantViolation("system basis has a non-finite entry")
        d_s = basis.shape[0]
        dev = float(np.max(np.abs(basis.conj().T @ basis - np.eye(d_s))))
        if not dev <= TOL.projector:
            raise InvariantViolation(
                f"system basis does not resolve the identity (max dev {dev:.3e})"
            )

        env_items = tuple((str(name), tuple(members)) for name, members in environments.items())
        seen: set[str] = set()
        for name, members in env_items:
            if not members:
                raise InvariantViolation(f"environment {name!r} has no subsystems")
            overlap = (seen & set(members)) | {m for m in members if members.count(m) > 1}
            if overlap:
                raise InvariantViolation(f"subsystems {sorted(overlap)} assigned twice")
            seen |= set(members)
        if system_label in seen:
            raise InvariantViolation("system label cannot belong to an environment")

        checked: dict[str, tuple[np.ndarray, ...]] = {}
        for name, _ in env_items:
            if name not in projectors:
                raise InvariantViolation(f"missing projectors for environment {name!r}")
            pis = tuple(np.array(p, dtype=np.complex128) for p in projectors[name])
            if len(pis) != d_s:
                raise InvariantViolation(
                    f"environment {name!r} needs {d_s} projectors, got {len(pis)}"
                )
            dim = pis[0].shape[0]
            for i, p in enumerate(pis):
                if p.shape != (dim, dim):
                    raise InvariantViolation(f"projector shapes differ in {name!r}")
                if not np.isfinite(p).all():
                    raise InvariantViolation(f"projector {name!r}[{i}] has a non-finite entry")
                if not float(np.max(np.abs(p - p.conj().T))) <= TOL.projector:
                    raise InvariantViolation(f"projector {name!r}[{i}] is not Hermitian")
                if not float(np.max(np.abs(p @ p - p))) <= TOL.projector:
                    raise InvariantViolation(f"projector {name!r}[{i}] is not idempotent")
            for i in range(d_s):
                for j in range(i + 1, d_s):
                    if not float(np.max(np.abs(pis[i] @ pis[j]))) <= TOL.projector:
                        raise InvariantViolation(
                            f"projectors {name!r}[{i}] and [{j}] are not disjoint"
                        )
            for p in pis:
                p.flags.writeable = False
            checked[name] = pis

        basis.flags.writeable = False
        object.__setattr__(self, "system_label", str(system_label))
        object.__setattr__(self, "system_basis", basis)
        object.__setattr__(self, "environments", env_items)
        object.__setattr__(self, "projectors", MappingProxyType(checked))
        object.__setattr__(self, "_embedded", {})

    @property
    def system_dim(self) -> int:
        return self.system_basis.shape[0]

    @property
    def environment_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.environments)

    def select(self, fragment: Iterable[str]) -> tuple[str, ...]:
        """The named environments in spec order; raises on unknown names."""
        wanted = set(fragment)
        missing = wanted - set(self.environment_names)
        if missing:
            raise InvariantViolation(
                f"fragment environments {sorted(missing)} not in spec")
        return tuple(name for name in self.environment_names if name in wanted)

    def environments_in(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Environments whose subsystems are all among ``labels``, in spec order."""
        present = set(labels)
        return tuple(name for name, members in self.environments
                     if present.issuperset(members))

    def members_of(self, names: Iterable[str]) -> list[str]:
        """Subsystem labels of the given environments, in spec order."""
        wanted = self.select(names)
        return [m for name, members in self.environments if name in wanted
                for m in members]

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
            if not np.isfinite(vs).all():  # checked first: vs vs^dag turns inf into NaN
                raise InvariantViolation(f"basis vectors of {name!r} have a non-finite entry")
            pis.append(vs @ vs.conj().T)
        projectors[name] = pis
    return ObjectiveSubspaceSpec(system_label, system_basis, environments, projectors)


# ---------------------------------------------------------------------------
# Objectivity operations
# ---------------------------------------------------------------------------

def fragment_projector(spec: ObjectiveSubspaceSpec, fragment: Iterable[str],
                       i: int) -> np.ndarray:
    """Tensor product of the index-i projectors of the fragment environments."""
    names = spec.select(fragment)
    if not 0 <= i < spec.system_dim:
        raise InvariantViolation(f"index {i} out of range")
    out = np.array([[1.0 + 0.0j]])
    for name in names:
        out = np.kron(out, spec.projectors[name][i])
    return out


def objectivity_operation_sqd(rho: DensityOperator, spec: ObjectiveSubspaceSpec,
                              fragment: Iterable[str] | None = None) -> DensityOperator:
    """Project onto the preferred objective subspaces (possibly subnormalizing).

    Applies sum_i P_i rho P_i with P_i the system ket |i><i| tensored with the
    fragment projector of index i; identity acts on any further subsystems
    carried by ``rho``.  A null output is legal.  The fragment defaults to
    every environment the state carries in full.  This is the objectivity
    operation of both frameworks: on a basis spec (``require_basis_spec``)
    P_i is the correlated rank-1 projector |i...i><i...i|.
    """
    names = (spec.environments_in(rho.layout.labels) if fragment is None
             else spec.select(fragment))
    return DensityOperator._trusted(
        rho.layout, project(rho.matrix, embedded_projectors(spec, names, rho.layout)))


class _Embedded(tuple):
    """The embedded P_i, with their ``mask`` (see ``embedded_projectors``)."""


def embedded_projectors(spec: ObjectiveSubspaceSpec, names: tuple[str, ...],
                        layout: TensorLayout) -> tuple[np.ndarray, ...]:
    """The P_i of ``objectivity_operation_sqd`` on the selected environments
    ``names``, embedded in ``layout``, memoized on the spec with their ``mask``:
    B = sum_i diag(P_i) diag(P_i)^T if every P_i is exactly a 0/1 diagonal, else None."""
    key = (names, layout)
    projectors = spec._embedded.get(key)
    if projectors is None:
        require_spec_fits(spec, names, layout)
        projectors = _Embedded(
            embed_operator(layout, np.kron(np.outer(ket, ket.conj()),
                                           fragment_projector(spec, names, i)),
                           [spec.system_label, *spec.members_of(names)])
            for i, ket in enumerate(spec.system_basis.T))
        diags = np.diagonal(projectors, axis1=1, axis2=2)
        exact = np.count_nonzero(projectors) == np.count_nonzero(diags == 1)  # all 0/1 diagonals
        projectors.mask = diags.real.T @ diags.real if exact else None
        for array in projectors + ((projectors.mask,) if exact else ()):
            array.flags.writeable = False
        spec._embedded[key] = projectors
    return projectors


def project(matrices: np.ndarray, projectors: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i P_i M P_i for each operator M of ``matrices``, by the P_i's mask if they carry one."""
    if getattr(projectors, "mask", None) is not None:
        return matrices * projectors.mask + 0.0  # + 0.0 maps the -0.0 of -x * 0 to the sum's +0.0
    out = np.zeros_like(matrices)
    for p_full in projectors:
        out += p_full @ matrices @ p_full
    return out


def require_spec_fits(spec: ObjectiveSubspaceSpec, names: Iterable[str],
                      layout: TensorLayout) -> None:
    """Check that ``layout`` holds the spec's system and the subsystems of its
    environments ``names``, with the spec's dimensions; raise otherwise."""
    names, dims = spec.select(names), dict(layout.subsystems)
    for what, labels, dim in [("system", (spec.system_label,), spec.system_dim)] + [
            (f"environment {name!r}", members, spec.projectors[name][0].shape[0])
            for name, members in spec.environments if name in names]:
        if math.prod(dims.get(lab, 0) for lab in labels) != dim:  # a missing label spans 0
            raise InvariantViolation(f"subspace {what} {list(labels)} of dimension {dim} "
                                     f"does not fit the layout {dims}")


def require_basis_spec(spec: ObjectiveSubspaceSpec) -> None:
    """Check that a spec is a basis (ISBS) spec; raise otherwise.

    Every environment projector must be rank-1 on a space of the system's
    dimension and equal, up to phase, the projector onto the system basis
    ket of the same index.
    """
    d = spec.system_dim
    for name in spec.environment_names:
        for i, p in enumerate(spec.projectors[name]):
            if p.shape != (d, d):
                raise InvariantViolation(
                    f"subspace environment {name!r} dimension differs from the system's"
                )
            if not abs(float(np.trace(p).real) - 1.0) <= TOL.isbs_projector:
                raise InvariantViolation(
                    f"subspace projector {name!r}[{i}] is not rank-1; not a basis-style spec"
                )
            want = np.outer(spec.system_ket(i), spec.system_ket(i).conj())
            if not float(np.max(np.abs(p - want))) <= TOL.isbs_projector:
                raise InvariantViolation(
                    f"subspace projector {name!r}[{i}] is not aligned with the system basis"
                )


def nonobjectivity_measure(rho_sf: DensityOperator, spec: ObjectiveSubspaceSpec) -> float:
    """Trace-norm distance between a system-fragment state and its projection.

    ``rho_sf`` must live on the system and fragment only.  The measure
    vanishes exactly on objective states and equals 1 when the projection
    annihilates the state.  Its nominal maximum of 1 holds across the
    protocol's state families, but it is not a hard bound: a state
    superposing a matched subspace with an unmatched one reaches sqrt(5)/2
    (see the property suite), so callers must not normalize by it.
    """
    return float(nonobjectivity_measures(rho_sf.matrix[None], rho_sf.layout, spec)[0])


def nonobjectivity_measures(matrices: np.ndarray, layout: TensorLayout,
                            spec: ObjectiveSubspaceSpec) -> np.ndarray:
    """``nonobjectivity_measure`` of each state of the stack ``matrices`` on ``layout``."""
    projectors = embedded_projectors(spec, spec.environments_in(layout.labels), layout)
    return trace_norm_distances(matrices, project(matrices, projectors))
