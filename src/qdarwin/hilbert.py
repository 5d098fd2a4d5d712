"""Tensor-structured complex linear algebra on labeled subsystems.

States and operators carry a :class:`TensorLayout` naming each subsystem, so
partial traces and operator embeddings are addressed by label rather than by
raw index arithmetic.  All values are immutable after construction and every
operation is a pure function.

The public ``DensityOperator(layout, matrix)`` validates its matrix: shape,
Hermiticity, positivity and trace.  The internal ``DensityOperator._trusted``
copies and freezes the matrix without those checks.  It builds only outputs
of CP maps (partial trace, subsystem replacement, unitary conjugation,
projection sums) applied to operators that were already validated, which
keep Hermiticity, positivity and a trace in [0, 1] up to rounding.  The
witness pipeline passes its prepared states and each branch output through
the constructor's checks, ``require_density``, so a broken stage still
raises.  Its positivity check accepts by a shifted Cholesky factorization
and rejects only by ``eigvalsh``.  It, ``eigvals_hermitian``, ``trace_norm``,
``permute_subsystems`` and ``trace_out`` also take stacks, ``(..., d, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .tolerances import TOL


class InvariantViolation(ValueError):
    """A numerical invariant of a domain type or operation was violated."""


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorLayout:
    """Ordered list of labeled subsystems with local dimensions.

    The construction order is canonical: every operation preserves it, and
    reduced layouts keep the relative order of the surviving subsystems.
    """

    subsystems: tuple[tuple[str, int], ...]

    MAX_TOTAL_DIM = 256  # dense matrices only; eight qubits is the envelope

    def __init__(self, subsystems: Sequence[tuple[str, int]]):
        subs = tuple((str(label), int(dim)) for label, dim in subsystems)
        labels = tuple(label for label, _ in subs)
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"duplicate subsystem labels in {list(labels)}")
        if not subs:
            raise InvariantViolation("layout needs at least one subsystem")
        for label, dim in subs:
            if dim < 1:
                raise InvariantViolation(f"subsystem {label!r} has dim {dim} < 1")
        dims = tuple(dim for _, dim in subs)
        total = math.prod(dims)
        if total > self.MAX_TOTAL_DIM:
            raise InvariantViolation(
                f"total dimension {total} exceeds the supported maximum "
                f"{self.MAX_TOTAL_DIM}"
            )
        object.__setattr__(self, "subsystems", subs)
        # Derived once here.  They are not dataclass fields, so equality,
        # hashing and repr still see ``subsystems`` only.
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", total)
        object.__setattr__(self, "_axes", {label: k for k, label in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.subsystems)

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis_of(label)]

    def axis_of(self, label: str) -> int:
        try:
            return self._axes[label]
        except KeyError:
            raise InvariantViolation(f"unknown subsystem label {label!r}") from None

    def subset(self, labels: Iterable[str]) -> "TensorLayout":
        """Layout of the given subsystems, in canonical (original) order."""
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise InvariantViolation(f"unknown subsystem labels {sorted(unknown)}")
        return TensorLayout([s for s in self.subsystems if s[0] in wanted])


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def _as_complex(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128)  # always a copy
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a :class:`TensorLayout`."""

    layout: TensorLayout
    amplitudes: np.ndarray = field(repr=False)

    def __init__(self, layout: TensorLayout, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != layout.total_dim:
            raise InvariantViolation(
                f"amplitude length {amps.shape[0]} != layout dim {layout.total_dim}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= TOL.pure_norm:
            raise InvariantViolation(f"state vector norm^2 = {norm_sq} is not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityOperator":
        # |psi><psi| is PSD, and its trace is the norm^2, which construction
        # pins to 1 within TOL.pure_norm < TOL.trace_upper_slack.
        return DensityOperator._trusted(
            self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian positive-semidefinite matrix over a :class:`TensorLayout`.

    The trace may lie anywhere in [0, 1]: objectivity operations subnormalize.
    The constructor checks all of this within ``TOL``; ``_trusted`` is the
    unchecked constructor for CP-map outputs of validated operators (see the
    module docstring).
    """

    layout: TensorLayout
    matrix: np.ndarray = field(repr=False)

    def __init__(self, layout: TensorLayout, matrix: np.ndarray):
        mat = _as_complex(matrix)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise InvariantViolation(f"matrix shape {mat.shape} != layout dim ({d}, {d})")
        require_density(mat)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, layout: TensorLayout, matrix: np.ndarray) -> "DensityOperator":
        """Copy and freeze ``matrix`` without checking it (internal use only)."""
        out = object.__new__(cls)
        object.__setattr__(out, "layout", layout)
        object.__setattr__(out, "matrix", _as_complex(matrix))
        return out

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def require_density(matrices: np.ndarray) -> None:
    """Raise unless every matrix of ``matrices`` is finite and Hermitian, has
    no eigenvalue below -``TOL.psd_min_eig`` and a trace in [0, 1].

    If every trace is in range, a Cholesky factor of each symmetrized matrix
    shifted by ``TOL.psd_min_eig / 2`` exists only if its least eigenvalue is
    above -``TOL.psd_min_eig / 2`` up to rounding of about 1e-13, so success
    accepts the stack.  Else ``eigvalsh`` decides, as it does every reject.
    """
    symmetrized = _symmetrized(matrices)
    bad = [tr for tr in np.trace(matrices, axis1=-2, axis2=-1).real.reshape(-1).tolist()
           if not -TOL.trace_lower_slack <= tr <= 1.0 + TOL.trace_upper_slack]
    try:
        if bad:  # the factor's rounding error grows with the norm
            raise np.linalg.LinAlgError
        np.linalg.cholesky(symmetrized + 0.5 * TOL.psd_min_eig * np.eye(symmetrized.shape[-1]))
    except np.linalg.LinAlgError:
        low = float(np.min(np.linalg.eigvalsh(symmetrized)[..., 0]))
        if not low >= -TOL.psd_min_eig:
            raise InvariantViolation(f"matrix has negative eigenvalue {low:.3e}") from None
    if bad:
        raise InvariantViolation(f"trace {bad[0]} outside [0, 1]")


def computational_ket(layout: TensorLayout, digits: Sequence[int]) -> PureState:
    """Basis state |digits> with one digit per subsystem in layout order."""
    digits = list(digits)
    if len(digits) != len(layout):
        raise InvariantViolation("one digit per subsystem required")
    index = 0
    for digit, dim in zip(digits, layout.dims):
        if not 0 <= digit < dim:
            raise InvariantViolation(f"digit {digit} out of range for dim {dim}")
        index = index * dim + digit
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(layout, amps)


def maximally_mixed(layout: TensorLayout) -> DensityOperator:
    d = layout.total_dim
    return DensityOperator(layout, np.eye(d, dtype=np.complex128) / d)


# ---------------------------------------------------------------------------
# Operator embedding
# ---------------------------------------------------------------------------

def embed_operator(layout: TensorLayout, op: np.ndarray, targets: Sequence[str]) -> np.ndarray:
    """Embed ``op`` (given in the order of ``targets``) into the full space.

    Identity acts on every subsystem not listed.  Returns a dense matrix in
    the canonical subsystem order of ``layout``.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise InvariantViolation(f"duplicate target labels {targets}")
    rest = [lab for lab in layout.labels if lab not in targets]
    unknown = set(targets) - set(layout.labels)
    if unknown:
        raise InvariantViolation(f"unknown target labels {sorted(unknown)}")

    dims_t = [layout.dim_of(lab) for lab in targets]
    dims_r = [layout.dim_of(lab) for lab in rest]
    op = np.asarray(op, dtype=np.complex128)
    dt = math.prod(dims_t)
    if op.shape != (dt, dt):
        raise InvariantViolation(f"operator shape {op.shape} != target dim ({dt}, {dt})")

    full = np.kron(op, np.eye(math.prod(dims_r), dtype=np.complex128))
    # Axes currently ordered (targets..., rest...); permute to canonical order.
    scrambled = TensorLayout(list(zip(targets + rest, dims_t + dims_r)))
    return permute_subsystems(full, scrambled, layout.labels)


def permute_subsystems(matrix: np.ndarray, layout: TensorLayout,
                       order: Sequence[str]) -> np.ndarray:
    """Reorder the subsystem axes of an operator on ``layout`` into ``order``.

    ``order`` must list every label of ``layout`` once.  The result is a
    pure transpose, so every entry is carried over exactly.
    """
    order = tuple(order)
    if order == layout.labels:
        return matrix
    if sorted(order) != sorted(layout.labels):
        raise InvariantViolation(f"order {list(order)} is not a permutation of "
                                 f"{list(layout.labels)}")
    lead = matrix.shape[:-2]
    axes = [len(lead) + layout.axis_of(lab) for lab in order]
    tensor = matrix.reshape(lead + layout.dims + layout.dims)
    tensor = tensor.transpose([*range(len(lead)), *axes, *(len(layout) + a for a in axes)])
    return np.ascontiguousarray(tensor.reshape(matrix.shape))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every subsystem not in ``keep``; trace is preserved."""
    keep = set(keep)
    if not keep:
        raise InvariantViolation("keep set must be nonempty")
    if keep == set(rho.layout.labels):
        return rho
    return DensityOperator._trusted(rho.layout.subset(keep),
                                    trace_out(rho.matrix, rho.layout, keep))


def trace_out(matrices: np.ndarray, layout: TensorLayout, keep: set[str]) -> np.ndarray:
    """The partial trace of each operator on ``layout`` in ``matrices`` over
    the subsystems outside ``keep``, one at a time in layout order."""
    lead, dims = matrices.shape[:-2], layout.dims
    tensor = matrices.reshape(lead + dims + dims)
    traced_axes = [a for a, lab in enumerate(layout.labels) if lab not in keep]
    for done, axis in enumerate(traced_axes):
        ax = len(lead) + axis - done  # earlier traces shifted the row axes left
        tensor = np.trace(tensor, axis1=ax, axis2=ax + len(layout) - done)
    d = math.prod(dim for label, dim in layout.subsystems if label in keep)
    return tensor.reshape(lead + (d, d))


def eigvals_hermitian(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of each Hermitian matrix, descending (see ``_symmetrized``)."""
    return np.linalg.eigvalsh(_symmetrized(h))[..., ::-1].copy()


def _symmetrized(h: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, which suppresses rounding asymmetry, of each matrix M of
    ``h``; M must be finite (checked first) and Hermitian within ``TOL.hermiticity``."""
    h = np.asarray(h, dtype=np.complex128)
    if not np.isfinite(h).all():
        raise InvariantViolation("matrix has a non-finite entry")
    adjoint = h.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(h - adjoint), initial=0.0))
    if not dev <= TOL.hermiticity:
        raise InvariantViolation(f"matrix is not Hermitian (max dev {dev:.3e})")
    symmetrized = h + adjoint
    symmetrized *= 0.5
    return symmetrized


def require_unitary(matrix: np.ndarray, d: int | None = None) -> np.ndarray:
    """``matrix`` as a complex array, if it is square (``d`` by ``d`` when
    ``d`` is given) and unitary within ``TOL.unitarity``."""
    u = np.asarray(matrix, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or (d is not None and u.shape[0] != d):
        raise InvariantViolation(f"unitary shape {u.shape} is not {(d, d) if d else 'square'}")
    if not np.isfinite(u).all():  # checked first: U^dag U turns inf into NaN
        raise InvariantViolation("unitary has a non-finite entry")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not dev <= TOL.unitarity:
        raise InvariantViolation(f"matrix is not unitary (max dev {dev:.3e})")
    return u


def trace_norm(matrices: np.ndarray) -> np.ndarray:
    """Sum of absolute eigenvalues of each Hermitian matrix of ``matrices``."""
    return np.sum(np.abs(eigvals_hermitian(matrices)), axis=-1)


def trace_norm_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_k - b_k||_1 of each pair of two ``(n, d, d)`` stacks, subtracted in a
    canonical order to be exactly symmetric (eigvalsh of M, -M can differ)."""
    first = np.array([x.tobytes() <= y.tobytes() for x, y in zip(a, b)])
    return trace_norm(np.where(first[:, None, None], a - b, b - a))


def trace_norm_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Trace-norm distance ||a - b||_1 between operators on the same layout."""
    if a.layout.subsystems != b.layout.subsystems:
        raise InvariantViolation("layout mismatch in trace_norm_distance")
    return float(trace_norm_distances(a.matrix[None], b.matrix[None])[0])
