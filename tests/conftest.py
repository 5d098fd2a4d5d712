"""Shared helpers: random states, unitaries and subspace specs, and a Kraus
oracle for the noise channels."""

from __future__ import annotations

import numpy as np
import pytest

from qdarwin import CNOT, DensityOperator, ObjectiveSubspaceSpec, PureState, TensorLayout
from qdarwin.hilbert import embed_operator


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
