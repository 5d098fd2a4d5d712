"""JSON and CSV serialization: state files, protocol configs, sweeps.

State files carry a layout descriptor plus the row-major complex matrix as
[re, im] pairs, so they are bit-exact, language-neutral and diff-able.
Config parsing reports the offending field by name on any malformed input,
including a key outside its document's table of allowed keys and a scalar
field given as the wrong JSON type: an integer field takes a JSON integer,
a float field a JSON number and a string field a JSON string.  A config is
built from the keys present, so an absent or null key takes the default of
`ProtocolConfig` or `NoiseConfig`, the one place defaults are written.  A
sweep document is a witness config's keys plus ``p_values``, ``fragments``,
the noise keys ``noise_mode``/``f``/``p_cnot`` and an optional
``output_path``; each of its points is the witness config it describes, so
``config_from_dict`` is the only config parser.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .channels import NoiseConfig
from .hilbert import DensityOperator, InvariantViolation, TensorLayout
from .objectivity import ObjectiveSubspaceSpec, spec_from_basis_vectors
from .protocol import _EXPERIMENTS, ProtocolConfig, WitnessReport


class ConfigError(ValueError):
    """A config document is malformed; the message names the offending field."""


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def state_to_dict(rho: DensityOperator) -> dict:
    matrix = [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in rho.matrix
    ]
    return {
        "layout": [[label, dim] for label, dim in rho.layout.subsystems],
        "matrix": matrix,
    }


def state_from_dict(data: Mapping[str, Any]) -> DensityOperator:
    """A document not of a state's shape is a `ConfigError` naming the field;
    a well-formed matrix that is not a state is an `InvariantViolation`."""
    _check_keys(data, _STATE_KEYS, "")
    try:
        if not all(isinstance(lab, str) and _is_integer(dim) for lab, dim in data["layout"]):
            raise TypeError("expected [label, dimension] pairs of a string and an integer")
        layout = TensorLayout(data["layout"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'layout': {exc}") from exc
    matrix = _complex_matrix(data.get("matrix"), "matrix")
    d = layout.total_dim
    if matrix.shape != (d, d):
        raise ConfigError(f"field 'matrix': shape {matrix.shape} != layout dim ({d}, {d})")
    return DensityOperator(layout, matrix)


def _complex_matrix(value: Any, field: str) -> np.ndarray:
    """A rectangular list of rows of [re, im] pairs of JSON numbers as a
    complex array; anything else, bools and numeric strings included, is a
    `ConfigError` naming ``field``."""
    try:
        if any(type(re) is bool or type(im) is bool for row in value for re, im in row):
            raise TypeError("expected [re, im] pairs of numbers, got a bool")
        return np.array([[complex(re, im) for re, im in row] for row in value],
                        dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field '{field}': {exc}") from exc


def save_state(rho: DensityOperator, path: str | Path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(rho), sort_keys=True))


def read_json(path: str | Path) -> Any:
    """The JSON document at ``path``, read as UTF-8; a file that cannot be
    read or decoded, or is not JSON, is a `ConfigError` naming ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # too deep a nesting
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_state(path: str | Path) -> DensityOperator:
    return state_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Subspace specs
# ---------------------------------------------------------------------------

def spec_by_name(name: str) -> ObjectiveSubspaceSpec:
    """The shared preset subspace that the experiment table names ``name``."""
    for experiment in _EXPERIMENTS.values():
        if experiment.preset == name:
            return experiment.spec
    raise ConfigError(f"field 'subspace': unknown preset {name!r}")


def spec_from_dict(data: Mapping[str, Any]) -> ObjectiveSubspaceSpec:
    """Custom spec from lists of spanning basis vectors per environment per index."""
    _check_keys(data, _SUBSPACE_KEYS, "subspace.")
    try:
        system_label = _optional(data, "system_label", str, "subspace.").get("system_label", "S")
        environments = {}
        for name, members in data["environments"].items():
            if not (isinstance(members, (list, tuple))
                    and all(isinstance(m, str) for m in members)):
                raise ConfigError(f"field 'subspace.environments.{name}': "
                                  f"expected a list of strings, got {members!r}")
            environments[name] = tuple(members)
        vectors = {
            str(name): [_complex_matrix(index_vectors, f"subspace.basis_vectors.{name}")
                        for index_vectors in per_index]
            for name, per_index in data["basis_vectors"].items()
        }
        if "system_basis" in data:
            system_basis = _complex_matrix(data["system_basis"], "subspace.system_basis")
        else:
            dim = len(next(iter(vectors.values())))
            system_basis = np.eye(dim, dtype=np.complex128)
        return spec_from_basis_vectors(system_label, system_basis, environments, vectors)
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'subspace': {exc}") from exc


def resolve_subspace(value: Any) -> ObjectiveSubspaceSpec:
    if isinstance(value, ObjectiveSubspaceSpec):
        return value
    if isinstance(value, str):
        return spec_by_name(value)
    if isinstance(value, Mapping):
        return spec_from_dict(value)
    raise ConfigError("field 'subspace': expected a preset name or a spec object")


# ---------------------------------------------------------------------------
# Protocol configs
# ---------------------------------------------------------------------------

# The allowed keys of each config document, as README documents them.
_WITNESS_KEYS = {"framework", "fragment", "noise", "unitary", "replacement", "shots",
                 "seed", "cnot_model", "subspace", "branch_shots"}
_NOISE_KEYS = {"p", "mode", "f", "p_cnot"}
_SUBSPACE_KEYS = {"system_label", "system_basis", "environments", "basis_vectors"}
_STATE_KEYS = {"layout", "matrix"}


def _check_keys(data: Any, allowed: set[str], path: str) -> None:
    """Reject a document that is not an object or has a key outside
    ``allowed``; ``path`` prefixes the field names in the message."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"field '{path.rstrip('.') or 'document'}': expected an object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"field '{path}{key}': unknown key")


def _is_integer(value: Any) -> bool:
    """A JSON integer: neither a bool nor a float, however integral."""
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON values a scalar field of each kind takes; a bool is none of them.
_KINDS = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}


def _optional(data: Mapping[str, Any], key: str, kind, path: str) -> dict[str, Any]:
    """``{key: value}`` for a key that is present and not null, its value a
    JSON ``kind``; ``{}`` otherwise, so the dataclass default applies."""
    value = data.get(key)
    if value is None:
        return {}
    expected, json_types = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, json_types):
        raise ConfigError(f"field '{path}{key}': expected {expected}, got {value!r}")
    try:
        return {key: kind(value)}
    except OverflowError as exc:  # an integer too large for a float
        raise ConfigError(f"field '{path}{key}': {exc}") from exc


def noise_from_dict(data: Mapping[str, Any], path: str = "noise.") -> NoiseConfig:
    _check_keys(data, _NOISE_KEYS, path)
    try:
        return NoiseConfig(**_optional(data, "p", float, path),
                           **_optional(data, "mode", str, path),
                           **_optional(data, "f", float, path),
                           **_optional(data, "p_cnot", float, path))
    except InvariantViolation as exc:
        raise ConfigError(f"field '{path.rstrip('.')}': {exc}") from exc


def config_from_dict(data: Mapping[str, Any],
                     seed_override: int | None = None) -> ProtocolConfig:
    """A witness config from the keys present; ``seed_override`` replaces a valid seed."""
    _check_keys(data, _WITNESS_KEYS, "")
    fields = (_optional(data, "framework", str, "") | _optional(data, "shots", int, "")
              | _optional(data, "seed", int, "") | _optional(data, "cnot_model", str, ""))
    if seed_override is not None:
        fields["seed"] = seed_override
    if "fragment" in data:
        fragment = [data["fragment"]] if isinstance(data["fragment"], str) else data["fragment"]
        if not (isinstance(fragment, Sequence) and fragment
                and all(isinstance(name, str) for name in fragment)):
            raise ConfigError("field 'fragment': expected a nonempty list of environments")
        fields["fragment"] = tuple(fragment)
    if "noise" in data:
        fields["noise"] = noise_from_dict(data["noise"])
    unitary, matrix = data.get("unitary"), None
    if isinstance(unitary, str):
        fields["unitary"] = unitary
    elif unitary is not None:
        matrix = _complex_matrix(unitary, "unitary")
    if data.get("subspace") is not None:
        fields["subspace"] = resolve_subspace(data["subspace"])
    branch_shots = data.get("branch_shots")
    if branch_shots is not None:
        if not (isinstance(branch_shots, (list, tuple)) and len(branch_shots) == 2
                and all(_is_integer(n) for n in branch_shots)):
            raise ConfigError(
                f"field 'branch_shots': expected two integers, got {branch_shots!r}")
        fields["branch_shots"] = tuple(branch_shots)
    if data.get("replacement") is not None:
        try:
            fields["replacement"] = state_from_dict(data["replacement"])
        except ConfigError as exc:
            raise ConfigError(f"field 'replacement': {exc}") from exc
    try:
        config = ProtocolConfig(**fields)
    except InvariantViolation as exc:
        raise ConfigError(f"config rejected: {exc}") from exc
    if matrix is not None:
        try:  # the rest is valid, so the matrix is at fault
            config = dataclasses.replace(config, unitary=matrix)
        except InvariantViolation as exc:
            raise ConfigError(f"field 'unitary': {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_SWEEP_COPIED = ("framework", "shots", "seed", "cnot_model", "subspace")
_SWEEP_NOISE = (("noise_mode", "mode"), ("f", "f"), ("p_cnot", "p_cnot"))
_SWEEP_KEYS = {*_SWEEP_COPIED, *(key for key, _ in _SWEEP_NOISE),
               "p_values", "fragments", "output_path"}


def sweep_from_dict(data: Mapping[str, Any],
                    seed_override: int | None = None) -> list[ProtocolConfig]:
    """The witness configs of a sweep's points, fragment-major.

    Each point's config is ``config_from_dict`` of the witness document the
    sweep describes at that point, so a sweep accepts and rejects exactly
    what a witness config does.  The first point resolves ``subspace`` and
    the later ones share its spec, and with it their contexts in
    ``run_witnesses``.
    """
    _check_keys(data, _SWEEP_KEYS, "")
    p_values, fragments = data.get("p_values"), data.get("fragments")
    for key, value in (("p_values", p_values), ("fragments", fragments)):
        if not isinstance(value, Sequence) or isinstance(value, str) or not value:
            raise ConfigError(f"field '{key}': expected a nonempty list")
    witness = {key: data[key] for key in _SWEEP_COPIED if key in data}
    noise = {name: data[key] for key, name in _SWEEP_NOISE if key in data}
    configs = []
    for fragment in fragments:
        for p in p_values:
            try:
                config = config_from_dict(
                    {**witness, "fragment": fragment, "noise": {**noise, "p": p}},
                    seed_override)
            except ConfigError as exc:
                raise ConfigError(f"sweep point p={p!r}, fragment={fragment!r}: {exc}") from exc
            witness["subspace"] = config.subspace  # one spec for every point
            configs.append(config)
    ps = [config.noise.p for config in configs[:len(p_values)]]
    if ps != sorted(ps):
        raise ConfigError("field 'p_values': must be sorted ascending")
    return configs


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def report_to_json(report: WitnessReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def report_from_json(text: str) -> WitnessReport:
    return WitnessReport.from_dict(json.loads(text))


SWEEP_COLUMNS = (
    "p", "fragment", "measure", "witness_max_subset",
    "witness_single_min", "witness_single_max",
    "stderr_max_subset", "successful_runs",
)

_SWEEP_HEADER_COMMENT = """\
# Sweep of the non-objectivity witness over noise strength and fragments.
# Columns:
#   p                   additional noise strength on the initial state
#   fragment            accessed environments, joined by '+'
#   measure             trace-norm non-objectivity measure of the reduced state
#   witness_max_subset  witness maximized over outcome subsets
#   witness_single_min  smallest single-outcome witness value
#   witness_single_max  largest single-outcome witness value
#   stderr_max_subset   bootstrap standard error (Monte Carlo mode; empty if exact)
#   successful_runs     successful runs across both branches (0 if exact)
"""


def sweep_rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    lines = [_SWEEP_HEADER_COMMENT.rstrip("\n"), ",".join(SWEEP_COLUMNS)]
    for row in rows:  # str of a float is its repr: the shortest exact form
        lines.append(",".join("" if row[col] is None else str(row[col])
                              for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def report_to_sweep_row(config: ProtocolConfig, report: WitnessReport) -> dict[str, Any]:
    """One run's CSV row: p from its config, the fragment (in spec order) from its report."""
    return {
        "p": float(config.noise.p),
        "fragment": "+".join(report.fragment),
        "measure": float(report.measure),
        "witness_max_subset": float(report.witness_max_subset),
        "witness_single_min": float(np.min(report.witness_single)),
        "witness_single_max": float(np.max(report.witness_single)),
        "stderr_max_subset": (None if report.stderr_max_subset is None
                              else float(report.stderr_max_subset)),
        "successful_runs": int(report.successful_runs),
    }
