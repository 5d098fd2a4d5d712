"""Command-line interface: subcommands, formats, exit codes, round trips."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdarwin import (
    DensityOperator,
    InvariantViolation,
    NoiseConfig,
    ObjectiveSubspaceSpec,
    ProtocolConfig,
    PureState,
    apply_gate,
    eigvals_hermitian,
    maximally_mixed,
    prepare_initial_isbs,
    prepare_initial_sqd,
    run_witness,
    sqd_layout,
)
from qdarwin import serialize
from qdarwin.cli import main
from qdarwin.protocol import DEFAULT_SEED
from qdarwin.serialize import (
    ConfigError,
    config_from_dict,
    load_state,
    noise_from_dict,
    save_state,
    state_from_dict,
    state_to_dict,
)

from conftest import qubits

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_objective_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"],
        "noise": {"p": 0.0}, "shots": 0,
    })
    code, out, _ = run_cli(capsys, "witness", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["measure"] == 0.0
    assert report["witness_max_subset"] == 0.0


def test_witness_noise_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"],
        "noise": {"p": 0.4}, "shots": 0,
    })
    code, out, _ = run_cli(capsys, "witness", "--config", cfg)
    assert code == 0
    assert abs(json.loads(out)["measure"] - 0.2) < 1e-9


def test_witness_monte_carlo_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"],
        "noise": {"p": 0.3}, "shots": 6000, "seed": 7,
    })
    code1, out1, _ = run_cli(capsys, "witness", "--config", cfg)
    code2, out2, _ = run_cli(capsys, "witness", "--config", cfg)
    assert code1 == code2 == 0
    assert out1 == out2


def test_witness_report_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"],
        "noise": {"p": 0.2}, "shots": 800, "seed": 4,
    })
    _, out, _ = run_cli(capsys, "witness", "--config", cfg)
    report = run_witness(config_from_dict(json.loads(Path(cfg).read_text())))
    assert json.loads(out) == report.to_dict()


def test_witness_default_seed_is_fixed(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"], "shots": 0,
    })
    _, out, _ = run_cli(capsys, "witness", "--config", cfg)
    assert json.loads(out)["seed"] == DEFAULT_SEED


def test_witness_seed_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"], "shots": 0, "seed": 5,
    })
    _, out, _ = run_cli(capsys, "witness", "--config", cfg, "--seed", "12")
    assert json.loads(out)["seed"] == 12


def test_witness_malformed_config_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "framework": "SQD", "fragment": ["E1"],
        "noise": {"p": 1.7}, "shots": 0,
    })
    code, _, err = run_cli(capsys, "witness", "--config", cfg)
    assert code == 2
    assert "noise" in err


def test_witness_nontermination_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1", "E2"],
        "noise": {"p_cnot": 0.005}, "shots": 50, "seed": 2,
    })
    code, _, err = run_cli(capsys, "witness", "--config", cfg)
    assert code == 4
    assert "aborted" in err


def test_witness_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1"], "noise": {"p": 0.4},
    })
    code, out, _ = run_cli(capsys, "witness", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0].startswith("p,fragment,")
    assert rows[1].startswith("0.4,E1,")


def test_sweep_and_witness_csv_rows_agree_on_fragment_order(tmp_path, capsys):
    # Both commands write the fragment column in spec order, however the
    # document lists the fragment.
    sweep = write_config(tmp_path, "s.json", {"fragments": [["E2", "E1"]], "p_values": [0.2]})
    witness = write_config(tmp_path, "w.json", {"fragment": ["E2", "E1"], "noise": {"p": 0.2}})
    rows = []
    for command, cfg in (("sweep", sweep), ("witness", witness)):
        code, out, _ = run_cli(capsys, command, "--config", cfg, "--format", "csv")
        assert code == 0
        rows.append(out.splitlines()[-1])
    assert rows[0] == rows[1]
    assert rows[0].startswith("0.2,E1+E2,")


@pytest.mark.parametrize("document", [
    {},
    {"framework": None, "unitary": None, "replacement": None, "shots": None, "seed": None,
     "cnot_model": None, "subspace": None, "branch_shots": None,
     "noise": {"p": None, "mode": None, "f": None, "p_cnot": None}},
], ids=["absent", "null"])
def test_absent_keys_take_the_dataclass_defaults(document):
    parsed, default = config_from_dict(document), ProtocolConfig()
    for f in dataclasses.fields(ProtocolConfig):
        assert getattr(parsed, f.name) == getattr(default, f.name), f.name
    assert noise_from_dict(document.get("noise", {})) == NoiseConfig()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return rows


def test_sweep_closed_form_law(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "framework": "SQD", "noise_mode": "mix_global",
        "p_values": [round(0.1 * k, 10) for k in range(11)],
        "fragments": [["E1"], ["E1", "E2"]],
        "shots": 0,
    })
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 22
    for row in rows:
        if row["fragment"] == "E1":
            assert abs(float(row["measure"]) - float(row["p"]) / 2) < 1e-9


def test_sweep_csv_is_lossfree(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "framework": "SQD", "noise_mode": "mix_global",
        "p_values": [0.0, 1 / 3, 2 / 3], "fragments": [["E1"]], "shots": 0,
    })
    _, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    rows = parse_csv(out)
    # repr round-trip: parsing the cell recovers the exact float.
    from qdarwin import ProtocolConfig, witness_exact
    for row in rows:
        p = float(row["p"])
        exact = witness_exact(ProtocolConfig(
            framework="SQD", fragment=("E1",), noise=NoiseConfig(p=p)))
        assert float(row["measure"]) == exact.measure
        assert float(row["witness_max_subset"]) == exact.witness_max_subset


def test_sweep_rejects_empty_p_values(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "framework": "SQD", "noise_mode": "mix_global",
        "p_values": [], "fragments": [["E1"]],
    })
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "p_values" in err


def test_sweep_rejects_unsorted_p_values(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "framework": "SQD", "noise_mode": "mix_global",
        "p_values": [0.5, 0.1], "fragments": [["E1"]],
    })
    code, _, err = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 2


def test_sweep_writes_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, "s.json", {
        "framework": "SQD", "noise_mode": "mix_global",
        "p_values": [0.0, 0.5], "fragments": [["E1"]], "shots": 0,
        "output_path": str(out_path),
    })
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    assert out == ""
    assert out_path.exists()
    assert len(parse_csv(out_path.read_text())) == 2


@pytest.mark.parametrize("command", ["witness", "sweep", "check", "cost"])
def test_sweep_unwritable_path(tmp_path, capsys, command):
    # Every command maps an unwritable --out to a config error naming the path.
    argv = {
        "witness": ["--config", str(REPO_ROOT / "configs" / "witness_sqd_e1.json")],
        "sweep": ["--config", write_config(tmp_path, "s.json", {
            "framework": "SQD", "noise_mode": "mix_global",
            "p_values": [0.0], "fragments": [["E1"]], "shots": 0,
        })],
        "check": ["--state", str(REPO_ROOT / "states" / "sqd_initial.json"),
                  "--fragment", "E1"],
        "cost": ["--m-envs", "1", "--c", "10", "--p-cnot", "0.5"],
    }[command]
    out_path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli(capsys, command, *argv, "--out", out_path)
    assert code == 2
    assert out == ""
    assert "cannot write" in err and out_path in err


_E1_KETS = [[[[1, 0], [0, 0], [0, 0], [0, 0]]], [[[0, 0], [1, 0], [0, 0], [0, 0]]]]
_E1_SPEC = {"environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": {"E1": _E1_KETS}}
# Valid spec, but its environment kets |+>, |-> are not the system's basis.
_PLUS_MINUS_SPEC = {"environments": {"E1": ["E1"]}, "basis_vectors": {"E1": [
    [[[2 ** -0.5, 0], [2 ** -0.5, 0]]], [[[2 ** -0.5, 0], [-(2 ** -0.5), 0]]]]}}
_NOT_ALIGNED = "subspace projector 'E1'[0] is not aligned with the system basis"
# Index 0 spans |00>, |01> and index 1 spans |01>, |11>: not disjoint.
_OVERLAPPING_SPEC = {"environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": {"E1": [
    [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]]],
    [[[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]]}}



def _replacement(layout, trace=1.0):
    """State-file dict of trace * |0...0><0...0| on ``layout``."""
    d = 2 ** len(layout)
    return {"layout": layout, "matrix": [[[trace * (i == j == 0), 0] for j in range(d)]
                                         for i in range(d)]}


@pytest.mark.parametrize("command, payload, field", [
    ("witness", {"framework": "ISBS", "fragment": ["E1"], "cnot_model": "noisy_prep",
                 "noise": {"p": 0.1, "f": 0.9}}, "cnot_model"),
    ("witness", {"framework": "ISBS", "fragment": ["E1"], "shots": 100,
                 "noise": {"p": 0.1, "p_cnot": 0.01}}, "p_cnot"),
    ("sweep", {"framework": "SQD", "cnot_model": "bogus", "p_values": [0.1],
               "fragments": [["E1"]]}, "cnot_model"),
    ("sweep", {"framework": "SQD", "noise_mode": "bogus", "p_values": [0.1],
               "fragments": [["E1"]]}, "noise mode"),
    ("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["X1", "X2"]}, "basis_vectors": {"E1": _E1_KETS}}},
     "subspace"),
    ("witness", {"framework": "ISBS", "fragment": ["E1"], "subspace": _PLUS_MINUS_SPEC},
     "subspace"),
    ("sweep", {"framework": "ISBS", "p_values": [0.1], "fragments": [["E1"]],
               "subspace": _PLUS_MINUS_SPEC}, "subspace"),
    ("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": _OVERLAPPING_SPEC},
     "subspace"),
    ("witness", {"framework": "SQD", "fragment": ["E1"], "unitary": "bogus"}, "unitary"),
    ("witness", {"framework": "SQD", "fragment": ["E1"],
                 "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "unitary"),
    ("witness", {"framework": "SQD", "fragment": ["E1"],
                 "unitary": [[[2.0 * (i == j), 0] for j in range(32)] for i in range(32)]},
     "unitary"),
    # Sized to the spec's own subsystems, but a witness run spans all 32 dims.
    ("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": {"E1": _E1_KETS}},
        "unitary": [[[1.0 * (i == j), 0] for j in range(8)] for i in range(8)]},
     "field 'unitary'"),
    # A sweep point is a witness config: the ISBS holes are refused there too.
    ("sweep", {"framework": "ISBS", "cnot_model": "noisy_prep", "p_values": [0.1],
               "fragments": [["E1"]]}, "cnot_model"),
    ("sweep", {"framework": "ISBS", "p_cnot": 0.5, "p_values": [0.1],
               "fragments": [["E1"]]}, "p_cnot"),
    ("sweep", {"p_values": [0.1], "fragments": [["E1"]], "output_path": 5},
     "output_path"),
    # A replacement must be a normalized state on the unaccessed environments
    # (E2_1, E2_2 for fragment E1), in layout order.
    ("witness", {"fragment": ["E1"], "replacement": _replacement([["X", 2], ["Y", 2]])},
     "replacement"),
    ("witness", {"fragment": ["E1"],
                 "replacement": _replacement([["E2_2", 2], ["E2_1", 2]])}, "replacement"),
    ("witness", {"fragment": ["E1"], "replacement": _replacement([["E2_1", 2]])},
     "replacement"),
    ("witness", {"fragment": ["E1"],
                 "replacement": _replacement([["E2_1", 2], ["E2_2", 2]], 0.5)},
     "replacement"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 6000, "seed": -5},
     "seed"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 1}, "shots"),
    # Every document has a table of allowed keys: a misspelt key is an error,
    # not a silently ignored field.
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shot": 6000},
     "field 'shot': unknown key"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3, "mdoe": "depolarize_local"}},
     "field 'noise.mdoe': unknown key"),
    ("witness", {"fragment": ["E1"], "noise": 0.3}, "field 'noise'"),
    ("witness", {"fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": {"E1": _E1_KETS},
        "sytem_label": "S"}}, "field 'subspace.sytem_label': unknown key"),
    ("sweep", {"p_values": [0.1], "fragments": [["E1"]], "shot": 6000},
     "field 'shot': unknown key"),
    # Integer fields take JSON integers only: no truncated float, no bool.
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 3000.7}, "shots"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 6000, "seed": True},
     "seed"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 3000,
                 "branch_shots": [1500.5, 1499.5]}, "branch_shots"),
    # A branch split must add up to shots, so exact mode takes none.
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 100,
                 "branch_shots": [10, 10]}, "branch_shots"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3}, "shots": 0,
                 "branch_shots": [10, 10]}, "branch_shots"),

    # Float fields take JSON numbers only: no bool, no numeric string.
    ("witness", {"fragment": ["E1"], "noise": {"p": True}}, "field 'noise.p'"),
    ("witness", {"fragment": ["E1"], "noise": {"p": "0.3"}}, "field 'noise.p'"),
    ("witness", {"fragment": ["E1"], "cnot_model": "noisy_prep",
                 "noise": {"p": 0.3, "f": "0.9"}}, "field 'noise.f'"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 0.3, "p_cnot": False}, "shots": 100},
     "field 'noise.p_cnot'"),
    ("witness", {"fragment": ["E1"], "noise": {"p": 10 ** 400}}, "field 'noise.p'"),
    ("sweep", {"p_values": [0.1, "0.3"], "fragments": [["E1"]]}, "field 'p_values'"),
    ("sweep", {"p_values": [0.1], "fragments": [["E1"]], "cnot_model": "noisy_prep",
               "f": True}, "field 'f'"),
    # A subspace is a preset name or a spec object; a fragment is a name or a
    # nonempty list of names.
    ("witness", {"fragment": ["E1"], "subspace": "parity3"},
     "field 'subspace': unknown preset 'parity3'"),
    ("witness", {"fragment": ["E1"], "subspace": 5}, "field 'subspace'"),
    ("witness", {"fragment": 5}, "field 'fragment'"),
    # String fields take JSON strings only: no number turned into a name.
    ("witness", {"framework": 5}, "field 'framework'"),
    ("witness", {"cnot_model": 7}, "field 'cnot_model'"),
    ("witness", {"noise": {"mode": 1}}, "field 'noise.mode'"),
    ("witness", {"fragment": [1]}, "field 'fragment'"),
    ("witness", {"fragment": ["E1"], "subspace": {**_E1_SPEC, "system_label": 5}},
     "field 'subspace.system_label'"),
    ("witness", {"fragment": ["E1"], "subspace": {
        **_E1_SPEC, "environments": {"E1": [1, 2]}}}, "field 'subspace.environments.E1'"),
    ("witness", {"fragment": ["E1"], "subspace": {**_E1_SPEC, "environments": [["E1_1"]]}},
     "field 'subspace'"),
    ("witness", {"fragment": ["E1"], "subspace": {
        **_E1_SPEC, "environments": {"E1": ["E1_1", "E1_1"]}}},
     "field 'subspace': subsystems ['E1_1'] assigned twice"),
    # The guard clauses of ProtocolConfig, each with its message.
    ("witness", {"framework": "XYZ"}, "unknown framework 'XYZ'"),
    ("witness", {"fragment": ["E1"], "shots": -4}, "shots must be nonnegative"),
    ("witness", {"fragment": ["E1"], "shots": 10, "branch_shots": [0, 10]},
     "branch_shots entries must be positive"),
    # A multinomial draw takes at most 2^63 - 1 runs.
    pytest.param("witness", {"fragment": ["E1"], "shots": 10 ** 20},
                 "shots must be nonnegative and below 2^63", id="shots-above-int64"),
    # The spec's labels are in the register, but E1's projectors span four
    # dimensions and E1_1 two.
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1_1"]}, "basis_vectors": {"E1": _E1_KETS}}},
        "field 'subspace': subspace environment 'E1' ['E1_1'] of dimension 4 does not fit",
        id="subspace-dimension-does-not-fit-the-register"),
    # The guard clauses of ObjectiveSubspaceSpec, each with its message.
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        **_E1_SPEC, "system_basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}},
        "field 'subspace': system basis must be a square matrix of kets",
        id="system-basis-not-square"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        **_E1_SPEC, "system_basis": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}},
        "field 'subspace': system basis does not resolve the identity",
        id="system-basis-not-unitary"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        **_E1_SPEC, "environments": {"E1": []}}},
        "field 'subspace': environment 'E1' has no subsystems", id="environment-without-members"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["S"]}, "basis_vectors": {"E1": [[[[1, 0], [0, 0]]],
                                                                 [[[0, 0], [1, 0]]]]}}},
        "field 'subspace': system label cannot belong to an environment",
        id="system-label-in-an-environment"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        **_E1_SPEC, "environments": {"E1": ["E1_1", "E1_2"], "E2": ["E2_1", "E2_2"]}}},
        "field 'subspace': missing projectors for environment 'E2'",
        id="environment-without-basis-vectors"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1_1", "E1_2"], "E2": ["E2_1", "E2_2"]},
        "basis_vectors": {"E1": _E1_KETS,
                          "E2": _E1_KETS + [[[[0, 0], [0, 0], [1, 0], [0, 0]]]]}}},
        "field 'subspace': environment 'E2' needs 2 projectors, got 3",
        id="environment-with-three-index-lists"),
    pytest.param("witness", {"framework": "SQD", "fragment": ["E1"], "subspace": {
        **_E1_SPEC, "basis_vectors": {"E1": [_E1_KETS[0], [[[0, 0], [1, 0]]]]}}},
        "field 'subspace': projector shapes differ in 'E1'", id="index-lists-of-unequal-length"),
    # The guard clauses of require_basis_spec: an ISBS subspace must be a basis.
    pytest.param("witness", {"framework": "ISBS", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1", "E2"]}, "basis_vectors": {"E1": _E1_KETS}}},
        "field 'subspace': subspace environment 'E1' dimension differs from the system's",
        id="isbs-environment-of-two-photons"),
    pytest.param("witness", {"framework": "ISBS", "fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1"]}, "basis_vectors": {"E1": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [0, 0]]]]}}},
        "field 'subspace': subspace projector 'E1'[0] is not rank-1",
        id="isbs-projector-of-rank-two"),
    pytest.param("witness", {"framework": "ISBS", "fragment": ["E1"],
                             "subspace": _PLUS_MINUS_SPEC},
                 f"field 'subspace': {_NOT_ALIGNED}", id="isbs-projector-not-aligned"),
    pytest.param("sweep", {"framework": "ISBS", "p_values": [0.1], "fragments": [["E1"]],
                           "subspace": _PLUS_MINUS_SPEC},
                 f"field 'subspace': {_NOT_ALIGNED}", id="isbs-sweep-projector-not-aligned"),
    # A custom spec's own environment names are not in the preset.
    pytest.param("witness", {"framework": "ISBS", "fragment": ["A"], "subspace": {
        "environments": {"A": ["E1"]},
        "basis_vectors": {"A": _PLUS_MINUS_SPEC["basis_vectors"]["E1"]}}},
                 f"field 'subspace': {_NOT_ALIGNED.replace('E1', 'A')}",
                 id="isbs-renamed-projector-not-aligned"),
])
def test_config_holes_exit_as_config_errors(tmp_path, capsys, command, payload, field):
    # Configs the pipeline would silently mis-run, or only reject mid-run,
    # are refused while parsing.
    cfg = write_config(tmp_path, "c.json", payload)
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize("eps", [9.9e-11, 4.9e-11])
def test_near_unitary_that_would_fail_the_exit_check_is_a_config_error(tmp_path, capsys, eps):
    # Each entry of U^dag U - I is at most eps, yet U adds 4 eps to the trace
    # of the prepared state psi psi^dag: the row-sum bound rejects it.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    h_alt = np.eye(1)
    for gate in (hadamard, np.eye(2), hadamard, np.eye(2), hadamard):  # S, E1_2, E2_2
        h_alt = np.kron(h_alt, gate)
    psi = prepare_initial_sqd(NoiseConfig(p=0.0)).matrix
    u = h_alt @ (np.eye(32) + 2 * eps * psi)
    cfg = write_config(tmp_path, "w.json", {
        "framework": "SQD", "fragment": ["E1", "E2"],
        "unitary": [[[z.real, z.imag] for z in row] for row in u.tolist()]})
    code, out, err = run_cli(capsys, "witness", "--config", cfg)
    assert (code, out) == (2, "")
    assert "field 'unitary': matrix is not unitary" in err


_NOT_UNITARY = [[[1.0 * (i == j) * (1 + (i == 0)), 0] for j in range(32)] for i in range(32)]


@pytest.mark.parametrize("payload, field", [
    pytest.param({"framework": "XYZ"}, "framework", id="framework"),
    pytest.param({"fragment": ["E9"]}, "fragment", id="fragment-not-in-the-preset"),
    pytest.param({"shots": -4}, "shots", id="shots-negative"),
    pytest.param({"shots": 2 ** 63}, "shots", id="shots-above-int64"),
    pytest.param({"shots": 1}, "shots", id="shots-one"),
    pytest.param({"seed": -1}, "seed", id="seed"),
    pytest.param({"cnot_model": "bad"}, "cnot_model", id="cnot_model"),
    pytest.param({"shots": 10, "branch_shots": [0, 10]}, "branch_shots",
                 id="branch_shots-not-positive"),
    pytest.param({"shots": 100, "branch_shots": [10, 10]}, "branch_shots",
                 id="branch_shots-not-the-shots"),
    pytest.param({"framework": "ISBS", "cnot_model": "noisy_prep"}, "cnot_model",
                 id="isbs-cnot_model"),
    pytest.param({"framework": "ISBS", "noise": {"p_cnot": 0.5}}, "noise.p_cnot",
                 id="isbs-p_cnot"),
    pytest.param({"noise": {"f": 0.5}}, "noise.f", id="ideal-f"),
    pytest.param({"replacement": _replacement([["X", 2], ["Y", 2]])}, "replacement",
                 id="replacement-layout"),
    pytest.param({"replacement": _replacement([["E2_1", 2], ["E2_2", 2]], 0.5)},
                 "replacement", id="replacement-trace"),
    pytest.param({"fragment": ["E2"], "subspace": _E1_SPEC}, "subspace",
                 id="fragment-not-in-the-subspace"),
    pytest.param({"framework": "ISBS", "subspace": _PLUS_MINUS_SPEC}, "subspace",
                 id="subspace-not-a-basis"),
    pytest.param({"subspace": {**_E1_SPEC, "environments": {"E1": ["E1_1"]}}}, "subspace",
                 id="subspace-does-not-fit"),
    pytest.param({"unitary": "bogus"}, "unitary", id="unitary-preset"),
    pytest.param({"unitary": _NOT_UNITARY}, "unitary", id="unitary-matrix"),
])
def test_each_config_check_names_its_field(tmp_path, capsys, payload, field):
    # One case per rejection of ProtocolConfig: the diagnostic starts with
    # the witness-document key at fault.
    code, out, err = run_cli(capsys, "witness", "--config",
                             write_config(tmp_path, "w.json", payload))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: field '{field}': ")


@pytest.mark.parametrize("payload, field", [
    pytest.param({"p_values": [1.5]}, "p_values", id="p_values-out-of-range"),
    pytest.param({"p_values": ["0.3"]}, "p_values", id="p_values-string"),
    pytest.param({"cnot_model": "noisy_prep", "f": 1.5}, "f", id="f"),
    pytest.param({"noise_mode": "bogus"}, "noise_mode", id="noise_mode"),
    pytest.param({"shots": 100, "p_cnot": 0.0}, "p_cnot", id="p_cnot"),
    pytest.param({"framework": "ISBS", "p_cnot": 0.5}, "p_cnot", id="isbs-p_cnot"),
    pytest.param({"framework": "ISBS", "f": 0.5}, "f", id="ideal-f"),
    pytest.param({"fragments": [["E9"]]}, "fragments", id="fragments"),
])
def test_sweep_errors_name_the_sweep_keys(tmp_path, capsys, payload, field):
    # A point's witness document has noise and fragment keys that a sweep
    # does not; the diagnostic names the sweep's own key instead.
    document = {"p_values": [0.1], "fragments": [["E1"]], **payload}
    code, out, err = run_cli(capsys, "sweep", "--config",
                             write_config(tmp_path, "s.json", document))
    assert (code, out) == (2, "")
    point = document["p_values"][0], document["fragments"][0]
    assert err.startswith(f"config error: sweep point p={point[0]!r}, fragment={point[1]!r}: "
                          f"field '{field}': ")


def test_config_from_dict_builds_one_protocol_config(monkeypatch):
    # Accepted or rejected, a document is validated by one construction.
    built = []

    def spy(**fields):
        built.append(fields)
        return ProtocolConfig(**fields)

    monkeypatch.setattr(serialize, "ProtocolConfig", spy)
    for document in ({}, {"fragment": ["E9"]}, {"unitary": "bogus"},
                     {"fragment": ["E2"], "subspace": _E1_SPEC}):
        built.clear()
        try:
            config_from_dict(document)
        except ConfigError:
            pass
        assert len(built) == 1


@pytest.mark.parametrize("state, subspace, fragment, field", [
    pytest.param("sqd_initial", "parity2", "E9", "fragment", id="parity2-E9-fragment"),
    pytest.param("sqd_initial", _OVERLAPPING_SPEC, None, "subspace",
                 id="subspace1-None-subspace"),
    # The spec has E1, but the GHZ state has no E1_1 or E1_2.
    pytest.param("ghz5", "parity2", "E1", "fragment", id="ghz5-parity2-E1-fragment"),
    # Nor does it hold either environment of the spec.
    pytest.param("ghz5", "parity2", None, "fragment", id="ghz5-parity2-None-fragment"),
    # A name that is neither a preset nor a file is a misspelt preset.
    pytest.param("sqd_initial", "parity3", None,
                 "field 'subspace': unknown preset 'parity3'", id="parity3-None-subspace"),
    pytest.param("sqd_initial", "parity2", ",",
                 "field 'fragment': expected a nonempty list of environments",
                 id="parity2-empty-fragment"),
    # A subspace must fit the state: its system label present, and the
    # system and the fragment's environments of the spec's dimensions.
    pytest.param("sqd_initial", {**_E1_SPEC, "system_label": "Q"}, None,
                 "field 'subspace': subspace system ['Q'] of dimension 2 does not fit",
                 id="system-label-not-in-state"),
    pytest.param("ghz5", {"system_basis": [[[1.0 * (i == j), 0] for j in range(3)]
                                           for i in range(3)],
                          "environments": {"E1": ["E1"]},
                          "basis_vectors": {"E1": [[[[1.0 * (i == j), 0] for j in range(3)]]
                                                   for i in range(3)]}},
                 None, "field 'subspace': subspace system ['S'] of dimension 3 does not fit",
                 id="ghz5-three-dimensional-system-basis"),
    # The verdict never reads the environment projectors, so this ran before.
    pytest.param("sqd_initial", {"environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": {
        "E1": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]]}}, "E1",
                 "field 'subspace': subspace environment 'E1' ['E1_1', 'E1_2'] of dimension 2",
                 id="environment-dimension-does-not-fit-the-state"),
])
def test_check_config_holes_exit_as_config_errors(tmp_path, capsys, state, subspace,
                                                  fragment, field):
    if not isinstance(subspace, str):
        subspace = write_config(tmp_path, "spec.json", subspace)
    argv = ["check", "--state", str(REPO_ROOT / "states" / f"{state}.json"),
            "--subspace", subspace]
    if fragment is not None:
        argv += ["--fragment", fragment]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err


_SHIPPED_WITNESS = {"framework": "SQD", "fragment": ["E1"], "noise": {"p": 0.4}}


@pytest.mark.parametrize("config, equivalent", [
    pytest.param(_SHIPPED_WITNESS, {**_SHIPPED_WITNESS, "subspace": "parity2"},
                 id="sqd-parity2-exact"),
    pytest.param({**_SHIPPED_WITNESS, "shots": 3000, "seed": 5},
                 {**_SHIPPED_WITNESS, "shots": 3000, "seed": 5, "subspace": "parity2"},
                 id="sqd-parity2-monte-carlo"),
    pytest.param({"framework": "ISBS", "fragment": ["E1", "E2"], "noise": {"p": 0.3}},
                 {"framework": "ISBS", "fragment": ["E1", "E2"], "noise": {"p": 0.3},
                  "subspace": "computational"}, id="isbs-computational-exact"),
    pytest.param({"framework": "ISBS", "fragment": ["E3"], "shots": 2000, "seed": 9},
                 {"framework": "ISBS", "fragment": ["E3"], "shots": 2000, "seed": 9,
                  "subspace": "computational"}, id="isbs-computational-monte-carlo"),
    pytest.param(_SHIPPED_WITNESS, {**_SHIPPED_WITNESS, "fragment": "E1"},
                 id="fragment-string"),
])
def test_equivalent_configs_give_identical_bytes(tmp_path, capsys, config, equivalent):
    # Naming a framework's preset subspace is the same as leaving it out, and
    # a bare fragment name is the same as a one-name list.
    outputs = [run_cli(capsys, "witness", "--config", write_config(tmp_path, name, doc))
               for name, doc in (("a.json", config), ("b.json", equivalent))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("sweep", [
    "configs/sweep_sqd_exact.json",
    "configs/sweep_isbs_exact.json",
    {"framework": "SQD", "noise_mode": "depolarize_local", "cnot_model": "noisy_prep",
     "f": 0.9, "p_cnot": 0.8, "p_values": [0.1, 0.6], "fragments": [["E1"], ["E2"]],
     "shots": 2000, "seed": 3},
], ids=["sqd-exact", "isbs-exact", "sqd-monte-carlo"])
def test_sweep_json_reports_equal_witness_outputs(tmp_path, capsys, sweep):
    # Each report of `sweep --format json` is the `witness` report of its point.
    if isinstance(sweep, str):
        sweep = json.loads((REPO_ROOT / sweep).read_text())
    code, out, _ = run_cli(capsys, "sweep", "--config", write_config(tmp_path, "s.json", sweep),
                           "--format", "json")
    assert code == 0
    base = {key: sweep[key] for key in ("framework", "shots", "seed", "cnot_model")
            if key in sweep}
    noise = {name: sweep[key] for key, name in
             (("noise_mode", "mode"), ("f", "f"), ("p_cnot", "p_cnot")) if key in sweep}
    expected = []
    for fragment in sweep["fragments"]:
        for p in sweep["p_values"]:
            point = write_config(tmp_path, "w.json", {
                **base, "fragment": fragment, "noise": {**noise, "p": p}})
            code, witness_out, _ = run_cli(capsys, "witness", "--config", point)
            assert code == 0
            expected.append(json.loads(witness_out))
    assert json.loads(out) == expected


def test_sweep_isbs_families(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "framework": "ISBS", "noise_mode": "mix_global",
        "p_values": [round(0.2 * k, 10) for k in range(6)],
        "fragments": [["E1"], ["E1", "E2"], ["E1", "E2", "E3"],
                      ["E1", "E2", "E3", "E4"]],
        "shots": 0,
    })
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 24
    families = {}
    for row in rows:
        families.setdefault(row["fragment"], []).append(
            (float(row["p"]), float(row["measure"]), float(row["witness_max_subset"])))
    # The full-fragment measure decreases with noise and always dominates the
    # witness; the witness itself is V-shaped (it rides the projected
    # branch's null mass once every outcome difference turns positive).
    full = sorted(families["E1+E2+E3+E4"])
    assert all(full[k][1] >= full[k + 1][1] - 1e-9 for k in range(len(full) - 1))
    for p, measure, witness in full:
        assert witness <= measure + 1e-9
        expected = 0.5 - p / 32 if p < 16 / 31 else 15 * p / 16
        assert abs(witness - expected) < 1e-9
    # Reduced fragments: the witness saturates the measure at every point.
    for name in ("E1", "E1+E2", "E1+E2+E3"):
        for _, measure, witness in families[name]:
            assert abs(measure - witness) < 1e-9


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_shipped_branching_state(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--state", str(REPO_ROOT / "states" / "sqd_initial.json"),
        "--subspace", "parity2", "--fragment", "E1")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["sqd"] is True and verdict["qd"] is True


def test_check_ghz_full_environment(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--state", str(REPO_ROOT / "states" / "ghz5.json"),
        "--subspace", "computational")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["qd"] is True
    assert verdict["sqd"] is False


def test_check_maximally_mixed(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--state",
        str(REPO_ROOT / "states" / "maximally_mixed_sqd.json"),
        "--subspace", "parity2", "--fragment", "E1")
    assert code == 0
    assert json.loads(out)["qd"] is False


def test_check_with_custom_subspace_file(tmp_path, capsys):
    # Parity partition rebuilt from spanning vectors should reproduce the
    # preset verdict on the shipped branching state.
    spec_payload = {
        "system_label": "S",
        "environments": {"E1": ["E1_1", "E1_2"], "E2": ["E2_1", "E2_2"]},
        "basis_vectors": {
            "E1": [
                [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]],
                [[[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]],
            ],
            "E2": [
                [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]],
                [[[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]],
            ],
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_payload))
    code, out, _ = run_cli(
        capsys, "check", "--state", str(REPO_ROOT / "states" / "sqd_initial.json"),
        "--subspace", str(spec_path), "--fragment", "E1")
    assert code == 0
    assert json.loads(out)["sqd"] is True


@pytest.mark.parametrize("fragment, same_as", [
    ("E2,E1", None), ("E1,E1", "E1"), (" E2 , E1 , E2 ", "E1,E2")])
def test_check_fragment_is_read_in_spec_order_once_per_environment(capsys, fragment, same_as):
    # As in a witness report: the listed environments in spec order, each once.
    state = str(REPO_ROOT / "states" / "sqd_initial.json")
    outputs = [run_cli(capsys, "check", "--state", state,
                       *(["--fragment", f] if f else [])) for f in (fragment, same_as)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_check_rejects_invalid_state(tmp_path, capsys):
    bad = {
        "layout": [["S", 2]],
        "matrix": [[[0.9, 0.0], [0.4, 0.0]], [[0.1, 0.0], [0.1, 0.0]]],
    }
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "check", "--state", str(path))
    assert code == 3
    assert "Hermitian" in err


def test_check_of_a_subnormalized_state_is_an_invariant_violation(tmp_path, capsys):
    rho = load_state(REPO_ROOT / "states" / "sqd_initial.json")
    path = tmp_path / "half.json"
    save_state(DensityOperator(rho.layout, 0.5 * rho.matrix), path)
    code, out, err = run_cli(capsys, "check", "--state", str(path))
    assert code == 3
    assert out == ""
    assert "structure checks need a normalized state" in err


def test_check_of_an_accepted_anti_hermitian_part_gets_a_verdict(tmp_path, capsys):
    # I/32 + 4.5e-11 X, with X antisymmetric and coupling S = 0 to S = 1 on
    # each of the eight states of E2-E4: the input deviation is 9e-11, within
    # TOL.hermiticity, and a partial trace that summed it would gather 7.2e-10.
    # The state keeps its Hermitian part where it enters, so every reduction
    # is exactly Hermitian.
    m = np.eye(32, dtype=complex) / 32
    for r in range(8):
        m[r, 16 + r], m[16 + r, r] = m[r, 16 + r] + 4.5e-11, m[16 + r, r] - 4.5e-11
    assert np.abs(m - m.conj().T).max() == 9e-11
    path = write_config(tmp_path, "skew.json", {
        "layout": [["S", 2], ["E1", 2], ["E2", 2], ["E3", 2], ["E4", 2]],
        "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]})
    code, out, err = run_cli(capsys, "check", "--state", path, "--subspace", "computational",
                             "--fragment", "E1")
    assert (code, err) == (0, "")
    assert json.loads(out)["fragment"] == ["E1"]
    state = load_state(path).matrix
    assert np.array_equal(state, state.conj().T)


def test_check_of_an_accepted_eigenvalue_dip_gets_a_verdict(tmp_path, capsys):
    # A diagonal state whose eight entries with S = 0, E1 = 0 are -0.9e-10,
    # within TOL.psd_min_eig, the other 24 equal: tracing out E2-E4 sums the
    # dip eightfold, to -7.2e-10 in the reduced state.  The conditional
    # blocks are checked at the scale of the state the reduction came from,
    # and the verdict is that of the state with its dip clipped.
    def document(dip):
        diagonal = np.full(32, (1 + 8 * dip) / 24)
        diagonal[:8] = -dip
        return {"layout": [["S", 2], ["E1", 2], ["E2", 2], ["E3", 2], ["E4", 2]],
                "matrix": [[[z.real, z.imag] for z in row] for row in np.diag(diagonal).tolist()]}

    verdicts = []
    for dip in (0.9e-10, 0.0):
        path = write_config(tmp_path, "dip.json", document(dip))
        code, out, err = run_cli(capsys, "check", "--state", path, "--subspace",
                                 "computational", "--fragment", "E1")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["fragment"] == ["E1"]
        verdicts.append([report[key] for key in ("qd", "sqd", "bipartite_sbs", "isbs")])
    assert verdicts[0] == verdicts[1]


def _identity_pairs(d, first=(1, 0)):
    """[re, im] rows of the d x d identity, with ``first`` as its (0, 0) entry."""
    rows = [[[1.0 * (i == j), 0] for j in range(d)] for i in range(d)]
    rows[0][0] = list(first)
    return rows


def _kets_with(first):
    """``_E1_KETS`` with ``first`` as the first entry of its first ket."""
    kets = json.loads(json.dumps(_E1_KETS))
    kets[0][0][0] = list(first)
    return kets


@pytest.mark.parametrize("command, document, field", [
    pytest.param("check", {"layout": [["S", 2]], "matrix": _identity_pairs(2, (True, 0))},
                 "field 'matrix'", id="state-matrix-bool"),
    pytest.param("check", {"layout": [["S", 2]], "matrix": _identity_pairs(2, ("1", 0))},
                 "field 'matrix'", id="state-matrix-string"),
    pytest.param("check", {"layout": [["S", 2]], "matrix": [[[1, 0, 0], [0, 0]]] * 2},
                 "field 'matrix'", id="state-matrix-triple"),
    pytest.param("witness", {"fragment": ["E1"],
                             "unitary": _identity_pairs(32, (1, False))},
                 "field 'unitary'", id="unitary-bool"),
    pytest.param("witness", {"fragment": ["E1"], "unitary": _identity_pairs(32, (10 ** 400, 0))},
                 "field 'unitary'", id="unitary-huge-int"),
    pytest.param("witness", {"fragment": ["E1"], "replacement": {
        "layout": [["E2_1", 2], ["E2_2", 2]], "matrix": _identity_pairs(4, (True, 0))}},
                 "field 'matrix'", id="replacement-matrix-bool"),
    pytest.param("witness", {"fragment": ["E1"], "subspace": {
        **_E1_SPEC, "system_basis": _identity_pairs(2, (True, 0))}},
                 "field 'subspace.system_basis'", id="system-basis-bool"),
    pytest.param("witness", {"fragment": ["E1"], "subspace": {
        **_E1_SPEC, "basis_vectors": {"E1": _kets_with((True, 0))}}},
                 "field 'subspace.basis_vectors.E1'", id="basis-vectors-bool"),
    pytest.param("witness", {"fragment": ["E1"], "subspace": {
        **_E1_SPEC, "basis_vectors": {"E1": _kets_with((1, "0"))}}},
                 "field 'subspace.basis_vectors.E1'", id="basis-vectors-string"),
])
def test_matrix_entries_take_json_numbers_only(tmp_path, capsys, command, document, field):
    # Every matrix field is parsed by one rule: [re, im] pairs of JSON numbers.
    # A bool is not read as 1, nor a string as a number.
    path = write_config(tmp_path, "doc.json", document)
    flag = "--state" if command == "check" else "--config"
    code, out, err = run_cli(capsys, command, flag, path)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize("basis_vectors", [
    pytest.param({}, id="no-environment"),
    pytest.param({"E1": []}, id="empty-index-list"),
])
def test_basis_vectors_without_an_index_exit_as_config_errors(tmp_path, capsys,
                                                              basis_vectors):
    # Without a system_basis the first environment's list, one entry per
    # index, sets the system dimension: a missing or empty one is a config
    # error naming the field, not a traceback or a numpy message.
    path = write_config(tmp_path, "w.json", {"fragment": ["E1"], "subspace": {
        "environments": {"E1": ["E1_1", "E1_2"]}, "basis_vectors": basis_vectors}})
    code, out, err = run_cli(capsys, "witness", "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith("config error: field 'subspace.basis_vectors'")


def _unreadable(tmp_path, kind):
    """A path that is missing, a directory, not UTF-8, not JSON, or JSON nested
    deeper than the parser recurses."""
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b'{"fragment": ["E1\xff"]}')
    elif kind == "not-json":
        path.write_text('{"fragment": ["E1"],}')
    elif kind == "too-deep":
        path.write_text("[" * 10_000 + "]" * 10_000)
    return str(path)


_GHZ5 = str(REPO_ROOT / "states" / "ghz5.json")


@pytest.mark.parametrize("argv, kind", [
    pytest.param(["check", "--state", "{}"], "missing", id="state-missing"),
    pytest.param(["check", "--state", "{}"], "directory", id="state-directory"),
    pytest.param(["check", "--state", "{}"], "non-utf8", id="state-non-utf8"),
    pytest.param(["check", "--state", "{}"], "not-json", id="state-not-json"),
    pytest.param(["check", "--state", _GHZ5, "--subspace", "{}"], "directory",
                 id="subspace-directory"),
    pytest.param(["witness", "--config", "{}"], "directory", id="config-directory"),
    pytest.param(["witness", "--config", "{}"], "non-utf8", id="config-non-utf8"),
    pytest.param(["sweep", "--config", "{}"], "non-utf8", id="sweep-non-utf8"),
    pytest.param(["witness", "--config", "{}"], "not-json", id="config-not-json"),
    pytest.param(["witness", "--config", "{}"], "too-deep", id="config-too-deep"),
])
def test_unreadable_documents_exit_as_config_errors(tmp_path, capsys, argv, kind):
    # Every document the CLI reads goes through one reader: a file it cannot
    # open, decode or parse is a config error naming the path.
    path = _unreadable(tmp_path, kind)
    code, out, err = run_cli(capsys, *(path if a == "{}" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and path in err


def _state_mutations():
    """Named edits that put a state document out of its declared shape."""
    def edit_layout(index, value):
        def edit(doc):
            doc["layout"][0][index] = value
        return edit
    return {
        "unknown-key": (lambda doc: doc.update(note="x"), "field 'note': unknown key"),
        "float-dimension": (edit_layout(1, 2.0), "field 'layout'"),
        "fractional-dimension": (edit_layout(1, 2.5), "field 'layout'"),
        "bool-dimension": (edit_layout(1, True), "field 'layout'"),
        "integer-label": (edit_layout(0, 5), "field 'layout'"),
        "missing-row": (lambda doc: doc["matrix"].pop(), "field 'matrix'"),
    }


@pytest.mark.parametrize("target", ["check", "replacement"])
@pytest.mark.parametrize("mutation", sorted(_state_mutations()))
def test_state_documents_are_strict(tmp_path, capsys, target, mutation):
    # A state file and a witness `replacement` are parsed by one rule: a
    # document not of a state's shape exits 2 naming the field.
    edit, field = _state_mutations()[mutation]
    if target == "check":
        doc = json.loads(Path(_GHZ5).read_text())
        edit(doc)
        argv = ["check", "--state", write_config(tmp_path, "state.json", doc),
                "--subspace", "computational"]
    else:
        doc = _replacement([["E2_1", 2], ["E2_2", 2]])
        edit(doc)
        argv = ["witness", "--config", write_config(
            tmp_path, "w.json", {"fragment": ["E1"], "replacement": doc})]
        field = f"field 'replacement': {field}"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert field in err


# ---------------------------------------------------------------------------
# Non-finite input
# ---------------------------------------------------------------------------

_NAN = float("nan")
_RANK1 = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def _spec(basis=np.eye(2), projectors=_RANK1):
    return ObjectiveSubspaceSpec("S", basis, {"E1": ("E1",)}, {"E1": projectors})


def _state_file(tmp_path, entry):
    """A two-qubit state file whose last diagonal entry is ``entry``."""
    matrix = [[[0.5 * (i == j < 2), 0.0] for j in range(4)] for i in range(4)]
    matrix[3][3][0] = entry
    return write_config(tmp_path, "state.json",
                        {"layout": [["S", 2], ["E1", 2]], "matrix": matrix})


# Each check compares as ``not value <= bound``, which NaN fails.  The
# projector checks after Hermiticity see no NaN: an overflow there gives inf.
_NON_FINITE = {
    "pure_state": lambda tmp: PureState(qubits("S"), [_NAN, 1.0]),
    "density_operator_nan": lambda tmp: DensityOperator(qubits("S"), [[_NAN, 0], [0, 1]]),
    "density_operator_inf": lambda tmp: DensityOperator(qubits("S"),
                                                        [[0.5, np.inf], [np.inf, 0.5]]),
    "eigvals_hermitian": lambda tmp: eigvals_hermitian(np.array([[_NAN, 0], [0, 1]])),
    "spec_basis": lambda tmp: _spec(basis=[[1, 0], [0, _NAN]]),
    "spec_hermiticity": lambda tmp: _spec(projectors=(np.diag([1.0, _NAN]), _RANK1[1])),
    # Rejected before B^dag B or the Hermiticity check would form inf - inf.
    "spec_basis_inf": lambda tmp: _spec(basis=[[1, 0], [0, np.inf]]),
    "spec_hermiticity_inf": lambda tmp: _spec(projectors=(np.diag([1.0, np.inf]), _RANK1[1])),
    "apply_gate": lambda tmp: apply_gate(maximally_mixed(qubits("S")),
                                         np.diag([_NAN, 1.0]), ["S"]),
    "apply_gate_inf": lambda tmp: apply_gate(maximally_mixed(qubits("S")),
                                             np.diag([np.inf, 1.0]), ["S"]),
    "replacement": lambda tmp: ProtocolConfig(fragment=("E1",), replacement=DensityOperator(
        qubits("E2_1", "E2_2"), np.diag([_NAN, 1.0, 0.0, 0.0]))),
    "cli_check_state": lambda tmp: ["check", "--state", _state_file(tmp, _NAN)],
    # An entry json reads as inf (1e400 or Infinity) is rejected before the
    # Hermiticity check would form inf - inf.
    "cli_check_state_inf": lambda tmp: ["check", "--state", _state_file(tmp, np.inf)],
    "cli_witness_replacement": lambda tmp: ["witness", "--config", write_config(
        tmp, "w.json", {"fragment": ["E1"], "replacement": _replacement(
            [["E2_1", 2], ["E2_2", 2]], _NAN)})],
    # A spanning vector of 1e400 is rejected before it is multiplied out.
    "cli_witness_subspace_inf": lambda tmp: ["witness", "--config", write_config(
        tmp, "w.json", {"fragment": ["E1"], "subspace": {
            "environments": {"E1": ["E1_1", "E1_2"]},
            "basis_vectors": {"E1": [_E1_KETS[0], [[[0, 0], [1e400, 0], [0, 0], [0, 0]]]]}}})],
}
# The CLI maps a violation to exit 3, and one inside a config field to exit 2.
_CLI_EXIT = {"cli_witness_subspace_inf": (2, "config error")}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_entries_are_rejected(case, tmp_path, capsys):
    if case.startswith("cli_"):
        code, _, err = run_cli(capsys, *_NON_FINITE[case](tmp_path))
        assert (code, err.split(":")[0]) == _CLI_EXIT.get(case, (3, "invariant violation"))
        assert "non-finite" in err
        return
    with pytest.raises(InvariantViolation):
        _NON_FINITE[case](tmp_path)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_table(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-envs", "1", "--c", "1000",
                           "--p-cnot", "0.5")
    assert code == 0
    assert "27000" in out
    assert "5000" in out
    assert "yes" in out


def test_cost_crossover_with_fidelity(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-envs", "1", "--c", "1000",
                           "--p-cnot", "0.5", "--f-cnot", "0.79",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert 0.41 <= payload["crossover_p"] <= 0.43


def test_cost_large_fragment_break_even(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-envs", "8", "--c", "100",
                           "--p-cnot", "0.34", "--format", "json")
    assert code == 0
    assert json.loads(out)["witness_wins"] is True


def test_cost_overflow_is_an_invariant_violation(capsys):
    # (1 / 0.5)^1200 witness runs overflow a float: exit 3 naming the inputs.
    code, out, err = run_cli(capsys, "cost", "--m-envs", "600", "--c", "1",
                             "--p-cnot", "0.5")
    assert code == 3
    assert out == ""
    assert "m_envs = 600" in err and "p_cnot = 0.5" in err


def test_cost_unprintable_tomography_count_is_an_invariant_violation(capsys):
    # 3^10001 tomography runs have more digits than Python prints by default:
    # exit 3 naming the inputs, not a ValueError traceback.
    code, out, err = run_cli(capsys, "cost", "--m-envs", "5000", "--c", "1",
                             "--p-cnot", "1")
    assert code == 3
    assert out == ""
    assert "m_envs = 5000" in err and "c = 1" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--m-envs", "1", "--c", "0", "--p-cnot", "0.5"], "c must be at least 1",
                 id="c-zero"),
    pytest.param(["--m-envs", "1", "--c", "10", "--p-cnot", "0.5", "--f-cnot", "0"],
                 "f_cnot 0.0 outside (0, 1]", id="f-cnot-zero"),
])
def test_cost_out_of_range_arguments_are_invariant_violations(capsys, argv, message):
    code, out, err = run_cli(capsys, "cost", *argv)
    assert code == 3
    assert out == ""
    assert message in err


# ---------------------------------------------------------------------------
# Import footprint
# ---------------------------------------------------------------------------

_SCIPY_PROBE = """
import json, sys
import qdarwin.cli
out = sys.argv[1]
codes = [qdarwin.cli.main(argv + ["--out", out]) for argv in (
    ["witness", "--config", "configs/witness_sqd_e1.json"],
    ["sweep", "--config", "configs/sweep_isbs_exact.json"],
    ["check", "--state", "states/ghz5.json", "--subspace", "computational"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_cli_runs_never_import_scipy(tmp_path):
    # The package needs numpy only: importing the CLI, a witness run, a sweep
    # and a structure check (whose discord refinement is the in-repo simplex)
    # load no scipy module in a fresh interpreter.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out")],
                          cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], []]


_MEMO_PROBE = """
import json
import qdarwin.cli
from qdarwin.protocol import _EXPERIMENTS
print(json.dumps({name: len(e.spec._embedded) for name, e in _EXPERIMENTS.items()}))
"""


def test_importing_the_cli_embeds_no_projector(tmp_path):
    # The objectivity operation's projectors and masks are built at the
    # first projection, not when the package loads: a fresh interpreter
    # that imports the CLI leaves every preset's memo empty.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _MEMO_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"SQD": 0, "ISBS": 0}


# ---------------------------------------------------------------------------
# State file round trips
# ---------------------------------------------------------------------------

def test_state_file_round_trip(tmp_path):
    rho = prepare_initial_sqd(NoiseConfig(p=0.3))
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert back.layout.subsystems == rho.layout.subsystems
    assert np.array_equal(back.matrix, rho.matrix)


def test_state_dict_round_trip():
    rho = prepare_initial_isbs(NoiseConfig(p=0.1))
    assert np.array_equal(state_from_dict(state_to_dict(rho)).matrix, rho.matrix)


def test_shipped_states_match_generators():
    shipped = load_state(REPO_ROOT / "states" / "sqd_initial.json")
    assert np.max(np.abs(
        shipped.matrix - prepare_initial_sqd(NoiseConfig()).matrix)) < 1e-15
    shipped_ghz = load_state(REPO_ROOT / "states" / "ghz5.json")
    assert np.max(np.abs(
        shipped_ghz.matrix - prepare_initial_isbs(NoiseConfig()).matrix)) < 1e-15
    shipped_mm = load_state(REPO_ROOT / "states" / "maximally_mixed_sqd.json")
    assert np.max(np.abs(
        shipped_mm.matrix - maximally_mixed(sqd_layout()).matrix)) < 1e-15


# ---------------------------------------------------------------------------
# Benchmark entry points
# ---------------------------------------------------------------------------

def test_benchmark_entry_points(tmp_path):
    # The benchmark's set-up probe and workload generators use the package
    # this way; a change at the document boundary must fail here first.
    from qdarwin.channels import NoiseConfig
    from qdarwin.protocol import prepare_initial_isbs, prepare_initial_sqd
    from qdarwin.serialize import config_from_dict, load_state, save_state, sweep_from_dict
    from qdarwin.tolerances import TOL

    for path in sorted((REPO_ROOT / "configs").glob("*.json")):
        parse = sweep_from_dict if path.name.startswith("sweep") else config_from_dict
        parse(json.loads(path.read_text()))
    assert all(float(getattr(TOL, key)) > 0
               for key in ("witness_bound_slack", "info_condition", "discord_ftol"))
    for prepare in (prepare_initial_sqd, prepare_initial_isbs):
        rho = prepare(NoiseConfig(p=0.2, mode="depolarize_local", f=0.8), "noisy_prep")
        save_state(rho, tmp_path / "state.json")
        assert np.array_equal(load_state(tmp_path / "state.json").matrix, rho.matrix)


def _qdarwin_names(path):
    """The ``qdarwin`` names a file imports, as dotted module paths, and the
    attributes it reads off the modules it binds, read with ``ast``."""
    modules, names = {}, set()
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qdarwin":
                    names.add(alias.name)  # binds its first part, or the module as asname
                    modules[alias.asname or "qdarwin"] = alias.name if alias.asname else "qdarwin"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdarwin":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def _resolves(dotted):
    """Whether ``dotted`` names a module of the package or an attribute of one."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        try:
            for attr in parts[k:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def test_benchmark_imports_resolve():
    # The benchmark's scripts, read without running them: every qdarwin
    # name they import and every attribute they read off an imported module
    # must exist, so a change that removes one fails here first.
    from qdarwin.tolerances import Tolerances

    names = set().union(*(_qdarwin_names(REPO_ROOT / "bench" / f)
                          for f in ("workloads.py", "setup_probe.py", "run.py")))
    assert {"qdarwin.protocol.prepare_initial_isbs", "qdarwin.protocol.prepare_initial_sqd",
            "qdarwin.serialize.save_state", "qdarwin.channels.NoiseConfig", "qdarwin.cli",
            "qdarwin.serialize.config_from_dict", "qdarwin.serialize.sweep_from_dict",
            "qdarwin.serialize.load_state", "qdarwin.tolerances.TOL",
            "qdarwin.cli.main"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []
    oracle = ast.parse((REPO_ROOT / "bench" / "oracle.py").read_text())
    tol_fields, = [ast.literal_eval(node.value) for node in oracle.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TOL_FIELDS"]]
    assert tol_fields and set(tol_fields) <= {f.name for f in dataclasses.fields(Tolerances)}
