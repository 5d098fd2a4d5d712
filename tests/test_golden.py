"""Byte-for-byte golden outputs of the CLI for fixed-seed configs.

The cases cover exact and Monte Carlo witness runs on both frameworks, every
noise mode and CNOT model, an explicit branch split, the Monte Carlo abort
message, the shipped configs in both output formats, sweeps in Monte Carlo
mode, with a custom subspace and with noisy CNOTs, sweeps at the 0/1 noise
weights, and the structure checks of the shipped states.
Any refactor of the pipeline or the sampler must keep these bytes.

Regenerate the data file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qdarwin.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_reports.json"

WITNESS_CASES = {
    "sqd_exact_mix_e1": {
        "framework": "SQD", "fragment": ["E1"], "noise": {"p": 0.4}},
    "sqd_exact_local_e1e2": {
        "framework": "SQD", "fragment": ["E1", "E2"],
        "noise": {"p": 0.3, "mode": "depolarize_local"}},
    "sqd_exact_noisy_prep": {
        "framework": "SQD", "fragment": ["E1", "E2"], "cnot_model": "noisy_prep",
        "noise": {"p": 0.25, "mode": "depolarize_local", "f": 0.8}},
    "sqd_exact_noisy_parity_mix": {
        "framework": "SQD", "fragment": ["E1", "E2"], "cnot_model": "noisy_prep_parity",
        "noise": {"p": 0.2, "f": 0.85, "p_cnot": 0.7}},
    "sqd_exact_noisy_parity_local_e2": {
        "framework": "SQD", "fragment": ["E2"], "cnot_model": "noisy_prep_parity",
        "unitary": "all_hadamards",
        "noise": {"p": 0.15, "mode": "depolarize_local", "f": 0.9}},
    "isbs_exact_mix_e1e2": {
        "framework": "ISBS", "fragment": ["E1", "E2"], "noise": {"p": 0.3}},
    "isbs_exact_local_e1e2e3": {
        "framework": "ISBS", "fragment": ["E1", "E2", "E3"],
        "noise": {"p": 0.2, "mode": "depolarize_local"}},
    "sqd_mc_shipped_noisy_prep": "configs/witness_mc_noisy.json",
    "sqd_mc_mix_e1": {
        "framework": "SQD", "fragment": ["E1"], "noise": {"p": 0.3},
        "shots": 4000, "seed": 11},
    "sqd_mc_noisy_parity_local": {
        "framework": "SQD", "fragment": ["E1", "E2"], "cnot_model": "noisy_prep_parity",
        "noise": {"p": 0.2, "mode": "depolarize_local", "f": 0.75, "p_cnot": 0.7},
        "shots": 3000, "seed": 5},
    "sqd_mc_branch_shots": {
        "framework": "SQD", "fragment": ["E1", "E2"], "noise": {"p": 0.5},
        "shots": 4000, "branch_shots": [1500, 2500], "seed": 3},
    "isbs_mc_mix_all": {
        "framework": "ISBS", "fragment": ["E1", "E2", "E3", "E4"], "noise": {"p": 0.4},
        "shots": 4000, "seed": 17},
    "isbs_mc_local_e1": {
        "framework": "ISBS", "fragment": ["E1"],
        "noise": {"p": 0.3, "mode": "depolarize_local"}, "shots": 3000, "seed": 23},
    # About 800 distinct coin realizations in the run-by-run model.
    "sqd_mc_low_reuse": {
        "framework": "SQD", "fragment": ["E1", "E2"], "cnot_model": "noisy_prep_parity",
        "noise": {"p": 0.2, "mode": "depolarize_local", "f": 0.74, "p_cnot": 0.7},
        "shots": 6000, "seed": 29},
    # Hardware success 0.45^2: most projected-branch attempts are discarded.
    "sqd_mc_noisy_prep_many_blocks": {
        "framework": "SQD", "fragment": ["E1"], "cnot_model": "noisy_prep",
        "noise": {"p": 0.25, "mode": "depolarize_local", "f": 0.8, "p_cnot": 0.45},
        "shots": 9001, "seed": 31},
    "sqd_mc_nonterminating": {
        "framework": "SQD", "fragment": ["E1", "E2"], "noise": {"p_cnot": 0.005},
        "shots": 50, "seed": 2},
}

_S = 2 ** -0.5
# E1 takes the parity spans of the preset, E2 the Bell spans
# {Phi+, Psi+} and {Phi-, Psi-}.
_BELL_PARITY_SUBSPACE = {
    "environments": {"E1": ["E1_1", "E1_2"], "E2": ["E2_1", "E2_2"]},
    "basis_vectors": {
        "E1": [[[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]],
               [[[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]]],
        "E2": [[[[_S, 0], [0, 0], [0, 0], [_S, 0]], [[0, 0], [_S, 0], [_S, 0], [0, 0]]],
               [[[_S, 0], [0, 0], [0, 0], [-_S, 0]], [[0, 0], [_S, 0], [-_S, 0], [0, 0]]]],
    },
}

SWEEP_CASES = {
    "sweep_sqd_mc_two_fragments": {
        "framework": "SQD", "noise_mode": "depolarize_local", "p_values": [0.1, 0.5, 0.9],
        "fragments": [["E1"], ["E1", "E2"]], "shots": 3000, "seed": 41},
    "sweep_sqd_exact_custom_subspace": {
        "framework": "SQD", "p_values": [0.0, 0.25, 0.5, 1.0],
        "fragments": [["E1"], ["E2"], ["E1", "E2"]], "subspace": _BELL_PARITY_SUBSPACE},
    "sweep_sqd_exact_local_noisy_parity": {
        "framework": "SQD", "noise_mode": "depolarize_local",
        "cnot_model": "noisy_prep_parity", "f": 0.85, "p_cnot": 0.8,
        "p_values": [0.0, 0.3, 0.7, 1.0], "fragments": [["E1"], ["E2"], ["E1", "E2"]]},
    # The 0/1 weights of every noise step: p = 0 keeps the state, p = 1 and
    # f = 0 replace it, f = 1 keeps the parity checks' environments.  JSON
    # output pins the signed zeros of the pmfs, which the CSV columns hide.
    "sweep_sqd_exact_noisy_parity_f1": {
        "framework": "SQD", "cnot_model": "noisy_prep_parity", "f": 1.0,
        "p_values": [0.0, 0.5, 1.0], "fragments": [["E1"], ["E1", "E2"]]},
    "sweep_sqd_exact_noisy_parity_f0": {
        "framework": "SQD", "cnot_model": "noisy_prep_parity", "f": 0.0,
        "p_values": [0.0, 0.5, 1.0], "fragments": [["E1"], ["E1", "E2"]]},
    "sweep_isbs_exact_local_edges": {
        "framework": "ISBS", "noise_mode": "depolarize_local",
        "p_values": [0.0, 0.5, 1.0], "fragments": [["E1"], ["E1", "E2", "E3", "E4"]]},
}
JSON_SWEEPS = {"sweep_sqd_exact_noisy_parity_f1", "sweep_sqd_exact_noisy_parity_f0",
               "sweep_isbs_exact_local_edges"}

CLI_CASES = {
    "sweep_sqd_exact": ["sweep", "--config", "configs/sweep_sqd_exact.json"],
    "sweep_isbs_exact": ["sweep", "--config", "configs/sweep_isbs_exact.json"],
    "sweep_isbs_exact_json": ["sweep", "--config", "configs/sweep_isbs_exact.json",
                              "--format", "json"],
    "witness_sqd_e1_csv": ["witness", "--config", "configs/witness_sqd_e1.json",
                           "--format", "csv"],
    "witness_mc_noisy_csv": ["witness", "--config", "configs/witness_mc_noisy.json",
                             "--format", "csv"],
    "check_sqd_initial": ["check", "--state", "states/sqd_initial.json",
                          "--subspace", "parity2"],
    "check_ghz5": ["check", "--state", "states/ghz5.json", "--subspace", "computational"],
    "check_maximally_mixed_sqd": ["check", "--state", "states/maximally_mixed_sqd.json",
                                  "--subspace", "parity2"],
}


def _run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI call, paths relative to the repo."""
    argv = [str(REPO_ROOT / a) if a.startswith(("configs/", "states/")) else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_case(name: str) -> dict:
    if name in CLI_CASES:
        return _run(CLI_CASES[name])
    command = "sweep" if name in SWEEP_CASES else "witness"
    config = SWEEP_CASES.get(name) or WITNESS_CASES[name]
    extra = ["--format", "json"] if name in JSON_SWEEPS else []
    if isinstance(config, str):
        return _run([command, "--config", config])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(config))
        return _run([command, "--config", str(path), *extra])


ALL_CASES = sorted([*WITNESS_CASES, *SWEEP_CASES, *CLI_CASES])


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == ALL_CASES


@pytest.mark.parametrize("name", ALL_CASES)
def test_golden_output(golden, name):
    assert _run_case(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    data = {name: _run_case(name) for name in ALL_CASES}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
