"""Workload inputs and operations, generated from the workload seed.

Each workload is a fixed cycle of CLI operations.  The seed chooses the p
grids, the Monte Carlo seeds and the generated states; the program receives
only the files written here (and the shipped configs and states).  Ranges
are narrow enough that the work per cycle hardly depends on the seed, and
every operation passes the oracle at the seed commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Operation:
    name: str
    argv: list[str]   # CLI arguments without --out
    kind: str         # oracle check, see oracle.CHECKS
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Operation]
    inputs: list[str]  # "kind:path" items parsed by the set-up probe
    # Cycles every timed phase runs at least.  The tail percentile is chosen
    # from this guaranteed sample count, so it is the same in every run.
    min_cycles: int


RunCli = Callable[[list[str]], bytes]


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2))
    return path


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _sweep_expect(spec: dict) -> dict:
    expect = {
        "p_values": [float(p) for p in spec["p_values"]],
        "fragments": [list(fragment) for fragment in spec["fragments"]],
    }
    if (spec.get("framework", "SQD"), spec.get("noise_mode", "mix_global"),
            spec.get("cnot_model", "ideal")) == ("SQD", "mix_global", "ideal"):
        # Closed form: measure = p/2 on E1 and 1 - p/4 on E1+E2.
        expect["law"] = {"E1": (0.0, 0.5), "E1+E2": (1.0, -0.25)}
    return expect


def exact_sweep(rng: random.Random, root: Path, workdir: Path, run_cli: RunCli) -> Workload:
    # The shipped sweeps use the ideal CNOT model and are checked against
    # witness <= measure; the generated noisy_prep_parity one is not.
    ops, inputs = [], []
    for stem in ("sweep_sqd_exact", "sweep_isbs_exact"):
        path = root / "configs" / f"{stem}.json"
        spec = json.loads(path.read_text())
        ops.append(Operation(stem, ["sweep", "--config", str(path)], "sweep_csv",
                             _sweep_expect(spec)))
        inputs.append(f"sweep:{path}")
    # SQD only: the ISBS path ignores cnot_model at the seed commit.
    spec = {
        "framework": "SQD",
        "noise_mode": "depolarize_local",
        "cnot_model": "noisy_prep_parity",
        "p_values": sorted(_uniform(rng, 0.02, 0.98) for _ in range(11)),
        "fragments": [["E1"], ["E1", "E2"]],
        "f": _uniform(rng, 0.7, 0.99),
        "p_cnot": _uniform(rng, 0.5, 1.0),
        "shots": 0,
        "seed": rng.randrange(1, 2**31),
    }
    path = _write(workdir / "sweep_generated.json", spec)
    ops.append(Operation("sweep_generated",
                         ["sweep", "--config", str(path), "--format", "json"],
                         "sweep_json", _sweep_expect(spec)))
    inputs.append(f"sweep:{path}")
    return Workload(ops, inputs, min_cycles=34)  # 102 samples: p90


def mc_witness(rng: random.Random, root: Path, workdir: Path, run_cli: RunCli) -> Workload:
    shipped = json.loads((root / "configs" / "witness_mc_noisy.json").read_text())
    seed = lambda: rng.randrange(1, 2**31)  # noqa: E731
    configs = [
        ("mc_noisy_6k", {**shipped, "shots": 6000, "seed": seed()}),
        ("mc_noisy_60k", {**shipped, "shots": 60000, "seed": seed()}),
        ("mc_sqd_mix_e1", {
            "framework": "SQD", "fragment": ["E1"], "shots": 60000, "seed": seed(),
            "noise": {"p": _uniform(rng, 0.1, 0.9), "mode": "mix_global"}}),
        ("mc_isbs_mix_e1_e4", {
            "framework": "ISBS", "fragment": ["E1", "E2", "E3", "E4"], "shots": 60000,
            "seed": seed(), "noise": {"p": _uniform(rng, 0.1, 0.9), "mode": "mix_global"}}),
        # Low reuse: about 850 realizations for 6 000 shots.
        ("mc_low_reuse", {
            "framework": "SQD", "fragment": ["E1", "E2"], "shots": 6000, "seed": seed(),
            "cnot_model": "noisy_prep_parity",
            "noise": {"p": _uniform(rng, 0.18, 0.22), "mode": "depolarize_local",
                      "f": _uniform(rng, 0.72, 0.76), "p_cnot": _uniform(rng, 0.6, 0.8)}}),
    ]
    ops, inputs = [], []
    for name, config in configs:
        path = _write(workdir / f"{name}.json", config)
        exact = _write(workdir / f"{name}_exact.json", {**config, "shots": 0})
        w_exact = json.loads(run_cli(["witness", "--config", str(exact)]))["witness_max_subset"]
        ops.append(Operation(name, ["witness", "--config", str(path)], "witness_mc",
                             {"shots": config["shots"], "w_exact": w_exact}))
        inputs.append(f"witness:{path}")
    return Workload(ops, inputs, min_cycles=4)  # 20 samples: p50


def _verdict(qd: bool, sqd: bool, sbs: bool, isbs: bool) -> dict:
    return {"qd": qd, "sqd": sqd, "bipartite_sbs": sbs, "isbs": isbs}


# (state file, subspace, --fragment) -> (fragment, verdict, discord) at the seed commit.
SHIPPED_CHECKS = {
    ("sqd_initial", "parity2", None): (["E1", "E2"], _verdict(True, False, False, False), 1.0),
    ("sqd_initial", "parity2", "E1"): (["E1"], _verdict(True, True, True, False), 0.0),
    ("ghz5", "computational", None): (
        ["E1", "E2", "E3", "E4"], _verdict(True, False, False, False), 1.0),
    ("ghz5", "computational", "E1"): (["E1"], _verdict(True, True, True, True), 0.0),
    ("maximally_mixed_sqd", "parity2", None): (
        ["E1", "E2"], _verdict(False, False, False, False), 0.0),
    ("maximally_mixed_sqd", "parity2", "E1"): (
        ["E1"], _verdict(False, False, False, False), 0.0),
}


def structure_check(rng: random.Random, root: Path, workdir: Path, run_cli: RunCli) -> Workload:
    from qdarwin.channels import NoiseConfig
    from qdarwin.protocol import prepare_initial_isbs, prepare_initial_sqd
    from qdarwin.serialize import save_state

    ops, inputs = [], []
    for (stem, subspace, fragment), (frag, verdict, discord) in SHIPPED_CHECKS.items():
        path = root / "states" / f"{stem}.json"
        argv = ["check", "--state", str(path), "--subspace", subspace]
        if fragment:
            argv += ["--fragment", fragment]
        name = f"check_{stem}_{fragment or 'all'}"
        ops.append(Operation(name, argv, "check",
                             {"fragment": frag, "verdict": verdict, "discord": discord}))
        inputs.append(f"state:{path}")
    # The seeded states are checked on E1 only.  Their discord refinement
    # then costs little, so the seed hardly moves the cycle time, and the
    # eleven operations keep p50 inside the cheap E1 group and p90 inside
    # the ghz5 group, away from the boundaries between operations.
    seeded = [
        ("sqd", prepare_initial_sqd, "parity2"),
        ("sqd", prepare_initial_sqd, "parity2"),
        ("sqd", prepare_initial_sqd, "parity2"),
        ("isbs", prepare_initial_isbs, "computational"),
        ("isbs", prepare_initial_isbs, "computational"),
    ]
    for k, (label, prepare, subspace) in enumerate(seeded):
        noise = NoiseConfig(p=_uniform(rng, 0.05, 0.5),
                            mode=rng.choice(["mix_global", "depolarize_local"]),
                            f=_uniform(rng, 0.7, 1.0))
        rho = prepare(noise, rng.choice(["ideal", "noisy_prep"]))
        path = workdir / f"state_{label}_{k}.json"
        save_state(rho, path)
        ops.append(Operation(f"check_generated_{label}_{k}",
                             ["check", "--state", str(path), "--subspace", subspace,
                              "--fragment", "E1"],
                             "check", {"fragment": ["E1"]}))
        inputs.append(f"state:{path}")
    return Workload(ops, inputs, min_cycles=10)  # 110 samples: p90


GENERATORS = {
    "exact_sweep": exact_sweep,
    "mc_witness": mc_witness,
    "structure_check": structure_check,
}


def build(name: str, seed: int, root: Path, workdir: Path, run_cli: RunCli) -> Workload:
    return GENERATORS[name](random.Random(seed), root, workdir, run_cli)
