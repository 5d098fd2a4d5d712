import json
from pathlib import Path

import pytest

import oracle
import workloads
from qdarwin.tolerances import TOL as PROGRAM_TOL

ROOT = Path(__file__).resolve().parents[2]
TOL = oracle.tolerances(PROGRAM_TOL)


def run_cli(tmp_path: Path, argv: list[str]) -> bytes:
    from qdarwin import cli

    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def sqd_sweep(tmp_path_factory):
    path = ROOT / "configs" / "sweep_sqd_exact.json"
    data = run_cli(tmp_path_factory.mktemp("sweep"), ["sweep", "--config", str(path)])
    return data, workloads._sweep_expect(json.loads(path.read_text()))


def test_sweep_output_passes(sqd_sweep):
    data, expect = sqd_sweep
    assert oracle.check("sweep_csv", expect, data, None, TOL) == []
    assert oracle.check("sweep_csv", expect, data, data, TOL) == []


def test_rejects_witness_above_measure(sqd_sweep):
    data, expect = sqd_sweep
    lines = data.decode().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("0.4,E1,"))
    cells = lines[k].split(",")
    cells[3] = repr(float(cells[2]) + 1e-6)  # witness_max_subset just above measure
    lines[k] = ",".join(cells)
    tampered = ("\n".join(lines) + "\n").encode()
    problems = oracle.check("sweep_csv", expect, tampered, None, TOL)
    assert any("exceeds measure" in p for p in problems)


def test_rejects_broken_closed_form_law(sqd_sweep):
    data, expect = sqd_sweep
    tampered = data.replace(b"\n0.2,E1,0.1,", b"\n0.2,E1,0.11,")
    problems = oracle.check("sweep_csv", expect, tampered, None, TOL)
    assert any("!= 0.0 + 0.5 p" in p for p in problems)


def test_rejects_non_reproducible_bytes(sqd_sweep):
    data, expect = sqd_sweep
    changed = data.replace(b"0.05,", b"0.050,", 1)
    problems = oracle.check("sweep_csv", expect, changed, data, TOL)
    assert problems == ["output bytes differ from an earlier run of the same operation"]


def test_rejects_wrong_verdict(tmp_path):
    key = ("sqd_initial", "parity2", "E1")
    fragment, verdict, discord = workloads.SHIPPED_CHECKS[key]
    expect = {"fragment": fragment, "verdict": verdict, "discord": discord}
    data = run_cli(tmp_path, ["check", "--state", str(ROOT / "states" / "sqd_initial.json"),
                              "--fragment", "E1"])
    assert oracle.check("check", expect, data, None, TOL) == []
    payload = json.loads(data)
    payload["isbs"] = True  # isbs claimed without the pure product structure
    problems = oracle.check("check", expect, json.dumps(payload).encode(), None, TOL)
    assert any(p.startswith("verdict") for p in problems)
    payload = json.loads(data)
    payload["sqd"], payload["qd"] = True, False
    problems = oracle.check("check", {"fragment": fragment}, json.dumps(payload).encode(),
                            None, TOL)
    assert "sqd holds without qd" in problems


def test_rejects_monte_carlo_estimate_far_from_exact(tmp_path):
    config = {"framework": "SQD", "fragment": ["E1"], "shots": 2000, "seed": 5,
              "noise": {"p": 0.4, "mode": "mix_global"}}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(config))
    data = run_cli(tmp_path, ["witness", "--config", str(path)])
    report = json.loads(data)
    good = {"shots": 2000, "w_exact": 0.2}
    assert oracle.check("witness_mc", good, data, None, TOL) == []
    far = {"shots": 2000, "w_exact": 0.2 + 6 * report["stderr_max_subset"]}
    assert any("stderr" in p for p in oracle.check("witness_mc", far, data, None, TOL))
    short = {"shots": 3000, "w_exact": 0.2}
    assert any("successful_runs" in p
               for p in oracle.check("witness_mc", short, data, None, TOL))


def test_rejects_unparseable_output(sqd_sweep):
    _, expect = sqd_sweep
    problems = oracle.check("sweep_json", expect, b"not json", None, TOL)
    assert problems and problems[0].startswith("unparseable output")
