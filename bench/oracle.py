"""Correctness oracle for the output of one benchmark operation.

Every check returns a list of problems; an empty list means the output is
accepted.  Outputs are checked against invariants of the paper's protocol
and, for the shipped state files, against the verdicts of the seed commit.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

TOL_FIELDS = ("witness_bound_slack", "info_condition", "discord_ftol")
LAW_TOL = 1e-9     # closed-form SQD mix_global measure
PROB_TOL = 1e-9    # probabilities in [0, 1] and branch sums
MC_SIGMAS = 5.0    # |W_mc - W_exact| <= 5 stderr

SWEEP_COLUMNS = ("p", "fragment", "measure", "witness_max_subset",
                 "witness_single_min", "witness_single_max",
                 "stderr_max_subset", "successful_runs")


def tolerances(tol: Any) -> dict[str, float]:
    """The oracle's tolerances, read from the program's ``TOL``."""
    return {key: float(getattr(tol, key)) for key in TOL_FIELDS}


def check(kind: str, expect: dict, data: bytes, reference: bytes | None,
          tol: dict[str, float]) -> list[str]:
    """Problems with ``data``; ``reference`` is an earlier output of the same argv."""
    if reference is not None and data != reference:
        return ["output bytes differ from an earlier run of the same operation"]
    try:
        text = data.decode("utf-8")
        return CHECKS[kind](expect, text, tol)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]


def _in_unit(value: float) -> bool:
    return -PROB_TOL <= value <= 1.0 + PROB_TOL


def check_sweep_csv(expect: dict, text: str, tol: dict[str, float]) -> list[str]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    if tuple(reader.fieldnames or ()) != SWEEP_COLUMNS:
        return [f"sweep header {reader.fieldnames} != {list(SWEEP_COLUMNS)}"]
    problems = []
    points = [(p, "+".join(frag)) for frag in expect["fragments"] for p in expect["p_values"]]
    if [(float(r["p"]), r["fragment"]) for r in rows] != points:
        return [f"sweep rows do not match the {len(points)} configured points"]
    for r in rows:
        p, frag = float(r["p"]), r["fragment"]
        measure, witness = float(r["measure"]), float(r["witness_max_subset"])
        lo, hi = float(r["witness_single_min"]), float(r["witness_single_max"])
        where = f"p={p} fragment={frag}"
        if not (_in_unit(witness) and _in_unit(lo) and _in_unit(hi) and lo <= hi):
            problems.append(f"{where}: witness values outside [0, 1]")
        if measure < 0.0:
            problems.append(f"{where}: negative measure {measure}")
        if witness > measure + tol["witness_bound_slack"]:
            problems.append(f"{where}: witness {witness} exceeds measure {measure}")
        if r["stderr_max_subset"] != "" or int(r["successful_runs"]) != 0:
            problems.append(f"{where}: exact mode reports Monte Carlo fields")
        law = expect.get("law")
        if law and frag in law:
            a, b = law[frag]
            if abs(measure - (a + b * p)) > LAW_TOL:
                problems.append(f"{where}: measure {measure} != {a} + {b} p")
    return problems


def _report_problems(report: dict, where: str) -> list[str]:
    problems = []
    p_id, p_g = report["p_identity"], report["p_gamma"]
    if not all(_in_unit(x) for x in p_id + p_g):
        problems.append(f"{where}: probability outside [0, 1]")
    if sum(p_id) > 1.0 + PROB_TOL or sum(p_g) > 1.0 + PROB_TOL:
        problems.append(f"{where}: branch probabilities sum above 1")
    if not _in_unit(report["witness_max_subset"]) or report["measure"] < 0.0:
        problems.append(f"{where}: witness or measure out of range")
    return problems


def check_sweep_json(expect: dict, text: str, tol: dict[str, float]) -> list[str]:
    reports = json.loads(text)
    points = [tuple(frag) for frag in expect["fragments"] for _ in expect["p_values"]]
    if [tuple(r["fragment"]) for r in reports] != points:
        return [f"sweep reports do not match the {len(points)} configured points"]
    problems = []
    for k, report in enumerate(reports):
        where = f"point {k}"
        if report["mode"] != "exact":
            problems.append(f"{where}: mode {report['mode']!r}, expected exact")
        problems += _report_problems(report, where)
    return problems


def check_witness_mc(expect: dict, text: str, tol: dict[str, float]) -> list[str]:
    report = json.loads(text)
    problems = _report_problems(report, "report")
    if report["mode"] != "monte_carlo":
        problems.append(f"mode {report['mode']!r}, expected monte_carlo")
    if report["successful_runs"] != expect["shots"] or report["shots"] != expect["shots"]:
        problems.append(f"successful_runs {report['successful_runs']} != shots {expect['shots']}")
    stderr = report["stderr_max_subset"]
    if stderr is None or not stderr > 0.0:
        problems.append(f"bootstrap stderr {stderr!r} is not positive")
    elif abs(report["witness_max_subset"] - expect["w_exact"]) > MC_SIGMAS * stderr:
        problems.append(
            f"W_mc {report['witness_max_subset']} is more than {MC_SIGMAS} stderr "
            f"({stderr}) from W_exact {expect['w_exact']}")
    return problems


def check_structure(expect: dict, text: str, tol: dict[str, float]) -> list[str]:
    payload = json.loads(text)
    problems = []
    verdict = {key: payload[key] for key in ("qd", "sqd", "bipartite_sbs", "isbs")}
    discord = payload["details"]["discord"]
    if payload["fragment"] != expect["fragment"]:
        problems.append(f"fragment {payload['fragment']} != {expect['fragment']}")
    if "verdict" in expect:
        if verdict != expect["verdict"]:
            problems.append(f"verdict {verdict} != {expect['verdict']}")
        if abs(discord - expect["discord"]) > tol["discord_ftol"]:
            problems.append(f"discord {discord} != {expect['discord']}")
    if verdict["isbs"] and not verdict["bipartite_sbs"]:
        problems.append("isbs holds without bipartite_sbs")
    if verdict["sqd"] and not verdict["qd"]:
        problems.append("sqd holds without qd")
    mutual = payload["details"]["mutual_information"]
    if not 0.0 <= discord <= mutual + tol["info_condition"]:
        problems.append(f"discord {discord} outside [0, I(S:F) = {mutual}]")
    return problems


CHECKS = {
    "sweep_csv": check_sweep_csv,
    "sweep_json": check_sweep_json,
    "witness_mc": check_witness_mc,
    "check": check_structure,
}
