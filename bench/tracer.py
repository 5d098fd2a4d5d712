"""Span tracing around the calls into each qdarwin layer.

The tracer wraps the public functions listed in ``TARGETS`` from outside the
program: every module attribute of the ``qdarwin`` package bound to a listed
function (found by identity, so ``from .hilbert import partial_trace`` copies
are covered) is replaced by a wrapper that records one span per call.
Constructors are wrapped through the class ``__init__``.  Spans stay in
memory as ``[name, start, end, parent, op, note]`` lists and are written out
when the run ends.  A target missing at some commit is reported as absent;
its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

NAME, START, END, PARENT, OP, NOTE = range(6)


def _full_register(args: tuple, result: Any) -> bool:
    """apply_gate(rho, unitary, targets): does the gate act on every subsystem?"""
    rho, _, targets = args[:3]
    return len(list(targets)) == len(rho.layout)


def _nfev(args: tuple, result: Any) -> int:
    return int(getattr(result, "nfev", 0))


def _successful_runs(args: tuple, result: Any) -> int:
    return int(getattr(result, "successful_runs", 0))


@dataclass(frozen=True)
class Target:
    module: str        # module under the qdarwin package
    attr: str          # function name, or "Class.__init__"
    span: str          # span name = metric prefix
    note: Callable[[tuple, Any], Any] | None = None


TARGETS = (
    Target("hilbert", "DensityOperator.__init__", "hilbert.density_operator"),
    Target("hilbert", "partial_trace", "hilbert.partial_trace"),
    Target("hilbert", "embed_operator", "hilbert.embed_operator"),
    Target("hilbert", "trace_norm", "hilbert.trace_norm"),
    Target("channels", "apply_gate", "channels.apply_gate", _full_register),
    Target("channels", "point_channel", "channels.point_channel"),
    Target("channels", "noisy_cnot", "channels.noise"),
    Target("channels", "depolarize_local", "channels.noise"),
    Target("channels", "mix_with_noise", "channels.noise"),
    Target("objectivity", "ObjectiveSubspaceSpec.__init__", "objectivity.spec_build"),
    Target("objectivity", "objectivity_operation_sqd", "objectivity.gamma"),
    Target("objectivity", "objectivity_operation_isbs", "objectivity.gamma"),
    Target("objectivity", "nonobjectivity_measure", "objectivity.measure"),
    Target("info", "quantum_discord", "info.discord"),
    Target("info", "minimize", "info.discord_refine", _nfev),
    Target("info", "von_neumann_entropy", "info.entropy"),
    Target("info", "check_structure", "info.check_structure"),
    Target("protocol", "witness_exact", "protocol.witness_exact"),
    Target("protocol", "witness_monte_carlo", "protocol.witness_mc", _successful_runs),
    Target("protocol", "prepare_initial", "protocol.prepare"),
    Target("protocol", "prepare_initial_sqd", "protocol.prepare"),
    Target("protocol", "prepare_initial_isbs", "protocol.prepare"),
    Target("serialize", "config_from_dict", "serialize.parse"),
    Target("serialize", "sweep_from_dict", "serialize.parse"),
    Target("serialize", "load_state", "serialize.parse"),
    Target("serialize", "report_to_json", "serialize.emit"),
    Target("serialize", "report_to_sweep_row", "serialize.emit"),
    Target("serialize", "sweep_rows_to_csv", "serialize.emit"),
    Target("cli", "main", "cli.main"),
)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                try:
                    span[NOTE] = note(args, result)
                except Exception:  # a changed signature must not break the run
                    span[NOTE] = None
            return result

        return traced

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self, package: str = "qdarwin") -> None:
        modules = {
            name[len(package) + 1:] if name != package else "": mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for target in TARGETS:
            home = modules.get(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target.span, original, target.note)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:NOTE]) + "\n")


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans: Sequence[Sequence], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Calls, self time and the counters of every span name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    realizations = 0
    for index, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "note": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        if isinstance(span[NOTE], (int, float)):
            entry["note"] += span[NOTE]
        if (span[NAME] == "channels.apply_gate" and span[NOTE] is True
                and _has_ancestor(spans, index, "protocol.witness_mc")):
            realizations += 1
    out["protocol.mc_realizations"] = {"calls": realizations, "self_s": 0.0, "note": 0}
    return out


def layer_metrics(summary: dict[str, dict[str, float]], ops: int,
                  names: Sequence[str]) -> dict[str, float]:
    """Values of the named per-layer metrics, normalised per traced operation.

    ``<span>.calls`` and ``<span>.self_s`` come from the span of that name;
    names this module does not know are left to the caller.
    """
    def get(name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0))

    shots = get("protocol.witness_mc", "note")
    realizations = get("protocol.mc_realizations", "calls")
    special = {
        "info.discord_refine.nfev": get("info.discord_refine", "note") / ops,
        "protocol.mc_self_us_per_shot": (
            1e6 * get("protocol.witness_mc", "self_s") / shots if shots else 0.0),
        "protocol.mc_realizations": realizations / ops,
        "protocol.mc_shots_per_realization": shots / realizations if realizations else 0.0,
    }
    metrics = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif key in ("calls", "self_s"):
            metrics[name] = get(span, key) / ops
    return metrics


def table(summary: dict[str, dict[str, float]], op_time_s: float) -> list[str]:
    """Rows of layer, calls, self seconds and share of operation time."""
    layers: dict[str, list[float]] = {}
    rows = []
    for name in sorted(summary):
        if name == "protocol.mc_realizations":
            continue
        entry = summary[name]
        layer = name.split(".")[0]
        acc = layers.setdefault(layer, [0, 0.0])
        acc[0] += entry["calls"]
        acc[1] += entry["self_s"]
        rows.append((name, entry["calls"], entry["self_s"]))
    traced = sum(acc[1] for acc in layers.values())
    rows.append(("(outside spans)", 0, max(0.0, op_time_s - traced)))
    lines = [f"{'span':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
    for name, calls, self_s in rows:
        share = self_s / op_time_s if op_time_s else 0.0
        lines.append(f"{name:34s} {calls:9d} {self_s:10.4f} {share:7.1%}")
    lines.append("-- by layer --")
    for layer, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        share = self_s / op_time_s if op_time_s else 0.0
        lines.append(f"{layer:34s} {calls:9d} {self_s:10.4f} {share:7.1%}")
    return lines
