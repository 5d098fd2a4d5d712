import sys
import types

import pytest

import tracer


def span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, 0, note]


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 6.0, parent=0),
        span("c", 4.5, 5.0, parent=2),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("root", 0.0, 5.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 4.0, parent=0),   # overlaps a by one second
        span("c", 4.5, 7.0, parent=0),   # runs past the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(5.0 - 3.0 - 0.5)


def test_summary_counts_full_register_gates_under_the_sampler_only():
    spans = [
        span("protocol.witness_mc", 0.0, 10.0, note=120),
        span("channels.apply_gate", 1.0, 2.0, parent=0, note=True),
        span("channels.apply_gate", 2.0, 3.0, parent=0, note=False),
        span("protocol.prepare", 3.0, 5.0, parent=0),
        span("channels.apply_gate", 3.5, 4.0, parent=3, note=True),
        span("channels.apply_gate", 11.0, 12.0, note=True),  # outside the sampler
    ]
    names = ["protocol.mc_realizations", "protocol.mc_shots_per_realization",
             "channels.apply_gate.calls", "protocol.mc_self_us_per_shot", "setup.import_s"]
    metrics = tracer.layer_metrics(tracer.summarize(spans), 1, names)
    assert "setup.import_s" not in metrics  # left to the caller
    assert metrics["protocol.mc_realizations"] == 2
    assert metrics["protocol.mc_shots_per_realization"] == 60
    assert metrics["channels.apply_gate.calls"] == 4
    self_mc = 10.0 - 1.0 - 1.0 - 2.0
    assert metrics["protocol.mc_self_us_per_shot"] == pytest.approx(1e6 * self_mc / 120)


def test_install_wraps_every_binding_and_uninstall_restores_it():
    from qdarwin import channels, hilbert, info

    original = hilbert.partial_trace
    assert channels.partial_trace is original and info.partial_trace is original
    spans = tracer.Tracer()
    spans.install()
    try:
        assert hilbert.partial_trace is not original
        assert channels.partial_trace is hilbert.partial_trace
        assert info.partial_trace is hilbert.partial_trace
        rho = hilbert.maximally_mixed(hilbert.TensorLayout([("A", 2), ("B", 2)]))
        channels.partial_trace(rho, {"A"})
    finally:
        spans.uninstall()
    assert hilbert.partial_trace is original and channels.partial_trace is original
    assert spans.absent == []
    names = [s[tracer.NAME] for s in spans.spans]
    assert names.count("hilbert.partial_trace") == 1
    assert "hilbert.density_operator" in names  # constructors via __init__


def test_missing_targets_are_reported_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    hilbert = types.ModuleType("fakepkg.hilbert")
    hilbert.partial_trace = lambda rho, keep: rho
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.hilbert", hilbert)
    spans = tracer.Tracer()
    spans.install(package="fakepkg")
    try:
        hilbert.partial_trace(None, ())
    finally:
        spans.uninstall()
    assert "hilbert.partial_trace" not in spans.absent
    assert "cli.main" in spans.absent
    assert len(spans.absent) == len(tracer.TARGETS) - 1
    names = ["hilbert.partial_trace.calls", "info.discord.calls", "info.discord.self_s"]
    metrics = tracer.layer_metrics(tracer.summarize(spans.spans), 1, names)
    assert metrics["hilbert.partial_trace.calls"] == 1
    assert metrics["info.discord.self_s"] == 0
    assert metrics["info.discord.calls"] == 0
