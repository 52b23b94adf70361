"""Tests of the benchmark's own helpers, plus a tiny run of every workload."""

import math

import pytest

import layers
import stats
import workloads
from spans import Tracer, self_times


def test_percentile_interpolates_like_numpy():
    values = list(range(1, 11))
    assert stats.percentile(values, 0.5) == 5.5
    assert stats.percentile(values, 0.0) == 1
    assert stats.percentile(values, 1.0) == 10
    assert stats.percentile(values, 0.9) == pytest.approx(9.1)
    assert stats.median([3.0]) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_percentiles_need_ten_samples_beyond():
    assert stats.reportable(1, 0.5)
    assert stats.reportable(100, 0.9)
    assert not stats.reportable(99, 0.9)
    assert stats.reportable(1000, 0.99)
    assert not stats.reportable(999, 0.99)
    assert not stats.reportable(0, 0.5)
    assert stats.highest_reportable(5) is None
    assert stats.highest_reportable(150) == 0.9
    assert stats.highest_reportable(250) == 0.95
    assert stats.highest_reportable(1000) == 0.99


def test_open_loop_latency_runs_from_the_due_time():
    on_time = stats.Arrival(due=1.0)
    on_time.noticed, on_time.sent, on_time.done, on_time.ok = 1.0, 1.0, 1.25, True
    # due at 2.0, waited 0.5 s for a connection, answered 0.25 s after sending
    queued = stats.Arrival(due=2.0)
    queued.sent, queued.done, queued.ok = 2.5, 2.75, True
    failed = stats.Arrival(due=3.0)
    failed.noticed, failed.sent, failed.done = 3.125, 3.125, 3.5
    timing = stats.lateness([on_time, queued, failed])
    assert timing["latency"] == [0.25, 0.75]
    assert timing["queue"] == [0.0, 0.5, 0.125]
    assert timing["lag"] == [0.0, 0.125]


def test_scaling_to_the_reference_speed():
    reference = stats.PROBE_REFERENCE_S
    assert stats.scaled(1.0, [reference, reference]) == pytest.approx(1.0)
    # a machine running at half speed makes both the op and the probe twice as slow
    assert stats.scaled(2.0, [2 * reference, 2 * reference]) == pytest.approx(1.0)
    assert stats.speed_probe() > 0


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "outer")
    with tracer.op(0):  # ticks: op 0..7, outer 1..6, inner 2..3 and 4..5
        outer()
    summary = tracer.summary()
    assert summary["ops"] == {"calls": 1, "total_s": 7.0, "self_s": 2.0}
    assert summary["layers"]["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["layers"]["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_self_times_ignores_unrecorded_parents():
    names = ["op", "a", "b"]
    # (id, parent, name, start, end, op); span 9's parent 42 was never recorded
    spans = [
        (2, 1, 2, 1.0, 2.0, 0),
        (1, -1, 1, 0.0, 4.0, 0),
        (9, 42, 2, 5.0, 6.5, 0),
    ]
    out = self_times(spans, names)
    assert out["a"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert out["b"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}


def test_install_and_uninstall_restore_every_binding():
    from repro.core import sparse_coloring
    from repro.graphs import frozen

    original = frozen.freeze
    tracer = Tracer()
    tracer.prepare()
    tracer.install()
    try:
        assert frozen.freeze is not original
        assert frozen.freeze.__wrapped__ is original
        assert sparse_coloring.find_clique_of_size.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert frozen.freeze is original
    assert not hasattr(sparse_coloring.find_clique_of_size, "__wrapped__")


def _tiny(workload, **sizes):
    tiny = type(workload)()
    for name, value in sizes.items():
        setattr(tiny, name, value)
    return tiny


TINY = {
    "theorem13": dict(graphs=3, min_ops=3, traced_min_ops=3, warmup=1),
    "rounds-deep": dict(n=300, min_ops=2, traced_min_ops=2),
    "rounds-wide": dict(n=300, min_ops=2, traced_min_ops=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_in_process_workloads(name, traced, monkeypatch):
    workload = _tiny(workloads.WORKLOADS[name], **TINY[name])
    if name == "theorem13":
        monkeypatch.setattr(type(workload), "size", staticmethod(lambda index: 60 + 10 * index))
    ops, setup_times, _ = workloads.run_setup(workload, seed=3, repeats=2)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.prepare(on_result=layers.simulator_counters(tracer))
    raw = workloads.measure(workload, ops, seconds=0.0, tracer=tracer)
    assert raw["failed"] == 0, raw["failures"]
    assert raw["attempted"] >= workload.min_ops
    metrics, _extra = workloads.end_to_end(raw)
    assert all(math.isfinite(v) and v > 0 for v, _unit, _n in metrics.values())
    again = workloads.measure(workload, ops, seconds=0.0)
    assert again["fingerprint"] == raw["fingerprint"]
    if traced:
        values = layers.in_process(tracer, raw)
        assert set(values) == set(layers.catalogue())
        assert 0.0 < values["trace.attributed_frac"] <= 1.0


def test_a_wrong_output_counts_as_a_failed_op():
    workload = _tiny(workloads.WORKLOADS["rounds-deep"], n=50, min_ops=2)
    ops, _, _ = workloads.run_setup(workload, seed=1, repeats=1)
    ops[0].check = lambda result: (["forced"], "", 0)
    raw = workloads.measure(workload, ops, seconds=0.0, hard_limit=5.0)
    assert raw["failed"] == raw["attempted"] > 0


@pytest.mark.serve
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_serve_workload(traced, monkeypatch):
    import serve_load

    for name, value in dict(
        LOW_ARRIVALS=8, HIGH_ARRIVALS=12, SEQUENTIAL_ARRIVALS=8,
        STEP_ARRIVALS=8, PROBES=1, LADDER_RPS=(200.0, 400.0),
    ).items():
        monkeypatch.setattr(serve_load, name, value)
    result = serve_load.run(seed=5, seconds=0.1, traced=traced, setup_repeats=1)
    assert result["failed"] == 0, result["failures"]
    if traced:
        assert result["attempted"] == 12
        values = result["per_layer"]
        assert set(values) == set(layers.catalogue())
        assert values["serve.cache.self_s"] > 0
        assert values["serve.protocol.self_s"] > 0
    else:
        assert result["attempted"] >= 8 + 12 + 8 + 8
        assert {"setup_s", "lat_ms.p50", "vertices_per_s", "ops_per_s"} <= set(result["metrics"])
