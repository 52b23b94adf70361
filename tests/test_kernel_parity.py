"""Parity suite for the fused round kernels (:mod:`repro.local.kernels`).

Three layers of pinning:

* kernel unit tests — every kernel against a naive per-slot loop;
* engine parity properties (hypothesis over generator seeds) — the fused
  batched engine, the unfused three-pass reference (``reference_exchange``),
  the flat per-node engine and the frozen seed engine must agree on
  outputs, rounds, total and per-round message counts for Cole–Vishkin,
  the greedy baseline, the color reduction and the wave 2-coloring;
* native-build gating — ``REPRO_NATIVE`` semantics, the missing-numba
  warning, and numpy-vs-numba bit parity when numba is importable.
"""

from __future__ import annotations

import importlib.util
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.distributed.cole_vishkin import (
    BatchColeVishkinForestColoring,
    ColeVishkinForestColoring,
    cole_vishkin_iterations,
)
from repro.distributed.greedy_baseline import (
    BatchGreedyLocalMaximaAlgorithm,
    GreedyLocalMaximaAlgorithm,
)
from repro.distributed.linial import (
    BatchColorReductionAlgorithm,
    ColorReductionAlgorithm,
)
from repro.distributed.wave import BatchWaveTwoColoring, WaveTwoColoring
from repro.graphs.generators import classic, sparse
from repro.graphs.graph import Graph
from repro.local import Network, ReferenceSimulator, SynchronousSimulator
from repro.local import kernels
from repro.verify import assert_simulation_parity

HAS_NUMBA = importlib.util.find_spec("numba") is not None

seeds = st.integers(min_value=0, max_value=2**20)


# ---------------------------------------------------------------------------
# kernel unit tests
# ---------------------------------------------------------------------------


def _random_fabric(seed: int, n: int = 30):
    rng = random.Random(seed)
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    order = graph.vertices()
    rng.shuffle(order)
    return Network(graph, identifier_order=order).fabric


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_gather_matches_loop(seed):
    fabric = _random_fabric(seed)
    endpoints = fabric.endpoints_np
    values = np.arange(100, 100 + fabric.offsets_np[-1], dtype=np.int64)
    node_values = np.arange(len(fabric.offsets_np) - 1, dtype=np.int64) * 7
    expected = np.array([node_values[e] for e in endpoints], dtype=np.int64)
    assert (kernels.gather(node_values, endpoints) == expected).all()
    out = np.empty(endpoints.shape[0], dtype=np.int64)
    got = kernels.gather(node_values, endpoints, out=out)
    assert got is out and (got == expected).all()
    # deliver_slots is a gather by reverse_slot
    reverse = fabric.reverse_np
    assert (
        kernels.deliver_slots(values, reverse)
        == np.array([values[r] for r in reverse])
    ).all()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_deliver_masked_matches_loop(seed):
    fabric = _random_fabric(seed)
    reverse = fabric.reverse_np
    m = reverse.shape[0]
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1000, size=m, dtype=np.int64)
    mask = rng.integers(0, 2, size=m).astype(bool)
    inbox, delivered, messages = kernels.deliver_masked(
        values, mask, reverse,
        inbox_out=np.empty(m, dtype=np.int64),
        delivered_out=np.empty(m, dtype=np.bool_),
    )
    assert messages == int(mask.sum())
    for k in range(m):
        assert inbox[k] == values[reverse[k]]
        assert delivered[k] == mask[reverse[k]]


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_compact_segments_matches_slices(seed):
    fabric = _random_fabric(seed)
    offsets = fabric.offsets_np
    n = offsets.shape[0] - 1
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(rng.integers(0, 2, size=n))
    slots, compact_offsets = kernels.compact_segments(offsets, active)
    expected = np.concatenate(
        [np.arange(offsets[i], offsets[i + 1]) for i in active]
    ) if active.size else np.empty(0, dtype=np.int64)
    assert (slots == expected).all()
    for j, i in enumerate(active):
        lo, hi = compact_offsets[j], compact_offsets[j + 1]
        assert hi - lo == offsets[i + 1] - offsets[i]
        assert (slots[lo:hi] == np.arange(offsets[i], offsets[i + 1])).all()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_fusion_identity(seed):
    """The load-bearing identity: sources[reverse_slot] == endpoints."""
    fabric = _random_fabric(seed)
    sources = fabric.sources_np()
    assert (sources[fabric.reverse_np] == fabric.endpoints_np).all()
    node_values = np.arange(len(fabric.offsets_np) - 1, dtype=np.int64) * 3 + 1
    assert (
        kernels.reference_broadcast(node_values, sources, fabric.reverse_np)
        == kernels.gather(node_values, fabric.endpoints_np)
    ).all()


# ---------------------------------------------------------------------------
# cross-engine parity: fused == unfused reference == per-node == seed
# ---------------------------------------------------------------------------


def _random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    graph.add_vertex(0)
    for i in range(1, n):
        graph.add_edge(rng.randrange(i), i)
    return graph


def _four_engines(net, per_node, batched, inputs, max_rounds):
    """Run all four data planes on one instance; return the results."""
    fused = SynchronousSimulator(net).run(
        batched, inputs=inputs, max_rounds=max_rounds, strict=True
    )
    unfused = SynchronousSimulator(net).run(
        batched, inputs=inputs, max_rounds=max_rounds, strict=True,
        reference_exchange=True,
    )
    flat = SynchronousSimulator(net).run(
        per_node, inputs=inputs, max_rounds=max_rounds, strict=True
    )
    seed_result = ReferenceSimulator(net).run(
        per_node, inputs=inputs, max_rounds=max_rounds, strict=True
    )
    return fused, unfused, flat, seed_result


def _assert_all_match(fused, unfused, flat, seed_result):
    assert_simulation_parity(fused, unfused, labels=("fused", "reference"))
    assert_simulation_parity(fused, flat, labels=("fused", "per-node"))
    assert_simulation_parity(fused, seed_result, labels=("fused", "seed"))
    assert fused.per_round_messages == seed_result.per_round_messages


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_cole_vishkin_engine_parity(seed, n):
    graph = _random_tree(n, seed).freeze()
    net = Network(graph)
    parent = {0: None}
    for v in graph.vertices():
        for u in graph.neighbors(v):
            if u > v:
                parent[u] = net.identifier_of[v]
    inputs = {v: parent.get(v) for v in graph.vertices()}
    max_rounds = 10 * cole_vishkin_iterations(n) + 30
    _assert_all_match(*_four_engines(
        net, ColeVishkinForestColoring, BatchColeVishkinForestColoring,
        inputs, max_rounds,
    ))


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_greedy_engine_parity(seed, n):
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    order = graph.vertices()
    random.Random(seed).shuffle(order)
    net = Network(graph, identifier_order=order)
    delta = max(1, graph.max_degree())
    inputs = {v: delta for v in graph.vertices()}
    _assert_all_match(*_four_engines(
        net, GreedyLocalMaximaAlgorithm, BatchGreedyLocalMaximaAlgorithm,
        inputs, n + 2,
    ))


@given(seeds, st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_wave_engine_parity(seed, n):
    graph = _random_tree(n, seed).freeze()
    net = Network(graph)
    inputs = {v: v == 0 for v in graph.vertices()}
    fused, unfused, flat, seed_result = _four_engines(
        net, WaveTwoColoring, BatchWaveTwoColoring, inputs, n + 2
    )
    _assert_all_match(fused, unfused, flat, seed_result)
    # 2-coloring by distance parity: every tree edge is bichromatic
    outputs = fused.outputs
    for v in graph.vertices():
        for u in graph.neighbors(v):
            assert outputs[u] != outputs[v]


def _reduction_inputs(graph, seed, spread):
    """A proper coloring with sparse classes: distinct colors ``spread`` apart."""
    order = graph.vertices()
    random.Random(seed).shuffle(order)
    delta = max(1, graph.max_degree())
    palette = spread * len(order) + delta + 2
    return {
        v: (delta + 1 + spread * k, palette, delta) for k, v in enumerate(order)
    }, palette


@given(seeds, st.integers(min_value=1, max_value=40), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_color_reduction_engine_parity(seed, n, spread):
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    inputs, palette = _reduction_inputs(graph, seed, spread)
    results = _four_engines(
        Network(graph), ColorReductionAlgorithm, BatchColorReductionAlgorithm,
        inputs, palette + 5,
    )
    _assert_all_match(*results)
    outputs = results[0].outputs
    delta = max(1, graph.max_degree())
    for v in graph.vertices():
        assert outputs[v] <= delta
        for u in graph.neighbors(v):
            assert outputs[u] != outputs[v]


def test_color_reduction_wide_palette_falls_back_per_node(monkeypatch):
    """Delta + 1 >= 63: can_run declines and the per-node program runs."""
    graph = classic.star(63).freeze()
    inputs, palette = _reduction_inputs(graph, 7, 2)
    batched_runs = []
    monkeypatch.setattr(
        BatchColorReductionAlgorithm, "initialize_batch",
        lambda self, context: batched_runs.append(context),
    )
    _assert_all_match(*_four_engines(
        Network(graph), ColorReductionAlgorithm, BatchColorReductionAlgorithm,
        inputs, palette + 5,
    ))
    assert not batched_runs


def test_wave_path_lower_bound_signature():
    """On a rooted path the wave spends exactly n rounds, 2(n-1) messages."""
    for n in (1, 2, 5, 37):
        graph = classic.path(n).freeze()
        inputs = {v: v == 0 for v in graph.vertices()}
        result = SynchronousSimulator(Network(graph)).run(
            BatchWaveTwoColoring, inputs=inputs, max_rounds=n + 2, strict=True
        )
        assert result.rounds == n
        assert result.messages_sent == 2 * (n - 1)


def test_active_mode_charges_frontier_messages():
    """The active exchange mode charges len(slots), not num_slots."""
    n = 12
    graph = classic.path(n).freeze()
    inputs = {v: v == 0 for v in graph.vertices()}
    result = SynchronousSimulator(Network(graph)).run(
        BatchWaveTwoColoring, inputs=inputs, max_rounds=n + 2, strict=True
    )
    # round 1: the root broadcasts on its single port; interior rounds: the
    # frontier node broadcasts on both ports; the far endpoint speaks last
    assert result.per_round_messages[0] == 1
    assert result.per_round_messages[-1] == 1
    assert all(m == 2 for m in result.per_round_messages[1:-1])


# ---------------------------------------------------------------------------
# native-build gating
# ---------------------------------------------------------------------------


@pytest.fixture
def native_cache_reset():
    kernels._reset_native_cache()
    yield
    kernels._reset_native_cache()


def test_repro_native_off_pins_numpy(monkeypatch, native_cache_reset):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert kernels.native_mode() == "off"
    assert not kernels.native_active()
    # "off" must not even probe numba
    assert not kernels.native_available()


@pytest.mark.skipif(HAS_NUMBA, reason="numba is installed")
def test_repro_native_require_warns_without_numba(monkeypatch, native_cache_reset):
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert kernels.native_mode() == "require"
    with pytest.warns(RuntimeWarning, match="REPRO_NATIVE=1 but numba"):
        assert not kernels.native_active()
    # the warning fires once per process, not once per round
    with warnings_none():
        assert not kernels.native_active()


class warnings_none:
    """Context asserting no warnings are emitted inside the block."""

    def __enter__(self):
        import warnings as _w

        self._catcher = _w.catch_warnings(record=True)
        self._records = self._catcher.__enter__()
        import warnings as _w2

        _w2.simplefilter("always")
        return self._records

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        assert not self._records, [str(r.message) for r in self._records]
        return False


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_native_kernels_bit_identical(monkeypatch, native_cache_reset):
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert kernels.native_active()
    fabric = _random_fabric(7, n=60)
    endpoints = fabric.endpoints_np
    reverse = fabric.reverse_np
    m = endpoints.shape[0]
    node_values = np.arange(len(fabric.offsets_np) - 1, dtype=np.int64) * 11
    rng = np.random.default_rng(7)
    values = rng.integers(0, 1000, size=m, dtype=np.int64)
    mask = rng.integers(0, 2, size=m).astype(bool)
    native_gather = kernels.gather(
        node_values, endpoints, out=np.empty(m, dtype=np.int64)
    ).copy()
    native_inbox, native_delivered, native_count = kernels.deliver_masked(
        values, mask, reverse,
        inbox_out=np.empty(m, dtype=np.int64),
        delivered_out=np.empty(m, dtype=np.bool_),
    )
    native_inbox = native_inbox.copy()
    native_delivered = native_delivered.copy()

    kernels._reset_native_cache()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert not kernels.native_active()
    assert (kernels.gather(node_values, endpoints) == native_gather).all()
    inbox, delivered, count = kernels.deliver_masked(values, mask, reverse)
    assert (inbox == native_inbox).all()
    assert (delivered == native_delivered).all()
    assert count == native_count


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_native_engine_bit_identical(monkeypatch, native_cache_reset):
    """Full engine runs agree bit-for-bit between numba and numpy kernels."""
    graph = sparse.union_of_random_forests(50, 2, seed=3).freeze()
    net = Network(graph)
    delta = max(1, graph.max_degree())
    inputs = {v: delta for v in graph.vertices()}

    monkeypatch.setenv("REPRO_NATIVE", "1")
    native = SynchronousSimulator(net).run(
        BatchGreedyLocalMaximaAlgorithm, inputs=inputs,
        max_rounds=52, strict=True,
    )
    kernels._reset_native_cache()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    plain = SynchronousSimulator(net).run(
        BatchGreedyLocalMaximaAlgorithm, inputs=inputs,
        max_rounds=52, strict=True,
    )
    assert_simulation_parity(native, plain, labels=("numba", "numpy"))


# ---------------------------------------------------------------------------
# the Barenboim–Elkin backend downgrade is loud (satellite of the flat flip)
# ---------------------------------------------------------------------------


def test_barenboim_elkin_wide_palette_warns_and_strict_raises():
    from repro.distributed.barenboim_elkin import barenboim_elkin_coloring

    graph = sparse.union_of_random_forests(40, 2, seed=5)
    # floor((2+1)*21)+1 = 64 >= 62: too wide for the int64 slot kernel
    with pytest.warns(RuntimeWarning, match="falling back to backend='dict'"):
        result = barenboim_elkin_coloring(graph, arboricity=21)
    assert result.palette_size == 64
    with pytest.raises(ValueError, match="backend='flat' cannot run"):
        barenboim_elkin_coloring(
            graph, arboricity=21, strict_backend=True
        )
    # inside the kernel limit the flat path runs silently
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        barenboim_elkin_coloring(graph, arboricity=2)
