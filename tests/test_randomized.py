"""Tests for the randomized track (:mod:`repro.distributed.randomized`).

Four layers of pinning:

* the counter-based RNG against numpy's own Philox-4x64-10 bit stream —
  the module's pure-python ladder and numpy's C implementation must emit
  the same words for the same ``(seed, node, round)`` key;
* engine parity properties (hypothesis over generator seeds) — the
  randomized (Delta+1)-coloring must replay bit-for-bit on the fused
  batched engine, the unfused reference, the flat per-node engine and
  the frozen seed engine, and the driver's batched/per-node paths must
  agree on colorings, rounds and frontier traces;
* Moser-Tardos backend parity — the flat (mask) and dict resamplers
  walk the identical resample sequence and emit the same record log and
  digest, and the result is a proper list coloring;
* oracle mutation tests — ``RandomizedRoundsOracle`` and
  ``ResampleLogOracle`` accept genuine witnesses and reject doctored
  ones (inflated rounds, growing frontiers, edited violated sets,
  truncated logs, swapped colorings, wrong seeds).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.coloring.palette import FlatListAssignment, ListAssignmentError
from repro.distributed.randomized import (
    KEY_SALT,
    BatchRandomizedDeltaPlusOne,
    RandomizedDeltaPlusOne,
    ResampleLimitError,
    ResampleStep,
    counter_rng,
    counter_rng_one,
    moser_tardos_list_coloring,
    philox4x64,
    randomized_delta_plus_one_coloring,
    resample_log_digest,
)
from repro.graphs.generators import classic, sparse
from repro.graphs.graph import Graph
from repro.local import Network, ReferenceSimulator, SynchronousSimulator
from repro.verify import (
    PaletteBudgetOracle,
    ProperColoringOracle,
    RandomizedRoundsOracle,
    ResampleLogOracle,
    assert_simulation_parity,
    coloring_digest,
)

seeds = st.integers(min_value=0, max_value=2**20)


# ---------------------------------------------------------------------------
# counter-based RNG: pin against numpy's Philox bit stream
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_counter_rng_matches_numpy_philox(seed, node, rnd):
    # numpy's Philox generator pre-increments the counter before its
    # first block, so counter=[rnd-1, node, 0, 0] yields the block our
    # ladder computes at counter=[rnd, node, 0, 0].  The key goes in as a
    # uint64 array: numpy converts a list holding a seed >= 2**63 lossily
    bits = np.random.Philox(
        counter=[rnd - 1, node, 0, 0],
        key=np.array([seed, KEY_SALT], dtype=np.uint64),
    ).random_raw(4)
    assert counter_rng_one(seed, node, rnd) == int(bits[0])


def test_counter_rng_vector_matches_scalar():
    nodes = np.arange(17, dtype=np.uint64)
    vector = counter_rng(12345, nodes, 7)
    for node in range(17):
        assert int(vector[node]) == counter_rng_one(12345, node, 7)


def test_philox_block_is_deterministic_and_key_sensitive():
    a = philox4x64(3, 5, 0, 0, 9, KEY_SALT)
    b = philox4x64(3, 5, 0, 0, 9, KEY_SALT)
    c = philox4x64(3, 5, 0, 0, 10, KEY_SALT)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# randomized (Delta+1): four-engine parity and driver parity
# ---------------------------------------------------------------------------


def _net_and_inputs(n, gseed, rseed):
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    order = graph.vertices()
    random.Random(gseed).shuffle(order)
    net = Network(graph, identifier_order=order)
    delta = max(1, graph.max_degree())
    inputs = {v: (rseed, delta) for v in graph.vertices()}
    return graph, net, inputs


@given(seeds, seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_randomized_four_engine_parity(gseed, rseed, n):
    graph, net, inputs = _net_and_inputs(n, gseed, rseed)
    max_rounds = 48 * n.bit_length() + 96
    fused = SynchronousSimulator(net).run(
        BatchRandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    unfused = SynchronousSimulator(net).run(
        BatchRandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True, reference_exchange=True,
    )
    flat = SynchronousSimulator(net).run(
        RandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    seed_result = ReferenceSimulator(net).run(
        RandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    assert_simulation_parity(fused, unfused, labels=("fused", "reference"))
    assert_simulation_parity(fused, flat, labels=("fused", "per-node"))
    assert_simulation_parity(fused, seed_result, labels=("fused", "seed"))
    assert fused.per_round_messages == seed_result.per_round_messages
    coloring = dict(fused.outputs)
    assert coloring_digest(coloring) == coloring_digest(dict(flat.outputs))
    delta = max(1, graph.max_degree())
    ProperColoringOracle().check(graph=graph, coloring=coloring).raise_if_failed()
    PaletteBudgetOracle().check(
        coloring=coloring, budget=delta + 1
    ).raise_if_failed()


@given(seeds, seeds, st.integers(min_value=0, max_value=40))
@settings(max_examples=20, deadline=None)
def test_randomized_driver_parity(gseed, rseed, n):
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    batched = randomized_delta_plus_one_coloring(graph, seed=rseed, batched=True)
    per_node = randomized_delta_plus_one_coloring(graph, seed=rseed, batched=False)
    assert batched.coloring == per_node.coloring
    assert batched.rounds == per_node.rounds
    assert batched.messages == per_node.messages
    assert batched.frontier == per_node.frontier
    assert batched.palette_size <= max(1, graph.max_degree()) + 1
    if n:
        ProperColoringOracle().check(
            graph=graph, coloring=batched.coloring
        ).raise_if_failed()


def test_randomized_seed_changes_coloring():
    graph = classic.complete_graph(12).freeze()
    a = randomized_delta_plus_one_coloring(graph, seed=1)
    b = randomized_delta_plus_one_coloring(graph, seed=2)
    assert a.coloring != b.coloring  # 12 clique vertices over 12 colors


def test_randomized_empty_graph():
    result = randomized_delta_plus_one_coloring(Graph().freeze(), seed=0)
    assert result.coloring == {}
    assert result.rounds == 0
    assert result.frontier == ()


def test_randomized_frontier_is_monotone_and_drains():
    graph = classic.random_regular_graph(80, 4, seed=5).freeze()
    result = randomized_delta_plus_one_coloring(graph, seed=9)
    assert len(result.frontier) == result.rounds
    assert result.frontier[0] == 80
    assert all(
        result.frontier[i] >= result.frontier[i + 1]
        for i in range(len(result.frontier) - 1)
    )
    assert result.frontier[-1] == 0
    RandomizedRoundsOracle().check(
        n=80, rounds=result.rounds, frontier=result.frontier
    ).raise_if_failed()


# ---------------------------------------------------------------------------
# Moser-Tardos: backend parity, legality, witness digests
# ---------------------------------------------------------------------------


def _mt_instance(n, gseed):
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    delta = max(1, graph.max_degree())
    universe = 4 * delta + 4
    width = 2 * delta + 2
    lists = {
        v: [((i * 3 + j) % universe) + 1 for j in range(width)]
        for i, v in enumerate(graph.vertices())
    }
    return graph, lists


@given(seeds, seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=15, deadline=None)
def test_moser_tardos_backend_parity(gseed, rseed, n):
    graph, lists = _mt_instance(n, gseed)
    flat = moser_tardos_list_coloring(graph, lists, seed=rseed, backend="flat")
    dict_ = moser_tardos_list_coloring(graph, lists, seed=rseed, backend="dict")
    assert flat.coloring == dict_.coloring
    assert flat.steps == dict_.steps
    assert flat.log == dict_.log
    assert flat.log_digest() == dict_.log_digest()
    for v in graph.vertices():
        assert flat.coloring[v] in lists[v]
        for u in graph.neighbors(v):
            assert flat.coloring[u] != flat.coloring[v]


def test_moser_tardos_zero_vertices():
    result = moser_tardos_list_coloring(Graph().freeze(), {}, seed=0)
    assert result.coloring == {}
    assert result.steps == 0
    assert result.log == ()


def test_moser_tardos_rejects_empty_list():
    graph = classic.path(3).freeze()
    lists = {v: [1, 2, 3] for v in graph.vertices()}
    lists[graph.vertices()[1]] = []
    with pytest.raises(ListAssignmentError):
        moser_tardos_list_coloring(graph, lists, seed=0)


def test_moser_tardos_rejects_unknown_backend():
    with pytest.raises(ValueError):
        moser_tardos_list_coloring(Graph().freeze(), {}, seed=0, backend="gpu")


def test_moser_tardos_resample_limit():
    # a triangle with single-color lists can never become proper
    graph = classic.complete_graph(3).freeze()
    lists = {v: [1] for v in graph.vertices()}
    with pytest.raises(ResampleLimitError):
        moser_tardos_list_coloring(graph, lists, seed=0, max_steps=12)


def test_resample_log_digest_binds_seed_and_log():
    log = (ResampleStep(1, (0, 2)), ResampleStep(2, (1,)))
    base = resample_log_digest(log, seed=7)
    assert resample_log_digest(log, seed=8) != base
    assert resample_log_digest(log[:1], seed=7) != base
    assert resample_log_digest(log, seed=7) == base


# ---------------------------------------------------------------------------
# oracle mutation tests: each auditor rejects a doctored witness
# ---------------------------------------------------------------------------


def test_rounds_oracle_rejects_excessive_rounds():
    verdict = RandomizedRoundsOracle().check(n=64, rounds=10_000)
    assert verdict.failures


def test_rounds_oracle_rejects_growing_frontier():
    verdict = RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 3]
    )
    assert any("grew" in d for d in verdict.diagnostics)


def test_rounds_oracle_rejects_undrained_frontier():
    verdict = RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 1]
    )
    assert any("drained" in d for d in verdict.diagnostics)


def test_rounds_oracle_rejects_wrong_trace_length():
    verdict = RandomizedRoundsOracle().check(n=4, rounds=3, frontier=[4, 0])
    assert any("entries" in d for d in verdict.diagnostics)


def test_rounds_oracle_accepts_legal_trace():
    RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 0]
    ).raise_if_failed()


@pytest.fixture()
def mt_witness():
    graph, lists = _mt_instance(24, 3)
    result = moser_tardos_list_coloring(graph, lists, seed=11, backend="flat")
    return graph, lists, result


def test_resample_oracle_accepts_genuine_witness(mt_witness):
    graph, lists, result = mt_witness
    ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=result.log,
        coloring=result.coloring,
    ).raise_if_failed()


def test_resample_oracle_rejects_edited_violated_set(mt_witness):
    graph, lists, result = mt_witness
    doctored = list(result.log) or [ResampleStep(1, (0,))]
    doctored[0] = ResampleStep(
        doctored[0].step, tuple(v + 1 for v in doctored[0].vertices) or (1,)
    )
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=doctored,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_padded_log(mt_witness):
    graph, lists, result = mt_witness
    padded = list(result.log) + [ResampleStep(result.steps + 1, (0, 1))]
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=padded,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_swapped_coloring(mt_witness):
    graph, lists, result = mt_witness
    forged = dict(result.coloring)
    v = graph.vertices()[0]
    forged[v] = next(c for c in lists[v] if c != forged[v])
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=result.log,
        coloring=forged,
    )
    assert verdict.failures


def test_resample_oracle_rejects_wrong_seed(mt_witness):
    graph, lists, result = mt_witness
    other = moser_tardos_list_coloring(
        graph, lists, seed=result.seed + 1, backend="flat"
    )
    if other.log == result.log and other.coloring == result.coloring:
        pytest.skip("adjacent seeds happened to replay identically")
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed + 1, log=result.log,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_monochromatic_forgery():
    # a forged witness whose replay is consistent but whose coloring has
    # a monochromatic edge must fall to the independent legality check
    graph = classic.path(2).freeze()
    u, v = graph.vertices()
    lists = {u: [1, 2], v: [1, 2]}
    result = moser_tardos_list_coloring(graph, lists, seed=4, backend="dict")
    forged = {u: result.coloring[u], v: result.coloring[u]}
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=4, log=result.log, coloring=forged,
    )
    assert verdict.failures


# ---------------------------------------------------------------------------
# palette edge cases promoted by the randomized track (satellite #3)
# ---------------------------------------------------------------------------


def test_minimum_size_default_on_empty_assignment():
    empty = FlatListAssignment({})
    assert empty.minimum_size() == 0
    assert empty.minimum_size(default=5) == 5


def test_moser_tardos_ignores_foreign_empty_lists():
    # an empty list attached to a vertex outside the graph must not trip
    # the precondition (the restriction to graph vertices is what counts)
    graph = classic.path(3).freeze()
    lists = {v: [1, 2, 3] for v in graph.vertices()}
    lists["ghost"] = []
    result = moser_tardos_list_coloring(graph, lists, seed=0)
    assert set(result.coloring) == set(graph.vertices())
