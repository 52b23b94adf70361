"""FrozenGraph <-> Graph parity (property-based) and CSR-specific behavior.

The central invariant of the CSR core: freezing never changes the answer of
any read query.  The parity tests run both representations over >= 100
random instances (plus structured families) and compare degrees, edges,
balls, BFS distances, components, subgraphs and the degeneracy machinery;
both array backends (numpy and pure Python) are exercised.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import FrozenGraph, Graph, freeze
from repro.graphs.frozen import HAS_NUMPY
from repro.graphs.generators import classic, sparse
from repro.graphs.properties.degeneracy import (
    _degeneracy_ordering_sets,
    core_numbers,
    degeneracy_ordering,
)
from repro.graphs.properties.mad import mad_lower_bound_greedy, maximum_average_degree

BACKENDS = [True, False] if HAS_NUMPY else [False]


def random_instance(seed: int) -> Graph:
    """A random graph; the family varies with the seed."""
    rng = random.Random(seed)
    family = seed % 4
    if family == 0:  # G(n, p)
        n = rng.randrange(1, 36)
        p = rng.choice([0.05, 0.1, 0.25, 0.5])
        g = Graph(vertices=range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    g.add_edge(i, j)
        return g
    if family == 1:
        return sparse.union_of_random_forests(rng.randrange(2, 40), rng.randrange(1, 4), seed=seed)
    if family == 2:
        return sparse.random_degenerate_graph(rng.randrange(1, 40), rng.randrange(0, 4), seed=seed)
    # disconnected union with tuple labels
    g = Graph()
    for c in range(rng.randrange(1, 4)):
        size = rng.randrange(1, 10)
        vertices = [(c, i) for i in range(size)]
        g.add_vertices(vertices)
        for i in range(1, size):
            g.add_edge(vertices[rng.randrange(i)], vertices[i])
    return g


def as_edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_parity_on_100_random_instances(use_numpy):
    """Acceptance: identical degrees, balls, components, degeneracy order."""
    checked = 0
    for seed in range(100):
        g = random_instance(seed)
        f = g.freeze(use_numpy=use_numpy)
        assert len(f) == len(g)
        assert set(f.vertices()) == set(g.vertices())
        assert f.degrees() == g.degrees()
        assert f.number_of_edges() == g.number_of_edges()
        assert as_edge_set(f) == as_edge_set(g)
        assert sorted(map(frozenset, f.connected_components())) == sorted(
            map(frozenset, g.connected_components())
        )
        rng = random.Random(seed + 1000)
        for v in g:
            assert set(f.neighbors(v)) == set(g.neighbors(v))
            radius = rng.randrange(0, 4)
            assert f.ball(v, radius) == g.ball(v, radius)
        # identical degeneracy ordering through the public entry point
        assert degeneracy_ordering(f) == degeneracy_ordering(g)
        checked += 1
    assert checked == 100


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_parity_bfs_subgraph_has_edge(use_numpy):
    for seed in range(40):
        g = random_instance(seed)
        f = g.freeze(use_numpy=use_numpy)
        rng = random.Random(seed)
        vertices = g.vertices()
        for v in vertices:
            assert f.bfs_distances(v) == g.bfs_distances(v)
            assert f.bfs_distances(v, radius=2) == g.bfs_distances(v, radius=2)
        for _ in range(20):
            u, v = rng.choice(vertices), rng.choice(vertices)
            assert f.has_edge(u, v) == g.has_edge(u, v)
        keep = [v for v in vertices if rng.random() < 0.5]
        fs, gs = f.subgraph(keep), g.subgraph(keep)
        assert isinstance(fs, FrozenGraph)
        assert fs.degrees() == gs.degrees()
        assert as_edge_set(fs) == as_edge_set(gs)


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_parity_degeneracy_oracles(use_numpy):
    """CSR peel agrees with the legacy heap implementation and is valid."""
    for seed in range(30):
        g = random_instance(seed)
        f = g.freeze(use_numpy=use_numpy)
        degen_legacy, order_legacy = _degeneracy_ordering_sets(g)
        degen, order = f.degeneracy_ordering()
        assert degen == degen_legacy
        assert sorted(map(repr, order)) == sorted(map(repr, order_legacy))
        position = {v: i for i, v in enumerate(order)}
        for v in g:
            later = sum(1 for u in g.neighbors(v) if position[u] > position[v])
            assert later <= degen
        cores = core_numbers(f)
        assert max(cores.values(), default=0) == degen
        if g.number_of_edges():
            lower = mad_lower_bound_greedy(f)
            exact = maximum_average_degree(g)
            assert exact / 2 - 1e-9 <= lower <= exact + 1e-9


@pytest.mark.parametrize("use_numpy", BACKENDS)
def test_all_balls_matches_per_vertex(use_numpy):
    for seed in range(20):
        g = random_instance(seed)
        f = g.freeze(use_numpy=use_numpy)
        for radius in (0, 1, 2, 7):
            assert f.all_balls(radius) == {v: g.ball(v, radius) for v in g}


def test_backends_produce_identical_orderings():
    if not HAS_NUMPY:
        pytest.skip("numpy not installed")
    g = classic.grid_2d(7, 9)
    fn, fp = g.freeze(use_numpy=True), g.freeze(use_numpy=False)
    assert fn.degeneracy_ordering() == fp.degeneracy_ordering()
    assert fn.core_numbers() == fp.core_numbers()
    assert fn.peel_density_lower_bound() == pytest.approx(
        fp.peel_density_lower_bound()
    )


def test_freeze_thaw_round_trip():
    for seed in range(10):
        g = random_instance(seed)
        f = g.freeze()
        assert f.thaw() == g
        assert f == g  # cross-representation equality
        assert freeze(f) is f  # idempotent
        assert f.freeze() is f
        assert f.copy() is f


def test_frozen_graph_is_immutable():
    f = classic.cycle(4).freeze()
    with pytest.raises(GraphError):
        f.add_edge(0, 2)
    with pytest.raises(GraphError):
        f.add_vertex(99)
    with pytest.raises(GraphError):
        f.remove_vertex(0)
    with pytest.raises(GraphError):
        f.remove_edge(0, 1)


def test_frozen_graph_errors_on_missing_vertex():
    f = classic.path(3).freeze()
    with pytest.raises(GraphError):
        f.neighbors(99)
    with pytest.raises(GraphError):
        f.degree(99)
    with pytest.raises(GraphError):
        f.bfs_distances(99)
    assert not f.has_edge(0, 99)


def test_frozen_graph_stats_and_metadata():
    g = sparse.union_of_random_forests(30, 2, seed=1)
    f = g.freeze()
    assert f.max_degree() == g.max_degree()
    assert f.min_degree() == g.min_degree()
    assert f.average_degree() == pytest.approx(g.average_degree())
    assert f.metadata == g.metadata
    assert f.name == g.name
    assert not f.is_empty()
    assert Graph().freeze().is_empty()
    assert Graph().freeze().degeneracy_ordering() == (0, [])
    assert Graph().freeze().all_balls(3) == {}


def test_frozen_graph_pickle_round_trip():
    g = random_instance(3)
    f = g.freeze()
    f2 = pickle.loads(pickle.dumps(f))
    assert f2 == f
    assert f2.degrees() == f.degrees()
    assert f2.degeneracy_ordering() == f.degeneracy_ordering()


def test_zero_copy_neighbor_slice():
    f = classic.cycle(5).freeze()
    i = f.index_of(0)
    sl = f.neighbor_slice(i)
    assert sorted(f.label_of(int(j)) for j in sl) == sorted(f.neighbors(0))


def test_pipeline_parity_graph_vs_frozen():
    """Theorem 1.3 end to end: frozen input takes the CSR peeling branch and
    must produce the same layers, rounds and coloring as the mutable path."""
    from repro.core.peeling import peel_happy_layers
    from repro.core.sparse_coloring import color_sparse_graph

    g = sparse.union_of_random_forests(60, 2, seed=7)
    peel_dict = peel_happy_layers(g, 4)
    peel_csr = peel_happy_layers(g.freeze(), 4)
    assert [layer.removed for layer in peel_dict.layers] == [
        layer.removed for layer in peel_csr.layers
    ]
    assert peel_dict.ledger.total() == peel_csr.ledger.total()

    # colors may legitimately differ (Lemma 3.2 tie-breaks on subgraph
    # iteration order), but both must be verified d-colorings of the whole
    # graph with the same structural cost
    res_dict = color_sparse_graph(g, 4)
    res_csr = color_sparse_graph(g.freeze(), 4)  # verify=True checks propriety
    assert res_dict.succeeded and res_csr.succeeded
    assert set(res_csr.coloring) == set(g.vertices())
    assert res_csr.colors_used() <= 4
    assert res_dict.rounds == res_csr.rounds


def test_frozen_subgraph_of_frozen_stays_frozen_and_correct():
    g = classic.grid_2d(5, 5)
    f = g.freeze()
    sub = f.subgraph([v for v in g if sum(v) % 2 == 0])
    assert isinstance(sub, FrozenGraph)
    expected = g.subgraph([v for v in g if sum(v) % 2 == 0])
    assert sub.degrees() == expected.degrees()
    assert sub.thaw() == expected


# -- the vectorized freeze against the per-vertex (pure-Python) backend ------


def _assert_freeze_backends_identical(g: Graph, identity: bool) -> None:
    """numpy and pure-Python freezes agree exactly, labels included."""
    fn = FrozenGraph.from_graph(g, use_numpy=True)
    fp = FrozenGraph.from_graph(g, use_numpy=False)
    assert fn.vertices() == fp.vertices() == g.vertices()
    assert [type(v) for v in fn.vertices()] == [type(v) for v in g.vertices()]
    offsets_n, neighbors_n = fn.csr_arrays()
    offsets_p, neighbors_p = fp.csr_arrays()
    assert offsets_n.tolist() == offsets_p
    assert neighbors_n.tolist() == neighbors_p
    assert fn.identity_labels is fp.identity_labels is identity
    # identity graphs keep the range label store on both backends
    assert isinstance(fn._labels, range) is isinstance(fp._labels, range) is identity
    assert fn == g and fp == g


def _is_identity(labels) -> bool:
    return all(type(v) is int and v == i for i, v in enumerate(labels))


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
def test_vectorized_freeze_matches_python_backend_on_random_instances():
    for seed in range(100):
        g = random_instance(seed)
        _assert_freeze_backends_identical(g, _is_identity(g.vertices()))


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize(
    "labels",
    [
        [2, 0, 1],  # ints, out of order
        [0, True, 2],  # True equals 1 but is no int
        ["np.int64"],  # numpy integer labels (built below)
        [0, 1.0, 2],  # 1.0 equals 1 but is no int
        [(0, "a"), (1, "b"), (2, "c")],
        ["x", "y", "z", "w"],
        [0, 1, 2, 3, 4],  # identity, with isolated vertices
        [],  # the empty graph
    ],
)
def test_vectorized_freeze_label_edge_cases(labels):
    import numpy as np

    if labels == ["np.int64"]:
        labels = [np.int64(i) for i in range(4)]
    g = Graph(vertices=labels)
    if len(labels) >= 3:
        g.add_edge(labels[0], labels[2])
        g.add_edge(labels[2], labels[1])
    _assert_freeze_backends_identical(g, _is_identity(labels))


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
def test_vectorized_freeze_identity_keys_with_equal_neighbour_labels():
    # keys 0..3 are plain ints, but the neighbour sets hold True and 2.0,
    # which equal (and hash like) the vertices 1 and 2
    g = Graph(vertices=range(4))
    g.add_edge(True, 3)
    g.add_edge(2.0, 0)
    assert g.vertices() == [0, 1, 2, 3]
    _assert_freeze_backends_identical(g, True)


@st.composite
def _labelled_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    kind = draw(st.sampled_from(["identity", "shuffled", "strings", "tuples"]))
    if kind == "identity":
        labels = list(range(n))
    elif kind == "shuffled":
        labels = list(draw(st.permutations(range(n))))
    elif kind == "strings":
        labels = [f"v{i}" for i in range(n)]
    else:
        labels = [(i % 3, i) for i in range(n)]
    g = Graph(vertices=labels)
    if n >= 2:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
        )
        for i, j in pairs:
            if i != j:
                g.add_edge(labels[i], labels[j])
    return g


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@given(_labelled_graphs())
@settings(max_examples=60, deadline=None)
def test_vectorized_freeze_matches_python_backend_on_hypothesis_graphs(g):
    _assert_freeze_backends_identical(g, _is_identity(g.vertices()))
