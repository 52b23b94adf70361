"""Tests for the constructive Theorem 1.1 solver (Borodin / Erdős–Rubin–Taylor)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.assignment import ListAssignment, uniform_lists
from repro.coloring.borodin_ert import (
    degree_list_coloring,
    extend_partial_coloring,
    is_degree_choosable_instance,
    slack_coloring_on_masks,
)
from repro.coloring.verification import verify_list_coloring
from repro.errors import ColoringError
from repro.graphs.generators import classic, planar
from repro.graphs.graph import Graph


def degree_lists(graph, palette_offset=0):
    """Every vertex gets exactly d(v) colors {1..d(v)} (shifted by offset)."""
    return ListAssignment(
        {
            v: frozenset(range(1 + palette_offset, graph.degree(v) + 1 + palette_offset))
            for v in graph
        }
    )


# -- slack case ----------------------------------------------------------------

def test_slack_vertex_greedy_on_path():
    p = classic.path(30)
    lists = uniform_lists(p, 2)  # endpoints have slack (degree 1 < 2)
    coloring = degree_list_coloring(p, lists)
    verify_list_coloring(p, coloring, lists)


def test_slack_vertex_greedy_on_tree():
    t = classic.random_tree(30, seed=1)
    # lists of size exactly d(v), except one slack vertex with d(v)+1 colors
    lists_dict = {v: frozenset(range(1, t.degree(v) + 1)) for v in t}
    slack = max(t.vertices(), key=t.degree)
    lists_dict[slack] = frozenset(range(1, t.degree(slack) + 2))
    lists = ListAssignment(lists_dict)
    coloring = degree_list_coloring(t, lists)
    verify_list_coloring(t, coloring, lists)


def test_single_vertex_and_empty():
    g = Graph(vertices=["x"])
    coloring = degree_list_coloring(g, ListAssignment({"x": {5}}))
    assert coloring == {"x": 5}
    assert degree_list_coloring(Graph(), ListAssignment({})) == {}


def test_rejects_too_small_lists():
    g = classic.cycle(4)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, ListAssignment({v: {1} for v in g}))


# -- even cycles ----------------------------------------------------------------

def test_even_cycle_equal_lists():
    g = classic.cycle(8)
    lists = uniform_lists(g, 2)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_even_cycle_different_lists():
    g = classic.cycle(6)
    lists = ListAssignment(
        {0: {1, 2}, 1: {2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {5, 6}, 5: {6, 1}}
    )
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- 2-connected non-Gallai blocks ------------------------------------------------

def test_theta_graph_with_tight_lists():
    g = classic.theta_graph([2, 2, 2])
    lists = degree_lists(g)
    assert is_degree_choosable_instance(g, lists)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_complete_bipartite_with_tight_lists():
    g = classic.complete_bipartite(3, 3)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_grid_with_degree_lists():
    g = classic.grid_2d(3, 4)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_disjoint_lists_fallback():
    """Force the residual case: the two branches of a theta have disjoint palettes."""
    g = classic.theta_graph([2, 2, 2])
    lists = {}
    for v in g:
        if v in ("a", "b"):
            lists[v] = {1, 2, 3}
        else:
            lists[v] = None
    path_vertices = sorted(v for v in g if v not in ("a", "b"))
    palettes = [{1, 4}, {2, 5}, {3, 6}]
    for v, palette in zip(path_vertices, palettes):
        lists[v] = palette
    assignment = ListAssignment(lists)
    coloring = degree_list_coloring(g, assignment)
    verify_list_coloring(g, coloring, assignment)


# -- block-tree peeling -----------------------------------------------------------

def test_clique_attached_to_even_cycle():
    g = classic.cycle(6)
    g.add_edges([(0, "k1"), (0, "k2"), ("k1", "k2")])
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_gallai_tree_with_slack_vertex():
    """A Gallai tree is fine as long as one vertex has slack."""
    g = classic.gallai_tree([("clique", 4), ("odd_cycle", 5)])
    lists = {v: frozenset(range(1, g.degree(v) + 1)) for v in g}
    slack_vertex = next(iter(g))
    lists[slack_vertex] = frozenset(range(1, g.degree(slack_vertex) + 2))
    assignment = ListAssignment(lists)
    coloring = degree_list_coloring(g, assignment)
    verify_list_coloring(g, coloring, assignment)


def test_gallai_tree_tight_lists_unsolvable_raises():
    """K_4 with identical 3-lists everywhere has no coloring — a clear error."""
    g = classic.complete_graph(4)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, uniform_lists(g, 3))


def test_odd_cycle_tight_equal_lists_raises():
    g = classic.cycle(5)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, uniform_lists(g, 2))


def test_gallai_tree_tight_but_lucky_lists_still_solved():
    """A Gallai tree with tight lists that happen to admit a coloring."""
    g = classic.cycle(5)
    lists = ListAssignment({0: {1, 2}, 1: {2, 3}, 2: {3, 1}, 3: {1, 2}, 4: {2, 3}})
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- extension helper --------------------------------------------------------------

def test_extend_partial_coloring():
    g = classic.grid_2d(3, 3)
    lists = uniform_lists(g, 4)
    partial = {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    uncolored = {v for v in g if v not in partial}
    full = extend_partial_coloring(g, lists, partial, uncolored)
    verify_list_coloring(g, full, lists)
    assert all(full[v] == c for v, c in partial.items())


# -- randomized / property-based ----------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_non_gallai_graphs_with_degree_lists(seed):
    """Random 2-degenerate-ish graphs containing an even cycle are degree-choosable."""
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    g = classic.cycle(n if n % 2 == 0 else n + 1)  # even cycle core
    m = g.number_of_vertices()
    for extra in range(rng.randint(1, 5)):
        u = rng.randrange(m)
        g.add_edge(("x", extra), u)
        g.add_edge(("x", extra), (u + 1) % m)
    lists = ListAssignment(
        {v: frozenset(rng.sample(range(1, 10), g.degree(v))) for v in g}
    )
    if not is_degree_choosable_instance(g, lists):
        return
    try:
        coloring = degree_list_coloring(g, lists)
    except ColoringError:
        # allowed only if genuinely unsolvable, which the promise excludes
        raise
    verify_list_coloring(g, coloring, lists)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_planar_triangulations_with_degree_lists(seed):
    g = planar.stacked_triangulation(12, seed=seed)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- the mask solver against the label solver ---------------------------------------

#: colors whose repr order differs from their numeric order ("10" < "9")
MASK_PALETTE = (*range(1, 13), "a", ("b", 1))


@st.composite
def _slack_instances(draw):
    """A connected graph on mixed labels, with lists |L(v)| >= d(v).

    Returns ``(frozen graph, lists, inner vertices)``: the inner vertices
    induce the connected graph under test, and a few outer vertices are
    attached to them so the solver must ignore edges leaving the set.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    pool = draw(st.sampled_from(["ints", "strings", "tuples"]))
    if pool == "ints":  # multi-digit integers: repr order is not numeric order
        labels = draw(st.lists(
            st.integers(min_value=5, max_value=120), min_size=n, max_size=n,
            unique=True,
        ))
    elif pool == "strings":
        labels = [f"v{k}" for k in draw(st.permutations(range(n)))]
    else:
        labels = [(k % 3, str(k)) for k in draw(st.permutations(range(n)))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    outer = [("out", k) for k in range(draw(st.integers(min_value=0, max_value=3)))]
    order = labels + outer
    rng.shuffle(order)  # CSR index order differs from insertion and repr order
    graph = Graph()
    for v in order:
        graph.add_vertex(v)
    for k in range(1, n):  # spanning tree keeps it connected
        graph.add_edge(labels[k], labels[rng.randrange(k)])
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u, v = rng.sample(labels, 2) if n > 1 else (labels[0], labels[0])
        if u != v:
            graph.add_edge(u, v)
    tight = draw(st.booleans())  # tight lists leave at most a few slack vertices
    lists = {}
    for v in labels:
        extra = 0 if tight and rng.random() < 0.9 else rng.randint(0, 2)
        lists[v] = frozenset(rng.sample(MASK_PALETTE, graph.degree(v) + extra))
    for w in outer:
        graph.add_edge(w, rng.choice(labels))
        lists[w] = frozenset(rng.sample(MASK_PALETTE, 2))
    return graph.freeze(), ListAssignment(lists), set(labels)


@given(_slack_instances())
@settings(max_examples=150, deadline=None)
def test_mask_solver_matches_label_solver(instance):
    graph, lists, inner = instance
    flat = lists.flat
    offsets, neighbors = graph.csr_lists()
    labels = graph.vertices()
    members = sorted(graph.index_of(v) for v in inner)
    masks = [flat.mask_of(labels[i]) for i in members]
    picks = slack_coloring_on_masks(offsets, neighbors, members, masks, labels)
    sub = graph.subgraph(inner)
    has_slack = any(len(lists[v]) > sub.degree(v) for v in sub)
    if not has_slack:
        assert picks is None
        return
    expected = degree_list_coloring(sub, lists.restrict(inner))
    got = [(labels[i], flat.universe.color_of(bit)) for i, bit in picks]
    assert got == list(expected.items())  # same picks, same order


def test_mask_solver_declines_outside_the_slack_case():
    g = classic.cycle(4).freeze()
    offsets, neighbors = g.csr_lists()
    labels = g.vertices()
    members = list(range(4))
    tight = [0b11] * 4
    assert slack_coloring_on_masks(offsets, neighbors, members, tight, labels) is None
    short = [0b111, 0b1, 0b11, 0b11]  # |L(1)| < d(1)
    assert slack_coloring_on_masks(offsets, neighbors, members, short, labels) is None
    apart = [0, 2]  # not adjacent on C4: the set is disconnected
    assert slack_coloring_on_masks(offsets, neighbors, apart, [1, 1], labels) is None
    assert slack_coloring_on_masks(offsets, neighbors, [0], [0], labels) is None
    assert slack_coloring_on_masks(offsets, neighbors, [0], [0b110], labels) == [(0, 1)]


def test_root_ball_without_slack_falls_back_to_the_label_solver(monkeypatch):
    """A tight even cycle as the root ball: the flat path must take the fallback."""
    from repro.core import extension

    graph = classic.cycle(4).freeze()
    lists = uniform_lists(graph, 2)
    calls = []
    solver = extension.degree_list_coloring

    def spy(sub, sub_lists):
        calls.append(sorted(sub.vertices()))
        return solver(sub, sub_lists)

    monkeypatch.setattr(extension, "degree_list_coloring", spy)
    results = {}
    for backend in ("dict", "flat"):
        calls.clear()
        coloring, report = extension.extend_coloring_to_happy_set(
            graph, lists, happy=set(graph), rich=set(graph), coloring={},
            radius=2, d=2, backend=backend,
        )
        verify_list_coloring(graph, coloring, lists)
        assert calls == [[0, 1, 2, 3]]  # both backends solve the one ball by labels
        results[backend] = (coloring, report.ledger.by_phase(), report.rounds)
    assert results["flat"] == results["dict"]
    assert list(results["flat"][0].items()) == list(results["dict"][0].items())
