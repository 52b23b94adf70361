"""Tests for ruling forests, H-partitions, Barenboim–Elkin and GPS baselines."""

import pytest

from repro.coloring.verification import verify_coloring
from repro.errors import ColoringError, SimulationError
from repro.graphs.generators import classic, planar, sparse
from repro.distributed import (
    barenboim_elkin_coloring,
    gps_coloring,
    h_partition,
    orientation_from_partition,
    peel_low_degree_layers,
    ruling_forest,
    ruling_set,
)


# -- ruling sets / forests -------------------------------------------------------

def test_ruling_set_separation_and_domination():
    g = classic.grid_2d(8, 8)
    subset = set(g.vertices())
    alpha = 3
    ruling, rounds = ruling_set(g, subset, alpha)
    assert ruling
    assert rounds > 0
    # pairwise distance >= alpha
    for r in ruling:
        dist = g.bfs_distances(r, radius=alpha - 1)
        assert all(other not in dist for other in ruling if other != r)


def test_ruling_forest_ledger_matches_its_rounds():
    """The merges of one identifier bit run in parallel: alpha rounds per bit."""
    g = planar.stacked_triangulation(400, seed=3).freeze()
    subset = set(g.vertices()[::3])
    for engine in ("csr", "labels"):
        forest = ruling_forest(g, subset, 4, engine=engine)
        assert forest.rounds == 72
        assert forest.ledger.total() == forest.rounds


def test_ruling_set_empty_subset():
    g = classic.cycle(5)
    ruling, rounds = ruling_set(g, set(), 2)
    assert ruling == set()
    assert rounds == 0


@pytest.mark.parametrize("alpha", [2, 4, 7])
def test_ruling_forest_invariants(alpha):
    g = planar.delaunay_triangulation(80, seed=1)
    subset = {v for v in g if g.degree(v) <= 6}
    forest = ruling_forest(g, subset, alpha)
    # (1) every subset vertex is in some tree
    assert subset <= forest.vertices()
    # (2) roots pairwise at distance >= alpha
    for r in forest.roots:
        dist = g.bfs_distances(r, radius=alpha - 1)
        assert all(other not in dist for other in forest.roots if other != r)
    # (3) depth bounded by beta and parent pointers consistent
    for v, parent in forest.parent.items():
        if parent is None:
            assert forest.depth[v] == 0
            assert v in forest.roots
        else:
            assert g.has_edge(v, parent)
            assert forest.depth[v] == forest.depth[parent] + 1
            assert forest.tree_of[v] == forest.tree_of[parent]
        assert forest.depth[v] <= forest.beta
    # trees are vertex-disjoint by construction (parent map is a function)
    members = forest.tree_members()
    assert sum(len(m) for m in members.values()) + 0 == len(forest.tree_of) - 0 >= len(subset)


def test_ruling_forest_on_disconnected_graph():
    g = classic.random_tree(20, seed=2)
    other = classic.random_tree(10, seed=3).relabeled({i: ("b", i) for i in range(10)})
    for v in other.vertices():
        g.add_vertex(v)
    for u, v in other.edges():
        g.add_edge(u, v)
    subset = set(g.vertices())
    forest = ruling_forest(g, subset, 3)
    assert subset <= forest.vertices()
    # at least one root per connected component
    roots_components = {
        frozenset(g.subgraph(g.ball(r, len(g))).vertices()) for r in forest.roots
    }
    assert len(roots_components) == 2


# -- H-partition -----------------------------------------------------------------

def test_h_partition_degree_bound():
    g = sparse.union_of_random_forests(100, 2, seed=4)
    partition = h_partition(g, arboricity=2, epsilon=1.0)
    bound = partition.degree_bound
    for i, cls in enumerate(partition.classes):
        later = set().union(*partition.classes[i:])
        for v in cls:
            assert sum(1 for u in g.neighbors(v) if u in later) <= bound
    assert partition.number_of_classes >= 1
    assert sum(len(c) for c in partition.classes) == g.number_of_vertices()


def test_h_partition_underestimated_arboricity_raises():
    g = classic.complete_graph(12)  # arboricity 6
    with pytest.raises(SimulationError):
        h_partition(g, arboricity=1, epsilon=0.5)


def test_h_partition_number_of_classes_logarithmic():
    g = sparse.union_of_random_forests(400, 2, seed=5)
    partition = h_partition(g, arboricity=2, epsilon=1.0)
    assert partition.number_of_classes <= 30  # O(log n) with a generous constant


def test_orientation_from_partition_out_degree():
    g = sparse.union_of_random_forests(80, 3, seed=6)
    partition = h_partition(g, arboricity=3, epsilon=1.0)
    out = orientation_from_partition(g, partition)
    assert max(len(v) for v in out.values()) <= partition.degree_bound
    assert sum(len(v) for v in out.values()) == g.number_of_edges()


# -- Barenboim–Elkin ----------------------------------------------------------------

@pytest.mark.parametrize("a", [2, 3])
def test_barenboim_elkin_coloring(a):
    g = sparse.union_of_random_forests(80, a, seed=7)
    result = barenboim_elkin_coloring(g, arboricity=a, epsilon=1.0)
    verify_coloring(g, result.coloring)
    assert result.colors_used <= result.palette_size == 3 * a + 1
    assert result.rounds > 0


def test_barenboim_elkin_uses_more_colors_than_2a_palette():
    """The baseline's palette exceeds 2a — the gap Corollary 1.4 closes."""
    a = 2
    g = sparse.union_of_random_forests(60, a, seed=8)
    result = barenboim_elkin_coloring(g, arboricity=a, epsilon=1.0)
    assert result.palette_size > 2 * a


def test_barenboim_elkin_empty():
    from repro.graphs import Graph

    assert barenboim_elkin_coloring(Graph(), 2).coloring == {}


# -- GPS -----------------------------------------------------------------------------

def test_peel_low_degree_layers_planar():
    g = planar.delaunay_triangulation(100, seed=9)
    layers, ledger = peel_low_degree_layers(g, 6)
    assert sum(len(layer) for layer in layers) == 100
    assert ledger.total() == len(layers)
    # planar graphs lose a constant fraction per layer -> few layers
    assert len(layers) <= 20


def test_peel_low_degree_layers_stall():
    g = classic.complete_graph(9)
    with pytest.raises(ColoringError):
        peel_low_degree_layers(g, 6)


@pytest.mark.parametrize("seed", [0, 1])
def test_gps_seven_coloring_planar(seed):
    g = planar.stacked_triangulation(80, seed=seed)
    result = gps_coloring(g, degree_threshold=6)
    verify_coloring(g, result.coloring)
    assert result.colors_used <= 7
    assert result.palette_size == 7


def test_gps_on_trees_with_threshold_1():
    t = classic.random_tree(50, seed=10)
    result = gps_coloring(t, degree_threshold=1)
    verify_coloring(t, result.coloring)
    assert result.colors_used <= 2


def test_gps_empty():
    from repro.graphs import Graph

    assert gps_coloring(Graph()).coloring == {}
