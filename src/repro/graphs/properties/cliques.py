"""Clique detection.

Theorem 1.3 promises either a d-list-coloring or a ``(d+1)``-clique; the
algorithm therefore needs to *find* such a clique when it exists.  In the
LOCAL model this costs 2 rounds (each vertex inspects its radius-2 ball);
sequentially we search each closed neighbourhood, which is fast because the
graphs of interest have small maximum average degree (a (d+1)-clique can
only live inside the closed neighbourhood of a vertex of degree >= d).
"""

from __future__ import annotations

from itertools import combinations

from repro.graphs.graph import Graph, Vertex
from repro.graphs.properties.degeneracy import degeneracy

__all__ = ["find_clique_of_size", "is_clique", "max_clique_greedy"]


def is_clique(graph: Graph, vertices) -> bool:
    """Whether ``vertices`` induce a complete subgraph of ``graph``."""
    vs = list(vertices)
    return all(graph.has_edge(u, v) for u, v in combinations(vs, 2))


def find_clique_of_size(graph: Graph, size: int) -> tuple[Vertex, ...] | None:
    """Find a clique on exactly ``size`` vertices, or return ``None``.

    A clique on ``size`` vertices lies in the ``(size - 1)``-core, so a
    graph of smaller degeneracy (one cached peel on a frozen graph) has
    none and the search is skipped.  Otherwise the search enumerates, for
    every vertex ``v`` of degree at least ``size - 1``, the subsets of
    ``size - 1`` neighbours of ``v`` restricted to neighbours that
    themselves have degree at least ``size - 1``.  For sparse graphs
    (bounded mad) the neighbourhoods are small, so this is fast; the
    enumeration is additionally pruned by a greedy intersection test.
    """
    if size <= 0:
        return ()
    if size == 1:
        for v in graph:
            return (v,)
        return None
    if size == 2:
        for u, v in graph.edges():
            return (u, v)
        return None
    if degeneracy(graph) < size - 1:
        return None
    candidates = {v for v in graph if graph.degree(v) >= size - 1}
    for v in candidates:
        nbrs = [u for u in graph.neighbors(v) if u in candidates]
        if len(nbrs) < size - 1:
            continue
        found = _clique_in_neighborhood(graph, nbrs, size - 1)
        if found is not None:
            return (v, *found)
    return None


def _clique_in_neighborhood(
    graph: Graph, candidates: list[Vertex], size: int
) -> tuple[Vertex, ...] | None:
    """Find a clique of the given size inside ``candidates`` (backtracking)."""
    candidates = list(candidates)

    def extend(clique: list[Vertex], pool: list[Vertex]) -> tuple[Vertex, ...] | None:
        if len(clique) == size:
            return tuple(clique)
        if len(clique) + len(pool) < size:
            return None
        for i, u in enumerate(pool):
            new_pool = [w for w in pool[i + 1 :] if graph.has_edge(u, w)]
            result = extend(clique + [u], new_pool)
            if result is not None:
                return result
        return None

    return extend([], candidates)


def max_clique_greedy(graph: Graph, attempts: int = 8) -> tuple[Vertex, ...]:
    """A greedy lower bound on the maximum clique (not exact).

    Used only for reporting in experiment tables; correctness of the
    algorithms never depends on it.
    """
    best: tuple[Vertex, ...] = ()
    vertices = sorted(graph, key=graph.degree, reverse=True)
    for start_index in range(min(attempts, len(vertices))):
        v = vertices[start_index]
        clique = [v]
        pool = sorted(graph.neighbors(v), key=graph.degree, reverse=True)
        for u in pool:
            if all(graph.has_edge(u, w) for w in clique):
                clique.append(u)
        if len(clique) > len(best):
            best = tuple(clique)
    return best
