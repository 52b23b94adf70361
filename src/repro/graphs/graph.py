"""A lightweight undirected simple-graph data structure.

The library uses its own :class:`Graph` class rather than a raw
``networkx.Graph`` for three reasons:

* the LOCAL-model simulator needs stable, explicit vertex identifiers and a
  cheap way to take induced subgraphs and balls without copying attribute
  dictionaries;
* most algorithms in the paper repeatedly query adjacency sets and degrees,
  which are fastest on plain ``dict[vertex, set]`` storage;
* graph generators want to attach light metadata (planar coordinates,
  embedding faces, the surface the graph lives on) without the overhead of
  per-edge attribute dicts.

Conversion to and from ``networkx`` is provided (:meth:`Graph.to_networkx`,
:meth:`Graph.from_networkx`) for algorithms where networkx already offers a
well-tested implementation (planarity testing, isomorphism, max-flow).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

import networkx as nx

from repro.errors import GraphError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

__all__ = ["Graph", "Vertex", "Edge"]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Vertices may be any hashable object.  Self-loops and parallel edges are
    rejected, matching the setting of the paper (simple graphs).

    ``Graph`` is the *mutable* representation: cheap to build and edit, but
    every adjacency query pays for hashing.  Read-heavy pipelines (degeneracy
    peeling, ball collection, the LOCAL simulator, anything at n >= a few
    thousand) should call :meth:`freeze` once construction is done and hand
    the resulting :class:`~repro.graphs.frozen.FrozenGraph` — an immutable
    CSR snapshot with O(1) degrees, array-backed neighbour slices, vectorized
    BFS/subgraphs and cached global statistics — to the algorithm.  Freezing
    is one flattening pass over the adjacency sets plus one O(m log m) array
    sort (about 0.1 s at n = 10^5, m = 2 * 10^5 on the numpy backend);
    ``FrozenGraph.thaw()`` converts back when mutation is needed again.  Algorithms in :mod:`repro.graphs.properties`,
    :mod:`repro.core` and :mod:`repro.local` accept either representation.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs; endpoints are added
        automatically.
    name:
        Optional human-readable name used in ``repr`` and experiment tables.
    """

    __slots__ = ("_adj", "name", "metadata")

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[Edge] | None = None,
        name: str = "",
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self.name = name
        self.metadata: dict[str, Any] = dict(metadata or {})
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v`` (a no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        for v in vertices:
            self.add_vertex(v)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the edge ``{u, v}``, adding missing endpoints.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loops are not allowed).
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from exc

    def remove_vertex(self, v: Vertex) -> None:
        try:
            neighbors = self._adj.pop(v)
        except KeyError as exc:
            raise GraphError(f"vertex {v!r} not in graph") from exc
        for u in neighbors:
            self._adj[u].discard(v)

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        for v in list(vertices):
            self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Graph{label} n={self.number_of_vertices()} "
            f"m={self.number_of_edges()}>"
        )

    def vertices(self) -> list[Vertex]:
        """Return the vertices in insertion order."""
        return list(self._adj)

    def edges(self) -> list[Edge]:
        """Return each edge exactly once (endpoints in discovery order).

        Deduplication compares the insertion indices of the endpoints
        instead of allocating a ``frozenset`` per edge: every edge ``{u, v}``
        is reported from its earlier-inserted endpoint.
        """
        index = {v: i for i, v in enumerate(self._adj)}
        result: list[Edge] = []
        for u, nbrs in self._adj.items():
            iu = index[u]
            for v in nbrs:
                if iu < index[v]:
                    result.append((u, v))
        return result

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the neighbour set of ``v`` (a copy is *not* made)."""
        try:
            return self._adj[v]
        except KeyError as exc:
            raise GraphError(f"vertex {v!r} not in graph") from exc

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> dict[Vertex, int]:
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def min_degree(self) -> int:
        if not self._adj:
            return 0
        return min(len(nbrs) for nbrs in self._adj.values())

    def number_of_vertices(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def average_degree(self) -> float:
        """Average degree ``2|E|/|V|`` (0 for the empty graph)."""
        n = self.number_of_vertices()
        if n == 0:
            return 0.0
        return 2.0 * self.number_of_edges() / n

    def is_empty(self) -> bool:
        return not self._adj

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph(name=self.name, metadata=self.metadata)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Vertices not present in the graph are silently ignored, which is
        convenient when intersecting vertex sets coming from different
        peeling layers.
        """
        keep = {v for v in vertices if v in self._adj}
        g = Graph(name=self.name, metadata=self.metadata)
        g._adj = {v: self._adj[v] & keep for v in keep}
        return g

    def connected_components(self) -> list[set[Vertex]]:
        """Return the vertex sets of the connected components."""
        seen: set[Vertex] = set()
        components: list[set[Vertex]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in component:
                        component.add(w)
                        queue.append(w)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    def bfs_distances(
        self, source: Vertex, radius: int | None = None
    ) -> dict[Vertex, int]:
        """Breadth-first distances from ``source`` (optionally truncated).

        Parameters
        ----------
        source:
            Start vertex.
        radius:
            If given, only vertices at distance at most ``radius`` are
            returned.
        """
        if source not in self._adj:
            raise GraphError(f"vertex {source!r} not in graph")
        distances = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = distances[u]
            if radius is not None and du >= radius:
                continue
            for w in self._adj[u]:
                if w not in distances:
                    distances[w] = du + 1
                    queue.append(w)
        return distances

    def ball(self, center: Vertex, radius: int) -> set[Vertex]:
        """Return ``B_r(center)``: vertices at distance at most ``radius``."""
        return set(self.bfs_distances(center, radius))

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def freeze(self, use_numpy: bool | None = None):
        """Return an immutable CSR snapshot (:class:`~repro.graphs.frozen.FrozenGraph`).

        Freeze once at the boundary between construction and computation:
        the frozen view answers degree/neighbour/subgraph/ball queries from
        flat arrays and caches global statistics (degeneracy order, core
        numbers, greedy mad bound) across calls.  ``use_numpy=False`` forces
        the pure-Python array backend (mainly for tests).
        """
        from repro.graphs.frozen import FrozenGraph

        return FrozenGraph.from_graph(self, use_numpy=use_numpy)

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: nx.Graph, name: str = "") -> "Graph":
        graph = cls(name=name or str(g.name or ""))
        graph.add_vertices(g.nodes())
        graph.add_edges(g.edges())
        return graph

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], name: str = "") -> "Graph":
        return cls(edges=edges, name=name)

    # ------------------------------------------------------------------
    # Relabeling
    # ------------------------------------------------------------------
    def relabel_to_integers(self) -> tuple["Graph", dict[Vertex, int]]:
        """Relabel vertices as ``1..n`` (the identifier space of the paper).

        Returns the relabelled graph and the mapping ``old -> new``.  The
        LOCAL model of the paper assumes identifiers are integers between 1
        and n; generators often use tuples (grid coordinates), so the
        simulator relabels before running.
        """
        mapping = {v: i + 1 for i, v in enumerate(self._adj)}
        g = Graph(name=self.name, metadata=self.metadata)
        for v in self._adj:
            g.add_vertex(mapping[v])
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g, mapping

    def relabeled(self, mapping: Mapping[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertices renamed through ``mapping``."""
        g = Graph(name=self.name, metadata=self.metadata)
        for v in self._adj:
            g.add_vertex(mapping.get(v, v))
        for u, v in self.edges():
            g.add_edge(mapping.get(u, u), mapping.get(v, v))
        return g

    # ------------------------------------------------------------------
    # Equality (used heavily by tests)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)
