"""The mutable-topology adapter over :class:`~repro.local.network.Network`.

A :class:`PerturbableNetwork` owns the ground-truth adjacency of a
dynamic run.  The vertex set (and hence the identifier assignment
``1..n`` in vertex order) is fixed at construction; edges come and go
between rounds.  After each batch of edits the engine reads
:attr:`PerturbableNetwork.network` and gets a fresh, consistent
port-numbered :class:`~repro.local.network.Network` whose routing
fabric reflects the current topology — ports renumber exactly as the
LOCAL model prescribes (neighbours enumerated by increasing
identifier).

Two backends build that fabric, mirroring the dict/flat split of the
static engine:

* ``dict`` — rebuild through :class:`Network`'s general path (python
  lists, per-slot bisection for ``reverse_slot``); the reference.
* ``flat`` — patch the edge-slot tables directly: the maintained
  per-node sorted adjacency is flattened into ``offsets``/``endpoints``
  int64 arrays and ``reverse_slot`` is recovered with one argsort of the
  endpoints (:func:`~repro.local.network.fabric_from_arrays`, shared
  with the frozen CSR fast path).  Falls back to the dict build when
  numpy is unavailable.

The parity tests assert both backends produce identical tables after
identical edit sequences, which is what licenses the flat backend in
the benchmarked scenarios.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.errors import GraphError
from repro.graphs.frozen import HAS_NUMPY, FrozenGraph, GraphLike, freeze
from repro.graphs.graph import Graph, Vertex
from repro.local.network import (
    Network,
    RoutingFabric,
    _reverse_slots_python,
    fabric_from_arrays,
)

__all__ = ["PerturbableNetwork"]

BACKENDS = ("dict", "flat")


class PerturbableNetwork:
    """Fixed vertex set, editable edge set, rebuildable port tables."""

    def __init__(self, graph: GraphLike, *, backend: str = "flat"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        self.backend = backend
        self.labels: list[Vertex] = list(graph.vertices())
        if not self.labels:
            raise GraphError("PerturbableNetwork needs at least one vertex")
        self._index: dict[Vertex, int] = {v: i for i, v in enumerate(self.labels)}
        # ground truth: per-node neighbour indices, kept sorted ascending
        # (index order == identifier order, so slices are already in port
        # order and both fabric builds read them verbatim)
        self._adj: list[list[int]] = [
            sorted(self._index[u] for u in graph.neighbors(v)) for v in self.labels
        ]
        self.version = 0
        self._network: Network | None = None
        self._network_version = -1

    # ------------------------------------------------------------------
    # topology queries / edits
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, v: Vertex) -> int | None:
        return self._index.get(v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j:
            return False
        return self._has_edge_idx(i, j)

    def _has_edge_idx(self, i: int, j: int) -> bool:
        row = self._adj[i]
        pos = bisect_left(row, j)
        return pos < len(row) and row[pos] == j

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert ``{u, v}``; False when inapplicable (present, loop, unknown)."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j or self._has_edge_idx(i, j):
            return False
        insort(self._adj[i], j)
        insort(self._adj[j], i)
        self.version += 1
        return True

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete ``{u, v}``; False when the edge is not currently present."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j or not self._has_edge_idx(i, j):
            return False
        self._adj[i].remove(j)
        self._adj[j].remove(i)
        self.version += 1
        return True

    def degree_of_index(self, i: int) -> int:
        return len(self._adj[i])

    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """Current edges as label pairs, canonically ordered by index."""
        return [
            (self.labels[i], self.labels[j])
            for i, row in enumerate(self._adj)
            for j in row
            if i < j
        ]

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        """A mutable :class:`Graph` snapshot of the current topology."""
        return Graph(vertices=self.labels, edges=self.edges(), name="perturbed")

    def frozen(self) -> FrozenGraph:
        """A frozen CSR snapshot (oracle-side distance/legality checks)."""
        return freeze(self.graph())

    # ------------------------------------------------------------------
    # the Network view
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The current port-numbered network, rebuilt lazily after edits."""
        if self._network is None or self._network_version != self.version:
            self._network = self._build_network()
            self._network_version = self.version
        return self._network

    def _build_network(self) -> Network:
        network = Network(self.graph())
        if self.backend == "flat" and HAS_NUMPY:
            network._fabric = self._flat_fabric()
        else:
            network._fabric = self._dict_fabric()
        return network

    def _dict_fabric(self) -> RoutingFabric:
        offsets = [0] * (self.n + 1)
        endpoints: list[int] = []
        for i, row in enumerate(self._adj):
            endpoints.extend(row)
            offsets[i + 1] = len(endpoints)
        reverse = _reverse_slots_python(offsets, endpoints)
        return RoutingFabric(offsets, endpoints, reverse)

    def _flat_fabric(self) -> RoutingFabric:
        import numpy as np

        n = self.n
        degrees = np.fromiter(
            (len(row) for row in self._adj), dtype=np.int64, count=n
        )
        offsets_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets_np[1:])
        num_slots = int(offsets_np[-1])
        endpoints_np = np.fromiter(
            (j for row in self._adj for j in row), dtype=np.int64, count=num_slots
        )
        return fabric_from_arrays(offsets_np, endpoints_np)
