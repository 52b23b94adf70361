"""The network side of the LOCAL-model simulator.

A :class:`Network` wraps a graph (mutable :class:`~repro.graphs.graph.Graph`
or frozen :class:`~repro.graphs.frozen.FrozenGraph`): it assigns identifiers
``1..n`` to the vertices, fixes a port numbering (for every vertex, its
incident edges are numbered ``0..deg-1``), and records the mapping back to
the original vertex labels so that simulation outputs can be reported in
terms of the caller's vertices.

Internally the port numbering is materialized once per graph as a
:class:`RoutingFabric` — flat integer arrays over *directed edge slots*.
Slot ``offsets[i] + p`` is port ``p`` of the node with index ``i``
(identifier ``i + 1``); ``endpoints[slot]`` is the node index on the other
side of that port, and ``reverse_slot[slot]`` is the slot of the same edge
seen from the other endpoint.  Delivering a message sent by node ``i`` on
port ``p`` is therefore a single array read — ``reverse_slot[offsets[i]+p]``
names the receiver's inbox slot — instead of the two dict hops
(``neighbor_on_port`` + ``port_towards``) of the dict-routed engine.

For a frozen graph with the default identifier order, the port tables are
read zero-copy off the CSR arrays: identifiers follow the vertex indices and
each CSR neighbour slice is already sorted by index, hence by identifier —
no per-vertex sort is needed, and ``reverse_slot`` is one argsort of the
endpoints when numpy is available (:func:`fabric_from_arrays`).

Everything else is built on first read: the fabric's Python-list views,
the identifier dicts (:attr:`Network.identifier_of`,
:attr:`Network.vertex_of`) and the dict-based lookup API
(:attr:`Network.ports`, :meth:`neighbor_on_port`, :meth:`port_towards`),
kept for the per-node engines, callers and tests.  A batched run reads
only arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import cached_property
from typing import Any

from repro.graphs.frozen import HAS_NUMPY, FrozenGraph, GraphLike
from repro.graphs.graph import Vertex

if HAS_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised on numpy-less installs
    _np = None

__all__ = ["Network", "RoutingFabric", "fabric_from_arrays"]


class RoutingFabric:
    """Flat-array routing tables of a port-numbered network.

    The ``int64`` numpy arrays (``offsets_np``, ``endpoints_np``,
    ``reverse_np``, ``degrees_np``) are the batched engine's data plane and
    exist from construction when numpy is available.  The plain Python list
    views (``offsets``, ``endpoints``, ``reverse_slot``, ``degrees``) serve
    the scalar-indexing readers — the per-node round loop, the fault engine
    and the ``ports``/``port_of`` tables — and are built on first read:
    from the arrays, or from a frozen graph's cached ``csr_lists()`` when
    the fabric is read zero-copy off its CSR.  A fabric built from lists
    (the general path, or a numpy-less install) keeps them as given.

    Attributes
    ----------
    n:
        Number of nodes; node ``i`` has identifier ``i + 1``.
    num_slots:
        Number of directed edge slots (``2m``).
    offsets / offsets_np:
        ``offsets[i] .. offsets[i+1]`` delimits node ``i``'s port slots.
    endpoints / endpoints_np:
        ``endpoints[slot]`` is the node index reached through that slot.
    reverse_slot / reverse_np:
        The same edge seen from the other side: an involution with
        ``endpoints[reverse_slot[k]] == src(k)``.
    degrees / degrees_np:
        Per-node degrees (``offsets`` differences).
    """

    def __init__(
        self,
        offsets,
        endpoints,
        reverse_slot,
        *,
        sources_np=None,
        csr_lists=None,
    ) -> None:
        """``offsets``/``endpoints``/``reverse_slot`` are lists or arrays.

        ``csr_lists`` optionally returns the ``(offsets, endpoints)`` list
        views (a frozen graph's cached :meth:`~FrozenGraph.csr_lists`), so
        the fabric shares them instead of converting its own copies.
        """
        self.n = len(offsets) - 1
        self.num_slots = len(endpoints)
        self.has_numpy = HAS_NUMPY
        self._csr_lists = csr_lists
        self._sources_np = sources_np
        if isinstance(offsets, list):  # the given lists are the list views
            self.offsets, self.endpoints = offsets, endpoints
            self.reverse_slot = reverse_slot
        if HAS_NUMPY:
            self.offsets_np = _np.asarray(offsets, dtype=_np.int64)
            self.endpoints_np = _np.asarray(endpoints, dtype=_np.int64)
            self.reverse_np = _np.asarray(reverse_slot, dtype=_np.int64)
            self.degrees_np = _np.diff(self.offsets_np)
        else:  # pragma: no cover - exercised on numpy-less installs
            self.offsets_np = self.endpoints_np = self.reverse_np = None
            self.degrees_np = None

    @cached_property
    def offsets(self) -> list[int]:
        return self._csr_lists()[0] if self._csr_lists else self.offsets_np.tolist()

    @cached_property
    def endpoints(self) -> list[int]:
        return self._csr_lists()[1] if self._csr_lists else self.endpoints_np.tolist()

    @cached_property
    def reverse_slot(self) -> list[int]:
        return self.reverse_np.tolist()

    @cached_property
    def degrees(self) -> list[int]:
        if self.degrees_np is not None:
            return self.degrees_np.tolist()
        offsets = self.offsets
        return [offsets[i + 1] - offsets[i] for i in range(self.n)]

    def sources_np(self):
        """Per-slot source node index (``sources[offsets[i]+p] == i``), cached.

        The natural companion of ``endpoints`` for batched programs
        ("broadcast my value on every port" is ``values[sources]``).
        Numpy backend only; ``None`` without numpy.
        """
        if self._sources_np is None and self.has_numpy:
            self._sources_np = _np.repeat(
                _np.arange(self.n, dtype=_np.int64), self.degrees_np
            )
        return self._sources_np


def _reverse_slots_python(offsets: list[int], endpoints: list[int]) -> list[int]:
    """``reverse_slot`` by per-slot binary search in the sorted slices."""
    n = len(offsets) - 1
    reverse = [0] * len(endpoints)
    for i in range(n):
        for k in range(offsets[i], offsets[i + 1]):
            j = endpoints[k]
            reverse[k] = bisect_left(endpoints, i, offsets[j], offsets[j + 1])
    return reverse


def fabric_from_arrays(offsets_np, endpoints_np, csr_lists=None) -> RoutingFabric:
    """Fabric of ``int64`` slot tables whose port slices are sorted by endpoint.

    Node ``j`` receives on exactly ``deg(j)`` slots, so a stable argsort of
    ``endpoints`` lists, from position ``offsets[j]`` on, the slots
    ``i -> j`` in increasing ``i`` — the same order as ``j``'s own ports
    ``j -> i``.  Hence ``reverse_slot`` *is* that argsort.  It is taken as
    the argsort of the distinct ``(endpoint, source)`` keys, which orders
    the slots identically and lets numpy use its faster unstable sort.
    """
    n = len(offsets_np) - 1
    sources = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(offsets_np))
    reverse_np = _np.argsort(endpoints_np * n + sources)
    return RoutingFabric(
        offsets_np, endpoints_np, reverse_np,
        sources_np=sources, csr_lists=csr_lists,
    )


class Network:
    """A port-numbered network over an input graph.

    By default identifiers are ``1..n`` following the graph's vertex order
    (``identifier_order`` permutes that assignment).  Two keyword-only
    extensions support *truncated* networks — the locality auditor of
    :mod:`repro.verify.locality` re-runs node programs on r-ball subgraphs
    that must be indistinguishable from the full network:

    * ``identifiers`` — an explicit vertex -> identifier mapping (distinct
      positive ints, not necessarily ``1..n``).  Ports still enumerate
      neighbours in increasing identifier order, so an interior vertex of a
      ball subgraph sees the exact port numbering it had in the full graph.
    * ``declared_n`` — the value of ``n`` announced to the node programs
      (:attr:`n`), defaulting to the actual vertex count.  Algorithms whose
      schedules depend on ``n`` (Cole–Vishkin iterations, Linial parameter
      triples) then behave as if they ran in the full network.
    """

    def __init__(
        self,
        graph: GraphLike,
        identifier_order: list[Vertex] | None = None,
        *,
        identifiers: Mapping[Vertex, int] | None = None,
        declared_n: int | None = None,
    ):
        self.graph = graph
        self._explicit_ids: dict[Vertex, int] | None = None
        if identifiers is not None:
            if identifier_order is not None:
                raise ValueError("pass identifier_order or identifiers, not both")
            if set(identifiers) != set(graph.vertices()):
                raise ValueError("identifiers must cover exactly the vertices")
            ids = {v: int(i) for v, i in identifiers.items()}
            if len(set(ids.values())) != len(ids) or (ids and min(ids.values()) < 1):
                raise ValueError("identifiers must be distinct positive integers")
            # ports enumerate neighbours by increasing identifier, exactly
            # like the default 1..n assignment enumerates them by index
            order = sorted(ids, key=ids.__getitem__)
            self._explicit_ids = ids
            self._default_order = False
        elif identifier_order is None:
            order = graph.vertices()
            self._default_order = True
        else:
            order = list(identifier_order)
            # a repeated vertex keeps the set intact, so check the length too
            if len(order) != graph.number_of_vertices() or set(order) != set(
                graph.vertices()
            ):
                raise ValueError("identifier_order must be a permutation of the vertices")
            self._default_order = False
        self._order: list[Vertex] = order
        if declared_n is None:
            self.declared_n = len(order)
        else:
            self.declared_n = int(declared_n)
            if self.declared_n < len(order):
                raise ValueError("declared_n must be at least the vertex count")
        if self._explicit_ids and max(self._explicit_ids.values()) > self.declared_n:
            raise ValueError("identifiers must lie in 1..declared_n")
        self._fabric: RoutingFabric | None = None
        self._ports: dict[Vertex, list[Vertex]] | None = None
        self._port_of: dict[Vertex, dict[Vertex, int]] | None = None
        self._identifiers_np = None

    # ------------------------------------------------------------------
    # Identifier views, built on first read: a batched run needs none of
    # them (identifiers are 1..n by node index unless ``identifiers`` says
    # otherwise)
    # ------------------------------------------------------------------
    @cached_property
    def identifier_of(self) -> dict[Vertex, int]:
        """Vertex -> identifier."""
        if self._explicit_ids is not None:
            return self._explicit_ids
        return {v: i for i, v in enumerate(self._order, 1)}

    @cached_property
    def vertex_of(self) -> dict[int, Vertex]:
        """Identifier -> vertex."""
        return {i: v for v, i in self.identifier_of.items()}

    @cached_property
    def _index(self) -> dict[Vertex, int]:
        """Vertex -> node index."""
        return {v: i for i, v in enumerate(self._order)}

    @cached_property
    def identifiers_list(self) -> list[int]:
        """Identifiers by node index."""
        if self._explicit_ids is None:
            return list(range(1, len(self._order) + 1))
        return [self._explicit_ids[v] for v in self._order]

    # ------------------------------------------------------------------
    # Flat-array data plane
    # ------------------------------------------------------------------
    @property
    def labels(self) -> list[Vertex]:
        """Vertex labels by node index (``labels[i]`` has identifier ``i+1``)."""
        return self._order

    @property
    def fabric(self) -> RoutingFabric:
        """The routing fabric, built once per network on first use."""
        if self._fabric is None:
            self._fabric = self._build_fabric()
        return self._fabric

    @property
    def identifiers_np(self):
        """``identifiers_list`` as a cached ``int64`` array (numpy only)."""
        if self._identifiers_np is None and HAS_NUMPY:
            if self._explicit_ids is None:
                self._identifiers_np = _np.arange(
                    1, len(self._order) + 1, dtype=_np.int64
                )
            else:
                self._identifiers_np = _np.asarray(
                    self.identifiers_list, dtype=_np.int64
                )
        return self._identifiers_np

    def _build_fabric(self) -> RoutingFabric:
        graph = self.graph
        if self._default_order and isinstance(graph, FrozenGraph):
            # zero-copy fast path: identifiers follow the CSR vertex indices
            # and each neighbour slice is already sorted by index
            offsets, neighbors = graph.csr_arrays()
            if graph._use_numpy:
                return fabric_from_arrays(offsets, neighbors, graph.csr_lists)
            return RoutingFabric(
                offsets, neighbors, _reverse_slots_python(offsets, neighbors)
            )
        # general path: sort each neighbourhood by identifier
        index = self._index
        offsets_list = [0] * (len(self._order) + 1)
        endpoints_list: list[int] = []
        for i, v in enumerate(self._order):
            endpoints_list.extend(sorted(index[u] for u in self.graph.neighbors(v)))
            offsets_list[i + 1] = len(endpoints_list)
        reverse = _reverse_slots_python(offsets_list, endpoints_list)
        return RoutingFabric(offsets_list, endpoints_list, reverse)

    # ------------------------------------------------------------------
    # Dict-based lookup API (lazy views over the fabric)
    # ------------------------------------------------------------------
    @property
    def ports(self) -> dict[Vertex, list[Vertex]]:
        """Per-vertex neighbour labels in port order (lazy)."""
        if self._ports is None:
            offsets, endpoints = self.fabric.offsets, self.fabric.endpoints
            order = self._order
            self._ports = {
                v: [order[j] for j in endpoints[offsets[i] : offsets[i + 1]]]
                for i, v in enumerate(order)
            }
        return self._ports

    @property
    def port_of(self) -> dict[Vertex, dict[Vertex, int]]:
        """Inverse port tables ``v -> {neighbor: port}`` (lazy)."""
        if self._port_of is None:
            self._port_of = {
                v: {u: p for p, u in enumerate(nbrs)}
                for v, nbrs in self.ports.items()
            }
        return self._port_of

    @property
    def n(self) -> int:
        """The ``n`` known to every node (``declared_n``; the vertex count by default)."""
        return self.declared_n

    def degree(self, v: Vertex) -> int:
        return len(self.ports[v])

    def neighbor_on_port(self, v: Vertex, port: int) -> Vertex:
        neighbors = self.ports[v]
        if not 0 <= port < len(neighbors):
            raise IndexError(f"vertex {v!r} has no port {port}")
        return neighbors[port]

    def port_towards(self, v: Vertex, neighbor: Vertex) -> int:
        return self.port_of[v][neighbor]

    # ------------------------------------------------------------------
    # Input translation
    # ------------------------------------------------------------------
    def translate_inputs(
        self, inputs: Mapping[Vertex, Any] | Any | None
    ) -> dict[Vertex, Any]:
        """Normalize per-vertex inputs (missing vertices get ``None``).

        Accepts either a vertex-keyed mapping or a sequence/array aligned
        with the node index order (``labels``) — the flat data plane hands
        inputs around as arrays, the dict engines as mappings.
        """
        if inputs is None:
            return {v: None for v in self.graph}
        if isinstance(inputs, Mapping):
            inputs = dict(inputs)
            return {v: inputs.get(v) for v in self.graph}
        if len(inputs) != len(self._order):
            raise ValueError("sequence inputs must have one entry per vertex")
        index = self._index
        return {v: inputs[index[v]] for v in self.graph}

    def inputs_list(self, inputs: Mapping[Vertex, Any] | Any | None):
        """Per-node inputs by node index (missing vertices get ``None``).

        Mapping inputs are spread by vertex label; sequence/array inputs
        are taken as already index-aligned and returned as-is (arrays stay
        arrays — the batched programs consume them zero-copy).
        """
        if inputs is None:
            return [None] * len(self._order)
        if isinstance(inputs, Mapping):
            if not inputs:
                return [None] * len(self._order)
            return [inputs.get(v) for v in self._order]
        if len(inputs) != len(self._order):
            raise ValueError("sequence inputs must have one entry per vertex")
        return inputs
