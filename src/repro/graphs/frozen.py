"""An immutable, integer-indexed CSR view of a :class:`~repro.graphs.graph.Graph`.

Every hot read path of the library (degeneracy peeling, ball collection,
rich-subgraph extraction, the LOCAL simulator's port tables) ultimately asks
the same three questions — "what is the degree of v", "who are the
neighbours of v", "what is the induced subgraph on S" — and the
``dict[vertex, set]`` storage of :class:`Graph` answers them with hashing
and per-edge allocations.  :class:`FrozenGraph` answers them from two flat
arrays in *compressed sparse row* (CSR) form:

* ``offsets`` — ``offsets[i] .. offsets[i+1]`` delimits the neighbour slice
  of the vertex with index ``i`` (so ``degree(i)`` is a subtraction);
* ``neighbors`` — the concatenated, per-vertex-sorted neighbour indices.

Vertex labels stay fully general (any hashable): a frozen graph stores the
label list (index ``->`` label) and the inverse dict, so all public methods
keep speaking the caller's vertex language.  Labels that are exactly the
ints ``0..n-1`` in order (:attr:`FrozenGraph.identity_labels`) are stored
as a ``range`` with an O(1) index view instead.  When numpy is importable the
arrays are numpy ``int64`` arrays and BFS / subgraph extraction are
vectorized; otherwise plain Python lists are used with the same semantics
(``use_numpy=False`` forces the fallback, which the parity tests exercise).

The intended workflow is *freeze at the boundary*: build or mutate a
:class:`Graph`, call :meth:`Graph.freeze` once, and hand the frozen view to
the read-heavy pipeline.  :meth:`FrozenGraph.thaw` converts back when
mutation is needed again.  Global statistics computed along the way
(degeneracy order, core numbers, the greedy mad lower bound, max degree)
are cached on the instance — immutability makes that safe.

Million-node instances bypass :class:`Graph` entirely:

* :meth:`FrozenGraph.from_edge_array` builds the CSR form straight from a
  ``(m, 2)`` integer edge ndarray (self-loops dropped, duplicates merged)
  with *identity labels* ``0..n-1``, stored as a ``range`` plus an O(1)
  index view instead of a boxed label list and a dict — the per-vertex
  label machinery would otherwise dominate memory at n = 10^6;
* :meth:`save_npz` / :meth:`load_npz` give the graph an on-disk form; the
  npz members are stored uncompressed, so :meth:`load_npz` can memory-map
  ``indptr`` / ``indices`` directly out of the zip container (falling back
  to a regular load when the file layout does not permit it).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import Any, Protocol, runtime_checkable

try:  # numpy is the fast backend; the library works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

if os.environ.get("REPRO_FORCE_PYTHON_BACKEND"):  # CI runs the suite both ways
    _np = None

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph, Vertex

__all__ = ["FrozenGraph", "GraphLike", "freeze", "HAS_NUMPY", "NPZ_FORMAT_VERSION"]

HAS_NUMPY = _np is not None

#: version tag written into (and required from) the npz on-disk form
NPZ_FORMAT_VERSION = 1


class _IdentityIndex:
    """Read-only ``{i: i for i in range(n)}`` without storing n dict entries.

    The label index of an identity-labelled :class:`FrozenGraph`: supports
    exactly the mapping operations the frozen read paths use (``[]``,
    ``get``, ``in``, ``len``, iteration) with dict-equivalent semantics
    (``1.0`` hashes like ``1``, so it resolves like ``1``).
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def _as_index(self, v) -> int | None:
        if type(v) is int:  # the common case, without the int() round trip
            return v if 0 <= v < self._n else None
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            return None
        if v == i and 0 <= i < self._n:
            return i
        return None

    def __getitem__(self, v) -> int:
        if type(v) is int and 0 <= v < self._n:  # inlined fast path
            return v
        i = self._as_index(v)
        if i is None:
            raise KeyError(v)
        return i

    def get(self, v, default=None):
        i = self._as_index(v)
        return default if i is None else i

    def __contains__(self, v) -> bool:
        return self._as_index(v) is not None

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(self._n))


@runtime_checkable
class GraphLike(Protocol):
    """The read-only graph surface shared by :class:`Graph` and :class:`FrozenGraph`.

    Algorithms that only *read* a graph should annotate their parameter with
    this protocol; they then transparently accept either representation and
    can opportunistically use the CSR fast paths (``isinstance(g,
    FrozenGraph)``) without giving up on plain :class:`Graph` inputs.
    """

    def vertices(self) -> list[Vertex]: ...

    def edges(self) -> list[Edge]: ...

    def neighbors(self, v: Vertex) -> Iterable[Vertex]: ...

    def degree(self, v: Vertex) -> int: ...

    def degrees(self) -> dict[Vertex, int]: ...

    def number_of_vertices(self) -> int: ...

    def number_of_edges(self) -> int: ...

    def has_edge(self, u: Vertex, v: Vertex) -> bool: ...

    def subgraph(self, vertices: Iterable[Vertex]) -> "GraphLike": ...

    def ball(self, center: Vertex, radius: int) -> set[Vertex]: ...

    def bfs_distances(
        self, source: Vertex, radius: int | None = None
    ) -> dict[Vertex, int]: ...

    def connected_components(self) -> list[set[Vertex]]: ...

    def __iter__(self) -> Iterator[Vertex]: ...

    def __len__(self) -> int: ...

    def __contains__(self, v: Vertex) -> bool: ...


class FrozenGraph:
    """An immutable CSR snapshot of an undirected simple graph.

    Instances are created with :meth:`Graph.freeze`,
    :meth:`FrozenGraph.from_graph` or :meth:`FrozenGraph.from_edges`; they
    expose the same read API as :class:`Graph` (see :class:`GraphLike`) and
    raise :class:`~repro.errors.GraphError` on any mutation attempt.
    """

    __slots__ = ("_labels", "_index", "_offsets", "_neighbors", "name",
                 "metadata", "_use_numpy", "_peel_cache", "_list_cache",
                 "_density_cache")

    def __init__(
        self,
        labels: list[Vertex],
        offsets,
        neighbors,
        name: str = "",
        metadata: dict[str, Any] | None = None,
        use_numpy: bool | None = None,
    ) -> None:
        if use_numpy is None:
            use_numpy = HAS_NUMPY
        self._use_numpy = bool(use_numpy and HAS_NUMPY)
        if isinstance(labels, range) and labels == range(len(labels)):
            # identity labels (0..n-1): keep the range and a virtual index
            # instead of materializing n boxed ints plus an n-entry dict
            self._labels = labels
            self._index = _IdentityIndex(len(labels))
        else:
            self._labels = list(labels)
            self._index = {v: i for i, v in enumerate(self._labels)}
            if len(self._index) != len(self._labels):
                raise GraphError("duplicate vertex labels in FrozenGraph")
        if self._use_numpy:
            self._offsets = _np.asarray(offsets, dtype=_np.int64)
            self._neighbors = _np.asarray(neighbors, dtype=_np.int64)
        else:
            self._offsets = list(offsets)
            self._neighbors = list(neighbors)
        self.name = name
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._peel_cache: tuple | None = None
        self._list_cache: tuple[list[int], list[int]] | None = None
        self._density_cache: float | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph | FrozenGraph", use_numpy: bool | None = None) -> "FrozenGraph":
        """Freeze ``graph`` (returns it unchanged if already frozen with the same backend).

        On the numpy backend this stays in arrays: the adjacency sets are
        flattened with one ``np.fromiter``, offsets come from a ``cumsum``
        of the degrees, and one sort of the ``(src, dst)`` keys orders every
        neighbour slice.  Labels are translated through an index dict only
        when they are not the identity ``0..n-1``.  The pure-Python backend
        sorts slice by slice.
        """
        if isinstance(graph, FrozenGraph):
            if use_numpy is None or bool(use_numpy and HAS_NUMPY) == graph._use_numpy:
                return graph
            return cls(
                graph._labels,
                list(graph._offsets),
                list(graph._neighbors),
                name=graph.name,
                metadata=graph.metadata,
                use_numpy=use_numpy,
            )
        labels = graph.vertices()
        n = len(labels)
        # labels exactly 0..n-1 in order (the rule of identity_labels) keep
        # the range store and need no index translation
        identity = labels == list(range(n)) and set(map(type, labels)) <= {int}
        index = _IdentityIndex(n) if identity else {v: i for i, v in enumerate(labels)}
        store = range(n) if identity else labels
        meta = {"name": graph.name, "metadata": graph.metadata}
        if not (HAS_NUMPY if use_numpy is None else use_numpy and HAS_NUMPY):
            # the pure-Python backend: one sorted slice per vertex
            offsets = [0] * (n + 1)
            neighbors: list[int] = []
            for i, v in enumerate(labels):
                nbrs = sorted(index[u] for u in graph.neighbors(v))
                neighbors.extend(nbrs)
                offsets[i + 1] = len(neighbors)
            return cls(store, offsets, neighbors, use_numpy=False, **meta)
        adjacency = (
            graph._adj.values() if isinstance(graph, Graph)
            else [graph.neighbors(v) for v in labels]
        )
        counts = _np.fromiter(map(len, adjacency), dtype=_np.int64, count=n)
        offsets = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=offsets[1:])
        flat = chain.from_iterable(adjacency)
        if not identity:
            flat = map(index.__getitem__, flat)
        dst = _np.fromiter(flat, dtype=_np.int64, count=int(offsets[-1]))
        # each row is contiguous, so sorting the (src, dst) keys sorts every
        # neighbour slice in place; keys are distinct, any sort will do
        base = _np.repeat(_np.arange(n, dtype=_np.int64) * n, counts)
        neighbors_np = _np.sort(base + dst) - base
        return cls(store, offsets, neighbors_np, use_numpy=True, **meta)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        vertices: Iterable[Vertex] | None = None,
        name: str = "",
        use_numpy: bool | None = None,
    ) -> "FrozenGraph":
        """Freeze an edge list directly (convenience for generators and tests)."""
        return cls.from_graph(
            Graph(vertices=vertices, edges=edges, name=name), use_numpy=use_numpy
        )

    @classmethod
    def from_edge_array(
        cls,
        n: int,
        edges,
        name: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> "FrozenGraph":
        """Build an identity-labelled frozen graph from a ``(m, 2)`` edge ndarray.

        This is the streaming-generator entry point: no :class:`Graph`, no
        per-vertex dicts — the edge array is symmetrized, self-loops are
        dropped, duplicate edges are merged, and the CSR pair is produced
        with a handful of vectorized passes.  Vertex labels are ``0..n-1``
        (see :attr:`identity_labels`).  Entries must lie in ``[0, n)``.
        """
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if not HAS_NUMPY:
            # correctness fallback for numpy-less installs; the million-node
            # path always has numpy
            g = Graph(vertices=range(n), name=name, metadata=metadata)
            for u, v in edges:
                u, v = int(u), int(v)
                if u != v:
                    g.add_edge(u, v)
            return cls.from_graph(g, use_numpy=False)
        edge_arr = _np.asarray(edges, dtype=_np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError(
                f"edge array must have shape (m, 2), got {edge_arr.shape}"
            )
        if edge_arr.size and (int(edge_arr.min()) < 0 or int(edge_arr.max()) >= n):
            raise GraphError(f"edge endpoints must lie in [0, {n})")
        lo = _np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = _np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        keep = lo != hi  # self-loops have no place in a simple graph
        keys = _np.sort(lo[keep] * n + hi[keep])  # n^2 < 2^63 for any real n
        if keys.size:  # drop duplicate edges (sort + adjacent-diff dedupe
            # is an order of magnitude faster than np.unique here)
            keys = keys[_np.concatenate(([True], keys[1:] != keys[:-1]))]
        lo, hi = keys // n, keys % n
        src = _np.concatenate([lo, hi])
        dst = _np.concatenate([hi, lo])
        # keys are distinct, so the default (unstable) sort is safe
        order = _np.argsort(src * n + dst)
        counts = _np.bincount(src, minlength=n)
        offsets = _np.concatenate(
            ([0], _np.cumsum(counts, dtype=_np.int64))
        ).astype(_np.int64, copy=False)
        return cls(range(n), offsets, dst[order], name=name, metadata=metadata)

    def freeze(self) -> "FrozenGraph":
        """Already frozen; returns ``self`` (mirror of :meth:`Graph.freeze`)."""
        return self

    # ------------------------------------------------------------------
    # On-disk form: npz with memory-mappable CSR members
    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Write the graph as an *uncompressed* ``.npz`` file.

        Members: ``format_version``, ``n``, ``indptr``/``indices`` (the CSR
        pair, int64), plus ``name``, a JSON dict of repr-round-trippable
        metadata, and — only for non-identity labels — a ``labels_repr``
        string array.  Uncompressed storage is deliberate: it lets
        :meth:`load_npz` hand back memory-mapped CSR arrays.
        """
        if not self._use_numpy:
            raise GraphError("save_npz requires the numpy backend")
        import ast
        import json

        meta: dict[str, str] = {}
        for key, value in self.metadata.items():
            try:
                if ast.literal_eval(repr(value)) == value:
                    meta[str(key)] = repr(value)
            except (ValueError, SyntaxError):
                continue  # not repr-round-trippable: drop, never corrupt
        arrays: dict[str, Any] = {
            "format_version": _np.array([NPZ_FORMAT_VERSION], dtype=_np.int64),
            "n": _np.array([len(self._labels)], dtype=_np.int64),
            "indptr": _np.ascontiguousarray(self._offsets, dtype=_np.int64),
            "indices": _np.ascontiguousarray(self._neighbors, dtype=_np.int64),
            "name": _np.array(self.name or ""),
            "meta_json": _np.array(json.dumps(meta, sort_keys=True)),
        }
        if not self.identity_labels:
            arrays["labels_repr"] = _np.array([repr(v) for v in self._labels])
        with open(os.fspath(path), "wb") as fh:
            _np.savez(fh, **arrays)

    @classmethod
    def load_npz(cls, path, mmap: bool = True) -> "FrozenGraph":
        """Load a graph written by :meth:`save_npz`.

        With ``mmap=True`` (the default) the CSR arrays are memory-mapped
        read-only straight out of the zip container — the graph opens in
        O(1) memory and pages are shared between every process that maps
        the same file.  Falls back to a regular in-memory load when the
        members cannot be mapped (compressed or foreign files).
        """
        if not HAS_NUMPY:
            raise GraphError("load_npz requires numpy")
        import ast
        import json

        path = os.fspath(path)
        with _np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"][0])
            if version > NPZ_FORMAT_VERSION:
                raise GraphError(
                    f"npz graph format {version} is newer than supported "
                    f"{NPZ_FORMAT_VERSION}"
                )
            n = int(data["n"][0])
            name = str(data["name"][()]) if "name" in data.files else ""
            metadata: dict[str, Any] = {}
            if "meta_json" in data.files:
                for key, encoded in json.loads(str(data["meta_json"][()])).items():
                    try:
                        metadata[key] = ast.literal_eval(encoded)
                    except (ValueError, SyntaxError):
                        continue
            if "labels_repr" in data.files:
                labels: Any = [ast.literal_eval(s) for s in data["labels_repr"]]
            else:
                labels = range(n)
            mapped = _npz_memmaps(path, ("indptr", "indices")) if mmap else None
            if mapped is not None:
                indptr, indices = mapped["indptr"], mapped["indices"]
            else:
                indptr, indices = data["indptr"], data["indices"]
        graph = cls(labels, indptr, indices, name=name, metadata=metadata)
        if len(graph._offsets) != n + 1:
            raise GraphError(
                f"npz graph is corrupt: indptr has {len(graph._offsets)} "
                f"entries for n={n}"
            )
        return graph

    @property
    def identity_labels(self) -> bool:
        """True when vertex labels are exactly ``0..n-1`` in index order."""
        if isinstance(self._labels, range):
            return True
        return all(type(v) is int and v == i for i, v in enumerate(self._labels))

    def thaw(self) -> Graph:
        """Convert back to a mutable :class:`Graph` (labels preserved)."""
        g = Graph(name=self.name, metadata=self.metadata)
        for v in self._labels:
            g.add_vertex(v)
        for i, v in enumerate(self._labels):
            lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
            for k in range(lo, hi):
                j = int(self._neighbors[k])
                if i < j:
                    g.add_edge(v, self._labels[j])
        return g

    # ------------------------------------------------------------------
    # Mutation guards
    # ------------------------------------------------------------------
    def _immutable(self, *_args, **_kwargs):
        raise GraphError(
            "FrozenGraph is immutable; call thaw() to get a mutable Graph"
        )

    add_vertex = add_vertices = add_edge = add_edges = _immutable
    remove_edge = remove_vertex = remove_vertices = _immutable

    # ------------------------------------------------------------------
    # Index/label translation
    # ------------------------------------------------------------------
    def index_of(self, v: Vertex) -> int:
        """The CSR index of label ``v``."""
        try:
            return self._index[v]
        except KeyError as exc:
            raise GraphError(f"vertex {v!r} not in graph") from exc

    def label_of(self, i: int) -> Vertex:
        """The label stored at CSR index ``i``."""
        return self._labels[i]

    def neighbor_slice(self, i: int):
        """Zero-copy slice of neighbour *indices* of the vertex at index ``i``."""
        return self._neighbors[int(self._offsets[i]) : int(self._offsets[i + 1])]

    def csr_arrays(self):
        """The raw CSR pair ``(offsets, neighbors)`` in backend-native form.

        Zero-copy: numpy ``int64`` arrays on the numpy backend, plain lists
        otherwise.  This is the read surface the LOCAL simulator's routing
        fabric builds on — treat the arrays as immutable.
        """
        return self._offsets, self._neighbors

    def csr_lists(self) -> tuple[list[int], list[int]]:
        """Plain-list views of ``(offsets, neighbors)`` (cached, read-only).

        Scalar indexing on lists is several times faster than on numpy
        arrays, so sequential kernels (the simulator's per-node round loop,
        the peel) should read these instead of :meth:`csr_arrays`.
        """
        return self._csr_lists()

    # ------------------------------------------------------------------
    # Basic queries (Graph-compatible)
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        backend = "numpy" if self._use_numpy else "python"
        return (
            f"<FrozenGraph{label} n={self.number_of_vertices()} "
            f"m={self.number_of_edges()} backend={backend}>"
        )

    def vertices(self) -> list[Vertex]:
        return list(self._labels)

    def edges(self) -> list[Edge]:
        """Each edge exactly once, endpoints ordered by vertex index."""
        labels = self._labels
        result: list[Edge] = []
        offsets, neighbors = self._offsets, self._neighbors
        for i, v in enumerate(labels):
            for k in range(int(offsets[i]), int(offsets[i + 1])):
                j = int(neighbors[k])
                if i < j:
                    result.append((v, labels[j]))
        return result

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Neighbour *labels* of ``v`` (a fresh list; indices via :meth:`neighbor_slice`)."""
        i = self.index_of(v)
        labels = self._labels
        return [labels[int(j)] for j in self.neighbor_slice(i)]

    def degree(self, v: Vertex) -> int:
        i = self.index_of(v)
        return int(self._offsets[i + 1] - self._offsets[i])

    def degrees(self) -> dict[Vertex, int]:
        offsets = self._offsets
        return {
            v: int(offsets[i + 1] - offsets[i])
            for i, v in enumerate(self._labels)
        }

    def degree_array(self):
        """Per-index degrees (numpy array or list, matching the backend)."""
        if self._use_numpy:
            return _np.diff(self._offsets)
        return [
            self._offsets[i + 1] - self._offsets[i]
            for i in range(len(self._labels))
        ]

    def max_degree(self) -> int:
        if not self._labels:
            return 0
        degs = self.degree_array()
        return int(degs.max()) if self._use_numpy else max(degs)

    def min_degree(self) -> int:
        if not self._labels:
            return 0
        degs = self.degree_array()
        return int(degs.min()) if self._use_numpy else min(degs)

    def number_of_vertices(self) -> int:
        return len(self._labels)

    def number_of_edges(self) -> int:
        return len(self._neighbors) // 2

    def average_degree(self) -> float:
        n = len(self._labels)
        if n == 0:
            return 0.0
        return len(self._neighbors) / n

    def is_empty(self) -> bool:
        return not self._labels

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        lo, hi = int(self._offsets[iu]), int(self._offsets[iu + 1])
        if hi - lo > int(self._offsets[iv + 1] - self._offsets[iv]):
            iu, iv = iv, iu
            lo, hi = int(self._offsets[iu]), int(self._offsets[iu + 1])
        # binary search in the sorted neighbour slice
        neighbors = self._neighbors
        while lo < hi:
            mid = (lo + hi) // 2
            val = int(neighbors[mid])
            if val == iv:
                return True
            if val < iv:
                lo = mid + 1
            else:
                hi = mid
        return False

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "FrozenGraph":
        """Frozen graphs are immutable; copy returns ``self``."""
        return self

    def subgraph(self, vertices: Iterable[Vertex]) -> "FrozenGraph":
        """Induced subgraph as a new :class:`FrozenGraph`.

        Unknown labels are silently ignored, matching
        :meth:`Graph.subgraph`.  The kept vertices appear in the order of
        the parent graph's indices (deterministic regardless of the input
        iteration order).
        """
        index = self._index
        keep_idx = sorted({index[v] for v in vertices if v in index})
        labels = self._labels
        new_labels = [labels[i] for i in keep_idx]
        n = len(labels)
        # the vectorized path scans every edge of the *parent* graph; for
        # small keep sets (balls, leaf blocks) the scalar walk over just
        # the kept rows is far cheaper
        if self._use_numpy and len(keep_idx) * 16 < n:
            offsets_l, neighbors_l = self._csr_lists()
            remap_small = {old: new for new, old in enumerate(keep_idx)}
            small_offsets = [0] * (len(keep_idx) + 1)
            small_neighbors: list[int] = []
            for new_i, old_i in enumerate(keep_idx):
                for k in range(offsets_l[old_i], offsets_l[old_i + 1]):
                    mapped = remap_small.get(neighbors_l[k])
                    if mapped is not None:
                        small_neighbors.append(mapped)
                small_offsets[new_i + 1] = len(small_neighbors)
            return FrozenGraph(
                new_labels, small_offsets, small_neighbors,
                name=self.name, metadata=self.metadata, use_numpy=True,
            )
        if self._use_numpy:
            mask = _np.zeros(n, dtype=bool)
            keep_arr = _np.asarray(keep_idx, dtype=_np.int64)
            mask[keep_arr] = True
            remap = _np.full(n, -1, dtype=_np.int64)
            remap[keep_arr] = _np.arange(len(keep_idx), dtype=_np.int64)
            degs = _np.diff(self._offsets)
            src = _np.repeat(_np.arange(n, dtype=_np.int64), degs)
            edge_keep = mask[src] & mask[self._neighbors]
            new_src = remap[src[edge_keep]]
            new_dst = remap[self._neighbors[edge_keep]]
            counts = _np.bincount(new_src, minlength=len(keep_idx))
            new_offsets = _np.concatenate(
                ([0], _np.cumsum(counts, dtype=_np.int64))
            )
            return FrozenGraph(
                new_labels, new_offsets, new_dst,
                name=self.name, metadata=self.metadata, use_numpy=True,
            )
        remap_d = {old: new for new, old in enumerate(keep_idx)}
        new_offsets = [0] * (len(keep_idx) + 1)
        new_neighbors: list[int] = []
        for new_i, old_i in enumerate(keep_idx):
            for k in range(self._offsets[old_i], self._offsets[old_i + 1]):
                j = self._neighbors[k]
                mapped = remap_d.get(j)
                if mapped is not None:
                    new_neighbors.append(mapped)
            new_offsets[new_i + 1] = len(new_neighbors)
        return FrozenGraph(
            new_labels, new_offsets, new_neighbors,
            name=self.name, metadata=self.metadata, use_numpy=False,
        )

    # ------------------------------------------------------------------
    # BFS / balls / components
    # ------------------------------------------------------------------
    # below this frontier size the scalar loop beats numpy's per-call
    # overhead (fancy indexing + unique on tiny arrays)
    _VECTORIZE_FRONTIER = 256

    def _csr_lists(self) -> tuple[list[int], list[int]]:
        """Plain-list views of (offsets, neighbors), cached.

        Scalar element access on Python lists is several times faster than
        on numpy arrays (no boxing per item), so the sequential kernels
        (peel, small-frontier BFS) always run on these.
        """
        if self._list_cache is None:
            if self._use_numpy:
                self._list_cache = (self._offsets.tolist(), self._neighbors.tolist())
            else:
                self._list_cache = (self._offsets, self._neighbors)
        return self._list_cache

    def _bfs_levels_idx(self, source_idx: int, radius: int | None) -> list[list[int]]:
        """Single-source BFS frontiers by index (see :meth:`multi_source_levels`)."""
        return self.multi_source_levels([source_idx], radius)

    def multi_source_levels(
        self, sources: Iterable[int], radius: int | None = None
    ) -> list[list[int]]:
        """BFS by index from several sources at once; returns the frontiers.

        ``levels[k]`` holds the indices at distance exactly ``k`` from the
        source set (``levels[0]`` is the deduplicated source list, in input
        order).  Adaptive: small frontiers expand with a scalar loop over
        the cached list views; once a frontier outgrows
        ``_VECTORIZE_FRONTIER`` (and numpy is available) the level
        expansion switches to one vectorized gather per level.
        """
        n = len(self._labels)
        offsets, neighbors = self._csr_lists()
        visited = bytearray(n)
        frontier: list[int] = []
        for i in sources:
            i = int(i)
            if not visited[i]:
                visited[i] = 1
                frontier.append(i)
        if not frontier:
            return []
        levels = [frontier]
        depth = 0
        np_visited = None
        while frontier and (radius is None or depth < radius):
            if self._use_numpy and len(frontier) >= self._VECTORIZE_FRONTIER:
                if np_visited is None:
                    np_visited = _np.frombuffer(visited, dtype=_np.uint8).astype(bool)
                nxt = self._expand_frontier_np(frontier, np_visited)
                for j in nxt:  # keep the scalar bitmap in sync for later levels
                    visited[j] = 1
            else:
                nxt = []
                append = nxt.append
                for i in frontier:
                    for k in range(offsets[i], offsets[i + 1]):
                        j = neighbors[k]
                        if not visited[j]:
                            visited[j] = 1
                            append(j)
                if np_visited is not None and nxt:
                    np_visited[nxt] = True
            if not nxt:
                break
            frontier = nxt
            levels.append(frontier)
            depth += 1
        return levels

    def _expand_frontier_np(self, frontier: list[int], visited) -> list[int]:
        """One vectorized BFS level: gather all neighbour slices at once.

        ``visited`` is a numpy bool array updated in place; the caller
        mirrors every update into its scalar bitmap so both views stay
        authoritative whichever expansion mode the next level picks.
        """
        front = _np.asarray(frontier, dtype=_np.int64)
        starts = self._offsets[front]
        counts = self._offsets[front + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return []
        shifts = _np.repeat(
            starts - _np.concatenate(([0], _np.cumsum(counts)[:-1])), counts
        )
        nbrs = self._neighbors[_np.arange(total, dtype=_np.int64) + shifts]
        nbrs = nbrs[~visited[nbrs]]
        if nbrs.size == 0:
            return []
        nbrs = _np.unique(nbrs)
        visited[nbrs] = True
        return nbrs.tolist()

    def bfs_distances(
        self, source: Vertex, radius: int | None = None
    ) -> dict[Vertex, int]:
        """Breadth-first distances from ``source`` (optionally truncated)."""
        source_idx = self.index_of(source)
        labels = self._labels
        distances: dict[Vertex, int] = {}
        for depth, frontier in enumerate(self._bfs_levels_idx(source_idx, radius)):
            for i in frontier:
                distances[labels[int(i)]] = depth
        return distances

    def ball(self, center: Vertex, radius: int) -> set[Vertex]:
        """``B_radius(center)`` as a set of labels."""
        center_idx = self.index_of(center)
        labels = self._labels
        result: set[Vertex] = set()
        for frontier in self._bfs_levels_idx(center_idx, radius):
            for i in frontier:
                result.add(labels[int(i)])
        return result

    def ball_indices(self, center_idx: int, radius: int) -> list[int]:
        """``B_radius`` of the vertex at ``center_idx`` as a list of indices."""
        out: list[int] = []
        for frontier in self._bfs_levels_idx(center_idx, radius):
            out.extend(int(i) for i in frontier)
        return out

    def all_balls(self, radius: int) -> dict[Vertex, set[Vertex]]:
        """The ball of *every* vertex at the given radius, in one sweep.

        Instead of n independent BFS runs, every vertex carries a bitmask of
        its current ball (a Python big-int over the n vertex indices) and
        each round replaces it with the OR of its own and its neighbours'
        masks — ``ball_{r}(v) = union of ball_{r-1}(N[v])``.  The ORs run at
        C speed on machine words, which beats per-source BFS by a wide
        margin on the dense output this produces (every vertex appears in
        many balls).  Masks are decoded with numpy when available and with
        a per-byte bit loop otherwise.
        """
        labels = self._labels
        n = len(labels)
        if n == 0:
            return {}
        offsets, neighbors = self._csr_lists()
        masks = [1 << i for i in range(n)]
        for _ in range(max(0, radius)):
            previous = masks
            masks = []
            append = masks.append
            for i in range(n):
                acc = previous[i]
                for j in neighbors[offsets[i] : offsets[i + 1]]:
                    acc |= previous[j]
                append(acc)
            if masks == previous:  # reached the whole component everywhere
                break
        # Vertices with equal masks (same component once the radius reaches
        # its eccentricity — the common case at the paper's c*log n radius)
        # share one decoded set object.  Callers treat balls as read-only.
        nbytes = (n + 7) // 8
        get_label = labels.__getitem__
        decoded: dict[int, set[Vertex]] = {}
        result: dict[Vertex, set[Vertex]] = {}
        unique_indices: list[int] = []
        for i, mask in enumerate(masks):
            if mask not in decoded:
                decoded[mask] = set()  # placeholder, filled below
                unique_indices.append(i)
        if self._use_numpy:
            # batch decode of the unique masks: stack them into one byte
            # matrix, locate the nonzero bytes, and expand each through a
            # 256-entry bit-position table — work is proportional to the
            # output, not to n * n bits
            buf = b"".join(masks[i].to_bytes(nbytes, "little") for i in unique_indices)
            arr = _np.frombuffer(buf, dtype=_np.uint8).reshape(len(unique_indices), nbytes)
            rows, cols = _np.nonzero(arr)  # row-major: sorted by mask index
            vals = arr[rows, cols]
            counts = _BYTE_POPCOUNT[vals]
            total = int(counts.sum())
            starts = _BYTE_TABLE_START[vals]
            shifts = _np.repeat(
                starts - _np.concatenate(([0], _np.cumsum(counts)[:-1])), counts
            )
            bitpos = _BYTE_TABLE_FLAT[_np.arange(total, dtype=_np.int64) + shifts]
            members = _np.repeat(cols.astype(_np.int64) * 8, counts) + bitpos
            per_row = _np.bincount(
                _np.repeat(rows, counts), minlength=len(unique_indices)
            )
            boundaries = _np.cumsum(per_row)[:-1]
            identity_labels = self.identity_labels
            for i, chunk in zip(unique_indices, _np.split(members, boundaries)):
                values = chunk.tolist()
                decoded[masks[i]] = (
                    set(values) if identity_labels else set(map(get_label, values))
                )
        else:
            for i in unique_indices:
                members_set: set[Vertex] = set()
                mask = masks[i]
                base = 0
                while mask:
                    byte = mask & 0xFF
                    while byte:
                        low = byte & -byte
                        members_set.add(get_label(base + low.bit_length() - 1))
                        byte ^= low
                    mask >>= 8
                    base += 8
                decoded[masks[i]] = members_set
        for i, v in enumerate(labels):
            result[v] = decoded[masks[i]]
        return result

    def connected_components(self) -> list[set[Vertex]]:
        n = len(self._labels)
        labels = self._labels
        seen = bytearray(n)
        components: list[set[Vertex]] = []
        for start in range(n):
            if seen[start]:
                continue
            component: set[Vertex] = set()
            for frontier in self._bfs_levels_idx(start, None):
                for i in frontier:
                    i = int(i)
                    seen[i] = 1
                    component.add(labels[i])
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._labels:
            return True
        first = self._bfs_levels_idx(0, None)
        reached = sum(len(level) for level in first)
        return reached == len(self._labels)

    # ------------------------------------------------------------------
    # Cached global statistics: one O(n + m) peel gives them all
    # ------------------------------------------------------------------
    def _peel(self) -> tuple[int, list[int], list[int]]:
        """Min-degree peel in O(n + m) (Matula–Beck bucket algorithm).

        Returns ``(degeneracy, order, cores)`` where ``order`` is the
        removal order (CSR indices) and ``cores`` the per-index core
        numbers.  Note the bucket algorithm's clamped degrees process
        vertices in min-*core* order, which is a valid degeneracy ordering
        but not an exact min-residual-degree order — the density bound of
        :meth:`peel_density_lower_bound` therefore runs its own exact peel.
        Cached — frozen graphs cannot change under us.
        """
        if self._peel_cache is not None:
            return self._peel_cache
        n = len(self._labels)
        if n == 0:
            self._peel_cache = (0, [], [])
            return self._peel_cache
        # the peel is inherently sequential: plain lists beat ndarray
        # element access inside the loop
        offsets, neighbors = self._csr_lists()
        deg = [offsets[i + 1] - offsets[i] for i in range(n)]
        max_deg = max(deg)
        # counting sort of the vertices by degree
        bin_start = [0] * (max_deg + 2)
        for d in deg:
            bin_start[d + 1] += 1
        for d in range(1, max_deg + 2):
            bin_start[d] += bin_start[d - 1]
        next_slot = list(bin_start[: max_deg + 1])
        pos = [0] * n
        vert = [0] * n
        for v in range(n):
            slot = next_slot[deg[v]]
            pos[v] = slot
            vert[slot] = v
            next_slot[deg[v]] = slot + 1
        bins = list(bin_start[: max_deg + 1])
        cur = list(deg)  # bucket degrees (clamped at the processing level)
        cores = [0] * n
        order: list[int] = []
        degen = 0
        for i in range(n):
            v = vert[i]
            dv = cur[v]
            if dv > degen:
                degen = dv
            cores[v] = degen
            order.append(v)
            for k in range(offsets[v], offsets[v + 1]):
                u = neighbors[k]
                if pos[u] > i:
                    du = cur[u]
                    if du > dv:
                        # move u to the front of its bucket, then shrink it
                        pu = pos[u]
                        pw = bins[du]
                        w = vert[pw]
                        if u != w:
                            vert[pu] = w
                            vert[pw] = u
                            pos[u] = pw
                            pos[w] = pu
                        bins[du] = pw + 1
                        cur[u] = du - 1
        self._peel_cache = (degen, order, cores)
        return self._peel_cache

    def _peel_density(self) -> float:
        """Exact greedy min-degree peel tracking the best suffix density.

        Unlike :meth:`_peel`, ties and decrements use true residual degrees
        (lazy-deletion heap), which is what the classical 2-approximation
        argument needs: the returned value is always >= mad(G) / 2.
        O(m log n); cached.
        """
        import heapq

        if self._density_cache is not None:
            return self._density_cache
        n = len(self._labels)
        if n == 0:
            self._density_cache = 0.0
            return self._density_cache
        offsets, neighbors = self._csr_lists()
        deg = [offsets[i + 1] - offsets[i] for i in range(n)]
        m = len(neighbors) // 2
        best = 2.0 * m / n
        heap = list(zip(deg, range(n)))
        heapq.heapify(heap)
        removed = bytearray(n)
        remaining = n
        while heap:
            d, v = heapq.heappop(heap)
            if removed[v] or d != deg[v]:
                continue  # stale entry
            removed[v] = 1
            m -= deg[v]
            remaining -= 1
            if remaining:
                density = 2.0 * m / remaining
                if density > best:
                    best = density
            for k in range(offsets[v], offsets[v + 1]):
                u = neighbors[k]
                if not removed[u]:
                    deg[u] -= 1
                    heapq.heappush(heap, (deg[u], u))
        self._density_cache = best
        return best

    def degeneracy(self) -> int:
        """The degeneracy (cached)."""
        return self._peel()[0]

    def degeneracy_ordering(self) -> tuple[int, list[Vertex]]:
        """``(degeneracy, removal order)`` with the order given as labels."""
        degen, order, _cores = self._peel()
        labels = self._labels
        return degen, [labels[i] for i in order]

    def core_numbers(self) -> dict[Vertex, int]:
        """Core number of every vertex (cached)."""
        _degen, _order, cores = self._peel()
        return {v: cores[i] for i, v in enumerate(self._labels)}

    def peel_density_lower_bound(self) -> float:
        """Greedy mad lower bound: best suffix density of an exact
        min-degree peel (always at least ``mad(G) / 2``)."""
        return self._peel_density()

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._labels)
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Equality / pickling
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenGraph):
            if set(self._labels) != set(other._labels):
                return False
            return all(
                set(self.neighbors(v)) == set(other.neighbors(v))
                for v in self._labels
            )
        if isinstance(other, Graph):
            if set(self._labels) != set(other.vertices()):
                return False
            return all(
                set(self.neighbors(v)) == set(other.neighbors(v))
                for v in self._labels
            )
        return NotImplemented

    def __hash__(self) -> int:  # identity hash, like Graph
        return id(self)

    def __getstate__(self):
        # CSR arrays pickle natively (raw int64 buffers, no per-element
        # boxing) and identity labels travel as just the vertex count —
        # keeps worker handoff cheap even when a graph must be pickled
        if self._use_numpy:
            offsets = _np.ascontiguousarray(self._offsets)
            neighbors = _np.ascontiguousarray(self._neighbors)
        else:
            offsets, neighbors = list(self._offsets), list(self._neighbors)
        identity = isinstance(self._labels, range)
        return {
            "labels": None if identity else list(self._labels),
            "n": len(self._labels),
            "offsets": offsets,
            "neighbors": neighbors,
            "name": self.name,
            "metadata": self.metadata,
            "use_numpy": self._use_numpy,
        }

    def __setstate__(self, state):
        labels = state["labels"]
        if labels is None:
            labels = range(state["n"])
        self.__init__(
            labels,
            state["offsets"],
            state["neighbors"],
            name=state["name"],
            metadata=state["metadata"],
            use_numpy=state["use_numpy"],
        )


def _npz_memmaps(path: str, members: tuple[str, ...]):
    """Memory-map uncompressed ``.npy`` members of an npz zip file.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
    npz containers, so this locates each member's data inside the zip by
    hand: the member must be stored (``ZIP_STORED``), its local file
    header gives the payload offset, and the npy header at that offset
    gives dtype/shape/order for an ``np.memmap`` window.  Returns ``None``
    whenever the file deviates from that layout (compressed members,
    unexpected npy versions) — callers fall back to a regular load.
    """
    import zipfile

    out: dict[str, Any] = {}
    try:
        with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
            for member in members:
                try:
                    info = zf.getinfo(member + ".npy")
                except KeyError:
                    return None
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                fh.seek(info.header_offset)
                local = fh.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    return None
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                fh.seek(info.header_offset + 30 + name_len + extra_len)
                version = _np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = _np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    shape, fortran, dtype = _np.lib.format.read_array_header_2_0(fh)
                else:
                    return None
                if dtype.hasobject:
                    return None
                out[member] = _np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    shape=shape,
                    order="F" if fortran else "C",
                    offset=fh.tell(),
                )
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    return out


def freeze(graph: GraphLike, use_numpy: bool | None = None) -> FrozenGraph:
    """Freeze any :class:`GraphLike` into a :class:`FrozenGraph` (idempotent)."""
    return FrozenGraph.from_graph(graph, use_numpy=use_numpy)


if HAS_NUMPY:
    # byte-value -> bit positions lookup used by the all_balls batch decode
    _BYTE_POPCOUNT = _np.array(
        [bin(b).count("1") for b in range(256)], dtype=_np.int64
    )
    _BYTE_TABLE_FLAT = _np.array(
        [bit for b in range(256) for bit in range(8) if b >> bit & 1],
        dtype=_np.int64,
    )
    _BYTE_TABLE_START = _np.concatenate(
        ([0], _np.cumsum(_BYTE_POPCOUNT)[:-1])
    )
