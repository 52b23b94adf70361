"""Extending a partial list-coloring to the happy set (Lemma 3.2).

Given the graph ``G_i`` of a peeling iteration, its happy set ``A_i`` and a
list-coloring of ``G_i - A_i``, this module extends the coloring to all of
``G_i`` in ``O(d log^2 n)`` charged rounds, following the proof of
Lemma 3.2:

1. compute a ``(k, k log n)``-ruling forest of ``G_i[R_i]`` with respect to
   ``A_i`` (``k`` is twice the rich-ball radius, plus a small constant so
   that the rich balls of distinct roots are disjoint and non-adjacent);
2. let ``T`` be the union of the tree vertices; uncolor ``T ∩ S_i``; prune
   the list of every vertex of ``T`` by the colors of its neighbours
   outside ``T`` (Observation 5.1 keeps the lists at least as large as the
   uncolored degrees);
3. compute a proper ``(d+1)``-coloring of ``H = G_i[T]`` (the "stable
   partition" of the paper) with the distributed Linial + reduction
   subroutine;
4. color the tree vertices from the deepest layer towards the roots, one
   (depth, stable-class) pair at a time; every vertex still has its parent
   uncolored when its turn comes, so its pruned list has a free color;
5. the roots are happy: uncolor the whole rich ball of every root, prune
   lists by the colors outside the ball, and apply Theorem 1.1
   (:func:`repro.coloring.borodin_ert.degree_list_coloring`) to each ball —
   the ball contains a vertex with spare colors or is not a Gallai tree, so
   the constructive solver succeeds.  The flat backend runs the slack case
   on CSR masks (:func:`~repro.coloring.borodin_ert.slack_coloring_on_masks`)
   and calls the label solver only for balls outside it.

Every phase charges rounds to the shared ledger with a reference to the
paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coloring.assignment import Color, ListAssignment
from repro.coloring.borodin_ert import (
    degree_list_coloring,
    slack_coloring_on_masks,
)
from repro.coloring.palette import FlatListAssignment
from repro.errors import ColoringError, ListAssignmentError
from repro.graphs.frozen import FrozenGraph
from repro.graphs.graph import Graph, Vertex
from repro.local.ledger import RoundLedger
from repro.distributed.linial import delta_plus_one_coloring
from repro.distributed.ruling import ruling_forest

__all__ = ["ExtensionReport", "extend_coloring_to_happy_set"]


@dataclass
class ExtensionReport:
    """Bookkeeping of one extension step (useful for the Lemma 3.2 benchmarks)."""

    roots: int
    tree_vertices: int
    recolored_sad_vertices: int
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


def extend_coloring_to_happy_set(
    graph: Graph,
    lists: ListAssignment,
    happy: set[Vertex],
    rich: set[Vertex],
    coloring: dict[Vertex, Color],
    radius: int,
    d: int,
    ledger: RoundLedger | None = None,
    backend: str = "flat",
) -> tuple[dict[Vertex, Color], ExtensionReport]:
    """Extend ``coloring`` (defined on ``graph`` minus ``happy``) to all of ``graph``.

    Parameters
    ----------
    graph:
        The graph ``G_i`` of the peeling iteration.
    lists:
        The full list assignment (size ``d`` lists, or nice lists).
    happy, rich:
        The sets ``A_i`` and ``R_i`` computed by the classification of the
        same iteration (with the same ``radius``).
    coloring:
        A proper list-coloring of ``graph`` restricted to ``V - happy``.
        The returned coloring may change the colors of some sad vertices,
        exactly as in the paper.
    radius:
        The rich-ball radius used by the classification.
    d:
        The color budget (only used for the size of the stable partition).
    backend:
        ``"dict"`` runs the historical per-vertex set algebra; ``"flat"``
        (frozen graphs) runs the same phases on the flat substrate — CSR
        ruling probes, the batched Linial/color-reduction stable
        partition, and bitmask pruning/tie-breaks over the interned
        palette.  Colorings and charged rounds are identical between the
        two (the parity suite asserts it).

    Returns
    -------
    (new_coloring, report)
    """
    ledger = ledger if ledger is not None else RoundLedger()
    report = ExtensionReport(roots=0, tree_vertices=0, recolored_sad_vertices=0, rounds=0, ledger=ledger)
    if not happy:
        return dict(coloring), report
    use_flat = backend == "flat" and isinstance(graph, FrozenGraph)

    rich_graph = graph.subgraph(rich)
    # Roots must be far enough apart that their rich balls are disjoint and
    # non-adjacent: distance >= 2*radius + 2 suffices.
    alpha = 2 * radius + 2
    identifiers = {v: i + 1 for i, v in enumerate(graph.vertices())}
    forest = ruling_forest(
        rich_graph, set(happy), alpha, identifiers=identifiers,
        engine="csr" if use_flat else "labels",
    )
    ledger.charge(
        "Lemma 3.2: ruling forest",
        forest.rounds,
        reference="Awerbuch et al. (k, k log n)-ruling forest",
    )

    tree_vertices = forest.vertices()
    new_coloring = dict(coloring)
    uncolored: set[Vertex] = set()
    for v in tree_vertices:
        if v in happy:
            uncolored.add(v)
        elif v in new_coloring:
            # sad vertex swept into a tree: uncolor it (the paper allows
            # recoloring vertices of S)
            del new_coloring[v]
            uncolored.add(v)
            report.recolored_sad_vertices += 1
        else:
            uncolored.add(v)
    report.tree_vertices = len(tree_vertices)
    report.roots = len(forest.roots)

    tree_graph = graph.subgraph(tree_vertices)

    # Stable partition of H = G[T] into at most d+1 classes.
    stable = delta_plus_one_coloring(tree_graph, max_degree=d, batched=use_flat)
    ledger.charge(
        "Lemma 3.2: (d+1) stable partition of the trees",
        stable.rounds,
        reference="Linial + color reduction (paper quotes GPS [17])",
    )

    # The flat path tracks the coloring twice: the label dict (the public
    # result) and an interned color-index array over the CSR indices that
    # the mask kernels read and write.
    flat_state: _FlatColoringState | None = None
    if use_flat:
        flat_state = _FlatColoringState(graph, lists.flat, new_coloring)

    # Layered coloring: deepest tree layer first, one stable class at a time.
    max_depth = max(forest.depth.values(), default=0)
    layer_rounds = 0
    buckets: dict[tuple[int, int], list[Vertex]] | None = None
    if flat_state is not None:
        # one grouping pass instead of a tree scan per (depth, class) pair;
        # every vertex sits in exactly one bucket, so the batches (and
        # their order) match the scan
        buckets = {}
        for v in tree_vertices:
            if v in uncolored:
                key = (forest.depth[v], stable.coloring.get(v))
                buckets.setdefault(key, []).append(v)
    for depth in range(max_depth, 0, -1):
        for stable_class in range(d + 1):
            if buckets is not None:
                batch = buckets.get((depth, stable_class), [])
            else:
                batch = [
                    v
                    for v in tree_vertices
                    if forest.depth[v] == depth
                    and stable.coloring.get(v) == stable_class
                    and v in uncolored
                ]
            if batch:
                if flat_state is not None:
                    flat_state.color_batch(new_coloring, batch)
                else:
                    _color_batch(graph, lists, new_coloring, batch)
                for v in batch:
                    uncolored.discard(v)
            layer_rounds += 1
    ledger.charge(
        "Lemma 3.2: layered coloring of the trees",
        layer_rounds,
        reference="depth x (d+1) greedy sweeps",
    )

    # Roots: uncolor the whole rich ball and apply Theorem 1.1.
    ball_rounds = 0
    for root in forest.roots:
        ball = rich_graph.ball(root, radius)
        for v in ball:
            if v in new_coloring:
                del new_coloring[v]
                if flat_state is not None:
                    flat_state.uncolor(v)
                if v not in happy:
                    report.recolored_sad_vertices += 1
        try:
            if flat_state is not None:
                ball_coloring = flat_state.color_ball(ball)
            else:
                pruned: dict[Vertex, frozenset] = {}
                for v in ball:
                    used = {
                        new_coloring[u]
                        for u in graph.neighbors(v)
                        if u in new_coloring and u not in ball
                    }
                    pruned[v] = lists[v] - used
                ball_coloring = degree_list_coloring(
                    graph.subgraph(ball), ListAssignment(pruned)
                )
        except ColoringError as exc:
            raise ColoringError(
                f"Theorem 1.1 extension failed on the rich ball of root {root!r}: {exc}"
            ) from exc
        new_coloring.update(ball_coloring)
        for v in ball:
            uncolored.discard(v)
        ball_rounds = max(ball_rounds, 2 * radius)
    ledger.charge(
        "Lemma 3.2: Theorem 1.1 on the root balls",
        ball_rounds,
        reference="Borodin / Erdős–Rubin–Taylor",
    )

    if uncolored:
        leftover = sorted(map(repr, uncolored))[:5]
        raise ColoringError(
            f"extension left {len(uncolored)} vertices uncolored, e.g. {leftover}"
        )
    report.rounds = ledger.total()
    return new_coloring, report


class _FlatColoringState:
    """Interned mirror of a partial coloring over a frozen graph's indices.

    Keeps ``color_index[i]`` (the palette-universe index of the color of
    the vertex at CSR index ``i``, or ``-1``) in sync with the label dict,
    so the hot kernels — layered tree coloring, Theorem 1.1 on the root
    balls — run as integer mask ops over the CSR arrays instead
    of per-vertex set algebra.  Tie-breaks read the lowest set bit, which
    by the universe's repr-sorted interning equals the dict pipeline's
    ``min(available, key=repr)``.
    """

    __slots__ = ("graph", "lists", "universe", "color_index",
                 "_offsets", "_neighbors", "_index")

    def __init__(
        self,
        graph: FrozenGraph,
        lists: FlatListAssignment,
        coloring: dict[Vertex, Color],
    ):
        self.graph = graph
        self.lists = lists
        self.universe = lists.universe
        self._offsets, self._neighbors = graph.csr_lists()
        self._index = graph._index
        get_index = self.universe.get_index
        self.color_index = [-1] * len(graph)
        for v, color in coloring.items():
            i = self._index.get(v)
            if i is not None:
                self.color_index[i] = get_index(color)

    def uncolor(self, v: Vertex) -> None:
        self.color_index[self._index[v]] = -1

    def _used_mask(self, i: int) -> int:
        """OR of the color bits of ``i``'s colored neighbours."""
        used = 0
        color_index = self.color_index
        for j in self._neighbors[self._offsets[i]:self._offsets[i + 1]]:
            c = color_index[j]
            if c >= 0:
                used |= 1 << c
        return used

    def color_batch(
        self, coloring: dict[Vertex, Color], batch: list[Vertex]
    ) -> None:
        """Flat twin of :func:`_color_batch` (identical picks).

        The batch is a stable set, so the used masks of all members are
        independent and the picks go through the palette's
        :meth:`~repro.coloring.palette.FlatListAssignment.first_free_colors`
        batch kernel in one call.
        """
        index = self._index
        indices = [index[v] for v in batch]
        used = [self._used_mask(i) for i in indices]
        try:
            picks = self.lists.first_free_colors(batch, used)
        except ListAssignmentError as exc:
            raise ColoringError(
                f"layered tree coloring ran out of colors ({exc}); "
                "this indicates a violated invariant of Lemma 3.2"
            ) from exc
        get_index = self.universe.get_index
        for v, i, color in zip(batch, indices, picks):
            coloring[v] = color
            self.color_index[i] = get_index(color)

    def color_ball(self, ball: set[Vertex]) -> dict[Vertex, Color]:
        """Theorem 1.1 on an uncolored root ball, as mask operations.

        Prunes every ball list by the colors of its neighbours (Observation
        5.1; the ball was just uncolored, so only neighbours outside it
        count) and runs :func:`slack_coloring_on_masks`.  A ball outside
        the slack case goes to :func:`degree_list_coloring` on lists built
        from the same masks.  Either way the picks, and their order, are
        the dict pipeline's.
        """
        index = self._index
        labels = self.graph._labels
        members = sorted(index[v] for v in ball)
        mask_of = self.lists.mask_of
        masks = [mask_of(labels[i]) & ~self._used_mask(i) for i in members]
        picks = slack_coloring_on_masks(
            self._offsets, self._neighbors, members, masks, labels
        )
        color_index = self.color_index
        if picks is None:
            vertices = [labels[i] for i in members]
            ball_coloring = degree_list_coloring(
                self.graph.subgraph(vertices),
                ListAssignment(
                    FlatListAssignment.from_masks(self.universe, vertices, masks)
                ),
            )
            get_index = self.universe.get_index
            for v, color in ball_coloring.items():
                color_index[index[v]] = get_index(color)
            return ball_coloring
        color_of = self.universe.color_of
        ball_coloring = {}
        for i, bit in picks:
            color_index[i] = bit
            ball_coloring[labels[i]] = color_of(bit)
        return ball_coloring


def _color_batch(
    graph: Graph,
    lists: ListAssignment,
    coloring: dict[Vertex, Color],
    batch: list[Vertex],
) -> None:
    """Color a stable set of tree vertices greedily from their pruned lists."""
    for v in batch:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        available = lists[v] - used
        if not available:
            raise ColoringError(
                f"layered tree coloring ran out of colors at vertex {v!r}; "
                "this indicates a violated invariant of Lemma 3.2"
            )
        coloring[v] = min(available, key=repr)
