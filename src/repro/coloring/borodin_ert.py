"""Constructive solver for Theorem 1.1 (Borodin; Erdős–Rubin–Taylor).

**Theorem 1.1.** If a connected graph ``G`` is not a Gallai tree, then for
any list assignment ``L`` with ``|L(v)| >= d_G(v)`` for every vertex, ``G``
is L-list-colorable.

The paper invokes this theorem *existentially* inside Lemma 3.2 (nodes of
the LOCAL model have unbounded computation, so each root simply "finds" the
extension).  For the reproduction we implement a constructive solver whose
cases mirror the classical proof:

* **Slack case** — some vertex ``v`` has ``|L(v)| > d(v)``: order the
  vertices by decreasing BFS distance from ``v`` and color greedily; every
  vertex other than ``v`` still has an uncolored neighbour (its BFS parent)
  when its turn comes, and ``v`` itself has spare colors.

* **Leaf-block peeling** — the graph is not 2-connected: pick a leaf block
  ``B`` (with cut vertex ``x``) different from a designated non-Gallai
  block, color ``B - x`` first (its vertices adjacent to ``x`` have slack
  inside ``B - x``, so the slack case applies), shrink ``x``'s list by the
  colors used on its ``B``-neighbours, and recurse on ``G - (B - x)``,
  which still contains the non-Gallai block.

* **2-connected case** — the graph is 2-connected and neither a clique nor
  an odd cycle.  Even cycles are handled directly.  Otherwise we look for a
  vertex ``b`` with two non-adjacent neighbours ``a`` and ``c`` such that
  ``G - a - c`` is connected and ``L(a)`` and ``L(c)`` share a color: give
  that color to both, then color ``G - a - c`` greedily by decreasing BFS
  distance from ``b``; since two of ``b``'s neighbours share a color, ``b``
  keeps a spare color for the end.

* **Fallback** — when every admissible triple has disjoint lists (rare; it
  requires at least ``d(a) + d(c)`` distinct colors around a single
  vertex), the solver falls back to exhaustive search; Theorem 1.1
  guarantees a solution exists, so the search succeeds.

The public entry point :func:`degree_list_coloring` also accepts instances
whose guarantee comes from a slack vertex even if the graph *is* a Gallai
tree, because this is exactly the situation of a happy vertex whose rich
ball contains a vertex of degree at most ``d - 1`` (Lemma 3.2).

:func:`slack_coloring_on_masks` is the slack case alone, on CSR indices
and interned color masks instead of labels and frozensets.  It makes the
same picks as :func:`degree_list_coloring` on a connected graph with a
slack vertex and declines (returns ``None``) every other instance, so a
caller runs it first and falls back to the label solver, which stays the
general solver and the reference.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.coloring.assignment import Color, ListAssignment
from repro.coloring.exact import list_coloring_search
from repro.errors import ColoringError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.properties.blocks import blocks_and_cut_vertices
from repro.graphs.properties.gallai import (
    block_is_clique,
    block_is_odd_cycle,
)

__all__ = [
    "degree_list_coloring",
    "is_degree_choosable_instance",
    "slack_coloring_on_masks",
]


def is_degree_choosable_instance(graph: Graph, lists: ListAssignment) -> bool:
    """Check the promise of :func:`degree_list_coloring` on a connected graph.

    Returns ``True`` when either some vertex has more colors than its
    degree, or the graph is not a Gallai tree.  (These are the two
    situations in which Theorem 1.1 — or a trivial greedy argument —
    guarantees a coloring.)
    """
    if any(len(lists[v]) > graph.degree(v) for v in graph):
        return True
    from repro.graphs.properties.gallai import is_gallai_tree

    return not is_gallai_tree(graph)


def degree_list_coloring(
    graph: Graph, lists: ListAssignment
) -> dict[Vertex, Color]:
    """Color ``graph`` from ``lists`` where ``|L(v)| >= d(v)`` for all ``v``.

    The graph may be disconnected; each connected component must satisfy
    the promise of Theorem 1.1 (not a Gallai tree) *or* contain a vertex
    with more colors than its degree.  Raises :class:`ColoringError` when a
    component violates both (i.e. when no coloring is guaranteed and the
    exhaustive fallback proves none exists).
    """
    for v in graph:
        if len(lists.get(v)) < graph.degree(v):
            raise ColoringError(
                f"vertex {v!r} has {len(lists.get(v))} colors but degree "
                f"{graph.degree(v)}; Theorem 1.1 requires |L(v)| >= d(v)"
            )
    coloring: dict[Vertex, Color] = {}
    for component in graph.connected_components():
        sub = graph.subgraph(component)
        coloring.update(_solve_connected(sub, lists.restrict(component)))
    return coloring


# ---------------------------------------------------------------------------
# connected case
# ---------------------------------------------------------------------------

def _solve_connected(graph: Graph, lists: ListAssignment) -> dict[Vertex, Color]:
    if len(graph) == 0:
        return {}
    if len(graph) == 1:
        v = next(iter(graph))
        if not lists[v]:
            raise ColoringError(f"vertex {v!r} has an empty list")
        return {v: min(lists[v], key=repr)}

    slack = _find_slack_vertex(graph, lists)
    if slack is not None:
        return _greedy_towards(graph, lists, slack)

    blocks, cuts = blocks_and_cut_vertices(graph)
    non_gallai = [
        b
        for b in blocks
        if not block_is_clique(graph, b) and not block_is_odd_cycle(graph, b)
    ]
    if len(blocks) == 1:
        return _solve_biconnected(graph, lists, bool(non_gallai))
    if not non_gallai:
        # Gallai tree with tight lists everywhere: no guarantee.  Attempt an
        # exhaustive search anyway (specific lists may still admit a coloring)
        # and report a precise error otherwise.
        result = list_coloring_search(graph, lists)
        if result is None:
            raise ColoringError(
                "the component is a Gallai tree with tight lists; "
                "Theorem 1.1 gives no coloring and none exists for these lists"
            )
        return result
    return _peel_leaf_block(graph, lists, blocks, cuts, non_gallai[0])


def _find_slack_vertex(graph: Graph, lists: ListAssignment) -> Vertex | None:
    for v in graph:
        if len(lists[v]) > graph.degree(v):
            return v
    return None


def _greedy_towards(
    graph: Graph, lists: ListAssignment, target: Vertex
) -> dict[Vertex, Color]:
    """Greedy coloring in decreasing BFS-distance-from-``target`` order.

    Works whenever ``|L(v)| >= d(v)`` for every vertex and
    ``|L(target)| > d(target)`` *or* ``target`` keeps an uncolored
    neighbour until the end (it is colored last, so only its own slack
    matters).
    """
    distances = graph.bfs_distances(target)
    if len(distances) != len(graph):
        raise ColoringError("graph passed to _greedy_towards is not connected")
    order = sorted(distances, key=lambda v: (-distances[v], repr(v)))
    coloring: dict[Vertex, Color] = {}
    for v in order:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        available = lists[v] - used
        if not available:
            raise ColoringError(
                f"greedy-towards ran out of colors at {v!r}; "
                "the slack-vertex promise was violated"
            )
        coloring[v] = min(available, key=repr)
    return coloring


def slack_coloring_on_masks(
    offsets: Sequence[int],
    neighbors: Sequence[int],
    members: Sequence[int],
    masks: Sequence[int],
    labels: Sequence[Vertex],
) -> list[tuple[int, int]] | None:
    """The slack case of Theorem 1.1 on CSR indices and color bitmasks.

    ``members`` are CSR indices of the graph given by ``offsets`` /
    ``neighbors``, in ascending order; ``masks[k]`` is the list of
    ``members[k]`` as a bitmask over a repr-sorted
    :class:`~repro.coloring.palette.PaletteUniverse`, and ``labels`` maps
    an index to its vertex label.

    Returns ``(index, color bit)`` pairs in the order in which
    :func:`degree_list_coloring` assigns the colors on the induced
    subgraph: the first vertex with more colors than neighbours inside the
    set (ascending index, a single vertex needs one color) is the target,
    the others are colored by decreasing BFS distance from it with
    ``repr(label)`` breaking ties, each taking its lowest free bit — the
    label solver's ``min(available, key=repr)``.  Returns ``None`` when
    the instance is outside that case: some ``|L(v)| < d(v)``, no slack
    vertex, the set does not induce a connected subgraph, or a vertex runs
    out of colors.  :func:`degree_list_coloring` then either solves it or
    raises the precise error.
    """
    position = {i: k for k, i in enumerate(members)}
    adjacency: list[list[int]] = []
    target = -1
    for k, i in enumerate(members):
        inside = [
            position[j] for j in neighbors[offsets[i]:offsets[i + 1]]
            if j in position
        ]
        size = masks[k].bit_count()
        if size < len(inside):
            return None
        if target < 0 and size > len(inside):
            target = k
        adjacency.append(inside)
    if target < 0:
        return None
    distance = [-1] * len(members)
    distance[target] = 0
    frontier = [target]
    reached = 1
    while frontier:
        nxt = []
        for k in frontier:
            step = distance[k] + 1
            for j in adjacency[k]:
                if distance[j] < 0:
                    distance[j] = step
                    nxt.append(j)
        reached += len(nxt)
        frontier = nxt
    if reached != len(members):
        return None
    order = sorted(
        range(len(members)),
        key=lambda k: (-distance[k], repr(labels[members[k]])),
    )
    chosen = [0] * len(members)  # one-bit mask of the color taken, 0 if none
    picks: list[tuple[int, int]] = []
    for k in order:
        used = 0
        for j in adjacency[k]:
            used |= chosen[j]
        free = masks[k] & ~used
        if not free:
            return None
        low = free & -free
        chosen[k] = low
        picks.append((members[k], low.bit_length() - 1))
    return picks


# ---------------------------------------------------------------------------
# leaf-block peeling (graph not 2-connected)
# ---------------------------------------------------------------------------

def _peel_leaf_block(
    graph: Graph,
    lists: ListAssignment,
    blocks: list[frozenset[Vertex]],
    cuts: set[Vertex],
    anchor_block: frozenset[Vertex],
) -> dict[Vertex, Color]:
    """Peel a leaf block different from ``anchor_block`` and recurse."""
    leaf = None
    for block in blocks:
        if block == anchor_block:
            continue
        if len(block & cuts) <= 1:
            leaf = block
            break
    if leaf is None:
        # the anchor block is itself the unique leaf: peel any other leaf
        # block (there are at least two leaves in a block tree with >= 2
        # blocks, so this can only happen when the anchor is one of them and
        # every other block is internal — impossible; defensive fallback)
        result = list_coloring_search(graph, lists)
        if result is None:
            raise ColoringError("failed to select a leaf block to peel")
        return result

    cut_in_leaf = next(iter(leaf & cuts), None)
    if cut_in_leaf is None:
        # disconnected defensive case; should not happen for connected graphs
        raise ColoringError("leaf block without a cut vertex in a connected graph")

    body = set(leaf) - {cut_in_leaf}
    # 1. color the leaf body first; neighbours of the cut vertex have slack
    #    inside the body because they lose a neighbour but no colors
    body_graph = graph.subgraph(body)
    body_coloring: dict[Vertex, Color] = {}
    for component in body_graph.connected_components():
        comp_graph = body_graph.subgraph(component)
        slack = next(
            (v for v in component if graph.has_edge(v, cut_in_leaf)), None
        )
        comp_lists = lists.restrict(component)
        if slack is None:
            slack = _find_slack_vertex(comp_graph, comp_lists)
        if slack is None:
            # every body vertex keeps its full degree inside the body, which
            # contradicts B being 2-connected; fall back defensively
            found = list_coloring_search(comp_graph, comp_lists)
            if found is None:
                raise ColoringError("leaf-block body could not be colored")
            body_coloring.update(found)
        else:
            body_coloring.update(_greedy_towards(comp_graph, comp_lists, slack))

    # 2. shrink the cut vertex's list by the colors used on its leaf-neighbours
    used_on_leaf = {
        body_coloring[u]
        for u in graph.neighbors(cut_in_leaf)
        if u in body_coloring
    }
    remaining_vertices = (set(graph.vertices()) - body) | {cut_in_leaf}
    rest = graph.subgraph(remaining_vertices)
    rest_lists_dict = lists.restrict(remaining_vertices).as_dict()
    rest_lists_dict[cut_in_leaf] = rest_lists_dict[cut_in_leaf] - frozenset(
        used_on_leaf
    )
    rest_lists = ListAssignment(rest_lists_dict)
    if len(rest_lists[cut_in_leaf]) < rest.degree(cut_in_leaf):
        raise ColoringError(
            "cut vertex lost too many colors while peeling a leaf block; "
            "this violates the Theorem 1.1 invariant"
        )

    # 3. recurse on the rest (still contains the anchor non-Gallai block)
    rest_coloring = _solve_connected(rest, rest_lists)
    rest_coloring.update(body_coloring)
    return rest_coloring


# ---------------------------------------------------------------------------
# 2-connected case
# ---------------------------------------------------------------------------

def _solve_biconnected(
    graph: Graph, lists: ListAssignment, promised_non_gallai: bool
) -> dict[Vertex, Color]:
    """Color a 2-connected graph with tight lists (no slack vertex)."""
    if _is_even_cycle(graph):
        return _color_even_cycle(graph, lists)

    triple = _find_brooks_triple(graph, lists, require_common_color=True)
    if triple is not None:
        a, b, c, common = triple
        return _color_with_identified_pair(graph, lists, a, b, c, common)

    # Residual case: every admissible triple has disjoint lists.  Theorem 1.1
    # still guarantees a coloring when the graph is not a clique or odd
    # cycle; find it exhaustively.
    result = list_coloring_search(graph, lists)
    if result is None:
        if promised_non_gallai:
            raise ColoringError(
                "exhaustive search failed on a 2-connected non-Gallai block; "
                "this contradicts Theorem 1.1 (please report)"
            )
        raise ColoringError(
            "the block is a clique or odd cycle with tight lists; "
            "no coloring is guaranteed and none exists for these lists"
        )
    return result


def _is_even_cycle(graph: Graph) -> bool:
    n = graph.number_of_vertices()
    return (
        n >= 4
        and n % 2 == 0
        and graph.number_of_edges() == n
        and all(graph.degree(v) == 2 for v in graph)
        and graph.is_connected()
    )


def _color_even_cycle(graph: Graph, lists: ListAssignment) -> dict[Vertex, Color]:
    """Color an even cycle from lists of size >= 2.

    If two adjacent vertices have different lists, start there (give the
    first vertex a color outside its neighbour's list); otherwise all lists
    are equal and a proper 2-coloring alternates two colors of the common
    list.
    """
    order = _cycle_order(graph)
    n = len(order)
    start_index = None
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if lists[u] != lists[v]:
            start_index = i
            break
    coloring: dict[Vertex, Color] = {}
    if start_index is None:
        # all lists identical: alternate two colors
        palette = sorted(lists[order[0]], key=repr)
        first, second = palette[0], palette[1]
        for i, v in enumerate(order):
            coloring[v] = first if i % 2 == 0 else second
        return coloring
    u = order[start_index]
    v = order[(start_index + 1) % n]
    outside = lists[u] - lists[v]
    if outside:
        coloring[u] = min(outside, key=repr)
    else:
        # L(u) strictly contained in L(v) is impossible for equal sizes and
        # different lists, so lists[v] - lists[u] is non-empty: swap roles.
        u, v = v, u
        start_index = (start_index + 1) % n
        coloring[u] = min(lists[u] - lists[v], key=repr)
    # walk around the cycle away from v, ending at v, greedily
    sequence = [order[(start_index - k) % n] for k in range(1, n)]
    for w in sequence:
        used = {coloring[x] for x in graph.neighbors(w) if x in coloring}
        available = lists[w] - used
        if not available:
            raise ColoringError("even-cycle coloring failed; lists too small")
        coloring[w] = min(available, key=repr)
    return coloring


def _cycle_order(graph: Graph) -> list[Vertex]:
    start = next(iter(graph))
    order = [start]
    previous = None
    current = start
    while True:
        neighbors = [u for u in graph.neighbors(current) if u != previous]
        nxt = neighbors[0]
        if nxt == start:
            break
        order.append(nxt)
        previous, current = current, nxt
    return order


def _find_brooks_triple(
    graph: Graph, lists: ListAssignment, require_common_color: bool
) -> tuple[Vertex, Vertex, Vertex, Color] | None:
    """Find ``(a, b, c, color)`` with ``b ~ a``, ``b ~ c``, ``a !~ c``,
    ``G - a - c`` connected, and ``color in L(a) & L(c)``.

    Returns ``None`` when no such triple exists (in particular when every
    candidate pair has disjoint lists and ``require_common_color`` is set).
    """
    vertex_count = graph.number_of_vertices()
    for b in sorted(graph, key=lambda v: -graph.degree(v)):
        neighbors = sorted(graph.neighbors(b), key=repr)
        for i, a in enumerate(neighbors):
            for c in neighbors[i + 1 :]:
                if graph.has_edge(a, c):
                    continue
                common = lists[a] & lists[c]
                if require_common_color and not common:
                    continue
                remaining = [v for v in graph if v not in (a, c)]
                sub = graph.subgraph(remaining)
                if sub.number_of_vertices() != vertex_count - 2:
                    continue
                if sub.is_connected():
                    color = min(common, key=repr) if common else None
                    return a, b, c, color
    return None


def _color_with_identified_pair(
    graph: Graph,
    lists: ListAssignment,
    a: Vertex,
    b: Vertex,
    c: Vertex,
    color: Color,
) -> dict[Vertex, Color]:
    """Color ``a`` and ``c`` with the same color, then finish greedily at ``b``."""
    coloring: dict[Vertex, Color] = {a: color, c: color}
    remaining = [v for v in graph if v not in (a, c)]
    sub = graph.subgraph(remaining)
    distances = sub.bfs_distances(b)
    if len(distances) != len(remaining):
        raise ColoringError("G - a - c is unexpectedly disconnected")
    order = sorted(distances, key=lambda v: (-distances[v], repr(v)))
    for v in order:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        available = lists[v] - used
        if not available:
            raise ColoringError(
                f"identified-pair coloring ran out of colors at {v!r}"
            )
        coloring[v] = min(available, key=repr)
    return coloring


def extend_partial_coloring(
    graph: Graph,
    lists: ListAssignment,
    partial: Mapping[Vertex, Color],
    uncolored: set[Vertex],
) -> dict[Vertex, Color]:
    """Extend ``partial`` to ``uncolored`` using Theorem 1.1 on ``G[uncolored]``.

    Lists of uncolored vertices are pruned by the colors of their colored
    neighbours (Observation 5.1) and :func:`degree_list_coloring` is applied
    to the induced subgraph.  The promise is the caller's responsibility
    (it holds for the rich balls of happy vertices).
    """
    pruned = {}
    for v in uncolored:
        used = {partial[u] for u in graph.neighbors(v) if u in partial}
        pruned[v] = lists[v] - used
    sub = graph.subgraph(uncolored)
    extension = degree_list_coloring(sub, ListAssignment(pruned))
    merged = dict(partial)
    merged.update(extension)
    return merged
