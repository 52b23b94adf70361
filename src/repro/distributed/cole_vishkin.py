"""Cole–Vishkin 3-coloring of rooted forests in O(log* n) rounds.

This is the classical symmetry-breaking primitive (used by
Goldberg–Plotkin–Shannon and by every forest-decomposition-based coloring
algorithm).  Each node knows the identifier of its parent (roots know they
are roots); the algorithm first reduces the colors to {0,...,5} by the
iterated bit trick and then removes colors 5, 4 and 3 by shift-down +
recolor steps.

The number of bit-reduction iterations is computed from ``n`` by every node
identically (they all know ``n``), so no global coordination is needed for
termination.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.frozen import HAS_NUMPY, GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
    segment_reduce,
)
from repro.local.simulator import SimulationResult, run_node_algorithm

if HAS_NUMPY:
    import numpy as _np

__all__ = [
    "ColeVishkinForestColoring",
    "BatchColeVishkinForestColoring",
    "color_rooted_forest",
    "cole_vishkin_iterations",
]


def _bit_length_colors(value: int) -> int:
    return max(value.bit_length(), 1)


def cole_vishkin_iterations(n: int) -> int:
    """Number of bit-reduction iterations needed to reach colors < 6 from IDs in [n].

    One Cole–Vishkin step maps a proper coloring with colors in ``[0, m)``
    (``b = bit_length(m-1)`` bits) to a proper coloring with colors in
    ``[0, 2b)``; iterating from ``m = n + 1`` until the bound reaches 6
    takes ``O(log* n)`` steps.
    """
    colors = max(n + 1, 2)
    iterations = 0
    while colors > 6:
        colors = 2 * _bit_length_colors(colors - 1)
        iterations += 1
        if iterations > 64:  # defensive: log* of anything representable is tiny
            break
    return iterations + 2  # two extra iterations to absorb rounding slack


def _cole_vishkin_step(own: int, parent: int) -> int:
    """One CV step: index of the lowest differing bit, concatenated with that bit."""
    diff = own ^ parent
    index = (diff & -diff).bit_length() - 1
    bit = (own >> index) & 1
    return 2 * index + bit


class ColeVishkinForestColoring(NodeAlgorithm):
    """Node program: 3-color a rooted forest.

    Input (per node): the identifier of its parent, or ``None`` (or ``0``,
    which no identifier equals) for roots.  Output: a color in ``{0, 1, 2}``.

    Protocol:
      round 1           — neighbours exchange identifiers (port discovery);
      rounds 2..T+1     — iterated Cole–Vishkin reduction to colors < 6;
      then, for c in (5, 4, 3): two rounds each — a shift-down round (every
      node adopts its parent's color, roots rotate their own) followed by a
      recolor round in which nodes holding color ``c`` pick a free color
      from {0, 1, 2} (their parent and all their children use at most two
      distinct colors after the shift-down).
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        self.parent_id: int | None = context.input
        self.color: int = context.identifier
        self.port_ids: dict[int, int] = {}
        self.parent_port: int | None = None
        self.neighbor_colors: dict[int, int] = {}
        self.cv_iterations = cole_vishkin_iterations(context.n)
        self.phase = "discover"
        self.cv_done = 0
        self.reduction_target = 5
        self.reduction_stage = "shift"
        self.done = False

    # -- helpers --------------------------------------------------------
    def _parent_color(self) -> int | None:
        if self.parent_port is None:
            return None
        return self.neighbor_colors.get(self.parent_port)

    # -- protocol -------------------------------------------------------
    def send(self, round_number: int) -> dict[int, Any]:
        if self.phase == "discover":
            return {
                port: ("id", self.context.identifier)
                for port in range(self.context.degree)
            }
        return {
            port: ("color", self.color) for port in range(self.context.degree)
        }

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.phase == "discover":
            for port, (_, identifier) in messages.items():
                self.port_ids[port] = identifier
                if self.parent_id is not None and identifier == self.parent_id:
                    self.parent_port = port
            self.phase = "cv"
            return

        for port, (_, color) in messages.items():
            self.neighbor_colors[port] = color

        if self.phase == "cv":
            parent_color = self._parent_color()
            if parent_color is None:
                # roots pretend their parent has a color differing in bit 0
                parent_color = self.color ^ 1
            self.color = _cole_vishkin_step(self.color, parent_color)
            self.cv_done += 1
            if self.cv_done >= self.cv_iterations:
                self.phase = "reduce"
                self.reduction_stage = "shift"
            return

        if self.phase == "reduce":
            if self.reduction_stage == "shift":
                parent_color = self._parent_color()
                if parent_color is None:
                    # roots rotate within {0,1,2,...}: pick a different small color
                    self.color = (self.color + 1) % 3 if self.color < 3 else 0
                else:
                    self.color = parent_color
                self.reduction_stage = "recolor"
                return
            # recolor stage: nodes with the target color pick a free color < 3
            if self.color == self.reduction_target:
                used = set(self.neighbor_colors.values())
                for candidate in (0, 1, 2):
                    if candidate not in used:
                        self.color = candidate
                        break
            if self.reduction_target > 3:
                self.reduction_target -= 1
                self.reduction_stage = "shift"
            else:
                self.done = True
                self.phase = "finished"

    def is_finished(self) -> bool:
        return self.done

    def result(self) -> int:
        return self.color


class BatchColeVishkinForestColoring(BatchNodeAlgorithm):
    """Batched port of :class:`ColeVishkinForestColoring`.

    One instance drives all nodes over the routing fabric, replaying the
    exact per-node phase machine (discover, ``T`` Cole–Vishkin iterations,
    three shift-down + recolor pairs) with one numpy array operation per
    step, so rounds, message counts and outputs are bit-identical to the
    per-node run — the parity tests assert this.  Every round broadcasts one
    integer per directed edge slot, exactly like the per-node protocol.

    The program runs in ``"broadcast"`` exchange mode: ``send_batch``
    returns the per-node value and the engine's fused kernel delivers it.
    ``receive_broadcast`` consumes the per-node array directly — a node
    only ever reads its parent's broadcast (one gather by the precomputed
    parent index) except in the recolor rounds, which reduce over the full
    neighbourhood; ``receive_batch`` keeps the historical per-slot inbox
    path alive as the unfused reference (``reference_exchange=True``).
    """

    fallback = ColeVishkinForestColoring
    exchange_mode = "broadcast"

    def initialize_batch(self, context: BatchContext) -> None:
        import numpy as np

        super().initialize_batch(context)
        n = context.n
        self._np = np
        self._src = context.sources
        self.colors = context.identifiers.copy()
        # 0 encodes "root" (identifiers start at 1)
        inputs = context.inputs
        if isinstance(inputs, np.ndarray):
            self.parent_ids = inputs.astype(np.int64, copy=False)
        else:
            self.parent_ids = np.fromiter(
                (0 if p is None else int(p) for p in inputs),
                dtype=np.int64,
                count=n,
            )
        self.parent_slot = np.full(n, -1, dtype=np.int64)
        self._has_parent = None
        self._parent_index = None
        self._root_index = None
        # reduceat starts when no segment is empty (the common case); the
        # general segment_reduce handles isolated vertices
        self._reduce_starts = (
            context.offsets[:-1]
            if n and int(context.degrees.min()) > 0
            else None
        )
        # colors are < 6 throughout the reduce phase: shift-down rotation
        # ((c + 1) % 3 if c < 3 else 0) as one table gather
        self._rotate = np.array([1, 2, 0, 0, 0, 0], dtype=np.int64)
        # the iteration count must come from the *announced* n (known_n), not
        # the array length: on a truncated r-ball network the two differ and
        # every node must still run the schedule of the full network
        self.cv_iterations = cole_vishkin_iterations(context.known_n)
        self.phase = "discover"
        self.cv_done = 0
        self.reduction_target = 5
        self.reduction_stage = "shift"
        self.done = n == 0
        # used-color mask (3 bits) -> smallest free color in {0, 1, 2}
        self._free_color = np.array([0, 1, 0, 2, 0, 1, 0, 0], dtype=np.int64)

    def send_batch(self, round_number: int):
        if self.phase == "discover":
            return self.context.identifiers
        return self.colors

    def _finish_discover(self) -> None:
        np = self._np
        self._has_parent = self.parent_slot >= 0
        # node index of each node's parent (0 where rootless; masked by
        # _has_parent / _root_index everywhere it is read)
        self._parent_index = self.context.endpoints[
            np.maximum(self.parent_slot, 0)
        ]
        self._root_index = np.flatnonzero(~self._has_parent)
        self.phase = "cv"

    def _parent_colors(self, inbox):
        """Per-node parent color; roots pretend bit 0 of their own differs."""
        np = self._np
        pretend = self.colors ^ 1
        if inbox.size == 0:  # edgeless network: everyone is a root
            return pretend
        return np.where(
            self._has_parent, inbox[np.maximum(self.parent_slot, 0)], pretend
        )

    def _parent_colors_from_nodes(self, node_colors):
        """Like :meth:`_parent_colors`, but one gather by parent node index.

        ``inbox[parent_slot] == node_colors[endpoints[parent_slot]]`` — the
        per-slot inbox never needs to exist to read the parent's broadcast.
        Roots (typically a handful) are patched in place instead of paying
        a full-width ``where``.
        """
        if self.context.num_slots == 0:  # edgeless: everyone is a root
            return self.colors ^ 1
        parent = node_colors[self._parent_index]
        roots = self._root_index
        if roots.size:
            parent[roots] = self.colors[roots] ^ 1
        return parent

    def receive_broadcast(self, round_number: int, node_values) -> None:
        np = self._np
        if self.phase == "discover":
            inbox = node_values[self.context.endpoints]
            hits = np.flatnonzero(inbox == self.parent_ids[self._src])
            self.parent_slot[self._src[hits]] = hits
            self._finish_discover()
            return
        if self.phase == "cv":
            self._cv_step(self._parent_colors_from_nodes(node_values))
            return
        if self.reduction_stage == "shift":
            self._shift_step(self._parent_colors_from_nodes(node_values))
            return
        self._recolor_step(node_values[self.context.endpoints])

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        np = self._np
        if self.phase == "discover":
            hits = np.flatnonzero(inbox == self.parent_ids[self._src])
            self.parent_slot[self._src[hits]] = hits
            self._finish_discover()
            return
        if self.phase == "cv":
            self._cv_step(self._parent_colors(inbox))
            return
        if self.reduction_stage == "shift":
            self._shift_step(self._parent_colors(inbox))
            return
        self._recolor_step(inbox)

    def _cv_step(self, parent) -> None:
        np = self._np
        diff = self.colors ^ parent
        low = diff & -diff  # diff >= 1: the coloring stays proper
        index = np.log2(low.astype(np.float64)).astype(np.int64)
        self.colors = 2 * index + ((self.colors >> index) & 1)
        self.cv_done += 1
        if self.cv_done >= self.cv_iterations:
            self.phase = "reduce"
            self.reduction_stage = "shift"

    def _shift_step(self, parent) -> None:
        roots = self._root_index
        if roots.size == self.colors.size:
            self.colors = self._rotate[self.colors]
        else:
            colors = parent if parent is not self.colors else parent.copy()
            if roots.size:
                colors[roots] = self._rotate[self.colors[roots]]
            self.colors = colors
        self.reduction_stage = "recolor"

    def _recolor_step(self, inbox) -> None:
        np = self._np
        starts = self._reduce_starts
        if starts is not None:
            used = np.bitwise_or.reduceat(1 << inbox, starts)
        else:
            used = segment_reduce(
                np.bitwise_or, 1 << inbox, self.context.offsets, empty=0
            )
        free = self._free_color[used & 7]
        self.colors = np.where(
            self.colors == self.reduction_target, free, self.colors
        )
        if self.reduction_target > 3:
            self.reduction_target -= 1
            self.reduction_stage = "shift"
        else:
            self.done = True
            self.phase = "finished"

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> list[int]:
        return self.colors.tolist()


def color_rooted_forest(
    graph: GraphLike,
    parents: dict[Vertex, Vertex | None],
    batched: bool = True,
) -> SimulationResult:
    """Run Cole–Vishkin on a forest given the parent pointer of every vertex.

    ``parents[v]`` is the parent vertex of ``v`` or ``None`` for roots; the
    forest must be consistent with ``graph`` (every non-root's parent is a
    neighbour).  Returns the simulation result; outputs are colors in
    ``{0, 1, 2}``.

    ``batched=True`` (the default) runs the vectorized
    :class:`BatchColeVishkinForestColoring` program, which produces the
    same result and falls back to the per-node program when numpy is
    unavailable; pass ``batched=False`` to force the per-node path.
    """
    from repro.local.network import Network

    frozen = freeze(graph)
    network = Network(frozen)
    # index-aligned parent identifiers: the default order gives the vertex
    # at frozen index i the identifier i + 1; 0 marks a root
    index = frozen._index
    parent_ids = (
        0 if p is None else index[p] + 1 for p in map(parents.get, network.labels)
    )
    n = frozen.number_of_vertices()
    inputs = (
        _np.fromiter(parent_ids, dtype=_np.int64, count=n) if HAS_NUMPY
        else list(parent_ids)
    )
    algorithm = (
        BatchColeVishkinForestColoring if batched else ColeVishkinForestColoring
    )
    return run_node_algorithm(
        graph,
        algorithm,
        inputs=inputs,
        max_rounds=10 * cole_vishkin_iterations(graph.number_of_vertices()) + 30,
        network=network,
    )
