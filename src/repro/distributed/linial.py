"""Linial's O(Δ²)-coloring in O(log* n) rounds, plus color reduction to Δ+1.

Linial's algorithm repeatedly shrinks a proper coloring using polynomial
hash families: with the current color space of size ``m`` and a prime ``q``
with ``q^(d+1) >= m`` and ``q > d * Δ``, every color is interpreted as a
polynomial of degree at most ``d`` over GF(q); a vertex picks an evaluation
point ``x`` on which its polynomial differs from the polynomials of all its
neighbours (at most ``d Δ < q`` points are excluded), and its new color is
the pair ``(x, p(x))`` — a value in a space of size ``q²``.  Iterating
O(log* n) times brings the number of colors down to O(Δ²).

The schedule of parameters ``(q, d, m)`` is a deterministic function of
``(n, Δ)``, so all nodes compute it locally and terminate simultaneously
without coordination.

:class:`ColorReductionAlgorithm` then removes one color class per round
(highest color first), each vertex of the class picking a free color in
``{0..Δ}``; composing the two yields the standard (Δ+1)-coloring in
``O(log* n + Δ²)`` rounds used as the "partition into d+1 stable sets"
subroutine of Lemma 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.graphs.graph import Graph, Vertex
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
    lowest_free_bit,
    segment_reduce,
)
from repro.local.simulator import run_node_algorithm

__all__ = [
    "linial_schedule",
    "LinialColoringAlgorithm",
    "BatchLinialColoringAlgorithm",
    "ColorReductionAlgorithm",
    "BatchColorReductionAlgorithm",
    "delta_plus_one_coloring",
    "DistributedColoringResult",
]


def _next_prime(value: int) -> int:
    """The smallest prime strictly greater than ``value``."""
    candidate = max(2, value + 1)
    while True:
        if all(candidate % p for p in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1


def _iteration_parameters(m: int, max_degree: int) -> tuple[int, int]:
    """Choose ``(q, d)`` with ``q`` prime, ``q^(d+1) >= m`` and ``q > d*Δ``."""
    delta = max(1, max_degree)
    q = _next_prime(delta)
    while True:
        # smallest degree that lets polynomials over GF(q) encode m colors
        d = 1
        while q ** (d + 1) < m:
            d += 1
        if q > d * delta:
            return q, d
        q = _next_prime(d * delta)


def linial_schedule(n: int, max_degree: int) -> list[tuple[int, int, int]]:
    """The deterministic sequence of ``(m, q, d)`` parameter triples.

    Starts from the identifier space of size ``n`` and stops when an
    iteration would not shrink the color space any further.
    """
    schedule: list[tuple[int, int, int]] = []
    m = max(n, 2)
    for _ in range(64):  # log* of anything representable
        q, d = _iteration_parameters(m, max_degree)
        new_m = q * q
        if new_m >= m:
            break
        schedule.append((m, q, d))
        m = new_m
    return schedule


def _polynomial_value(color: int, x: int, q: int, degree: int) -> int:
    """Evaluate the base-q-digit polynomial of ``color`` at ``x`` over GF(q)."""
    value = 0
    remaining = color
    power = 1
    for _ in range(degree + 1):
        coefficient = remaining % q
        remaining //= q
        value = (value + coefficient * power) % q
        power = (power * x) % q
    return value


class LinialColoringAlgorithm(NodeAlgorithm):
    """Node program computing an O(Δ²)-coloring in O(log* n) rounds.

    Input (per node): the maximum degree Δ of the graph (an ``int``).
    Output: ``(color, palette_size)`` where ``color < palette_size`` and the
    coloring is proper.
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        max_degree = int(context.input)
        self.max_degree = max_degree
        self.schedule = linial_schedule(context.n, max_degree)
        self.step = 0
        self.color = context.identifier - 1  # colors live in [0, n)
        self.palette = max(context.n, 2)

    def send(self, round_number: int) -> dict[int, Any]:
        if self.step >= len(self.schedule):
            return {}
        return {port: self.color for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.step >= len(self.schedule):
            return
        _m, q, d = self.schedule[self.step]
        neighbor_colors = list(messages.values())
        own = self.color
        chosen_x = None
        for x in range(q):
            own_value = _polynomial_value(own, x, q, d)
            if all(
                _polynomial_value(other, x, q, d) != own_value
                for other in neighbor_colors
                if other != own
            ):
                chosen_x = x
                break
        if chosen_x is None:  # cannot happen when q > d * Δ; defensive
            chosen_x = 0
        self.color = chosen_x * q + _polynomial_value(own, chosen_x, q, d)
        self.palette = q * q
        self.step += 1

    def is_finished(self) -> bool:
        return self.step >= len(self.schedule)

    def result(self) -> tuple[int, int]:
        return self.color, self.palette


class BatchLinialColoringAlgorithm(BatchNodeAlgorithm):
    """Batched port of :class:`LinialColoringAlgorithm` (one array per round).

    All nodes share the same ``(n, Δ)`` schedule, so one program instance
    replays the per-node protocol with dense linear algebra: the base-``q``
    digit polynomials of all current colors are evaluated on all of GF(q)
    at once (an ``(n, q)`` matrix), the per-slot conflicts are reduced to
    an ``(n, q)`` "excluded evaluation point" table with one segmented OR,
    and every node picks its first admissible point.  Rounds, message
    counts and outputs are identical to the per-node run (the parity tests
    assert this), which keeps the charged-round accounting of Lemma 3.2
    unchanged when the flat backend swaps this port in.
    """

    fallback = LinialColoringAlgorithm

    def can_run(self, context: BatchContext) -> bool:
        # the batched replay needs every node to run the same schedule
        inputs = context.inputs
        return bool(inputs) and all(x == inputs[0] for x in inputs)

    def initialize_batch(self, context: BatchContext) -> None:
        import numpy as np

        super().initialize_batch(context)
        self._np = np
        self.max_degree = int(context.inputs[0]) if context.inputs else 1
        # schedule and initial palette come from the announced n and the
        # identifiers, never from the array length — this keeps the batched
        # port locality-faithful on truncated r-ball networks
        self.schedule = linial_schedule(context.known_n, self.max_degree)
        self.step = 0
        self.colors = np.asarray(context.identifiers, dtype=np.int64) - 1
        self.palette = max(context.known_n, 2)
        self._src = context.sources
        self._endpoints = context.endpoints

    def send_batch(self, round_number: int):
        return self.colors[self._src]

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        np = self._np
        _m, q, d = self.schedule[self.step]
        n = self.context.n
        colors = self.colors
        # base-q digits of every color: (n, d+1)
        digits = np.empty((n, d + 1), dtype=np.int64)
        remaining = colors.copy()
        for k in range(d + 1):
            digits[:, k] = remaining % q
            remaining //= q
        # powers[x, k] = x^k mod q: (q, d+1)
        xs = np.arange(q, dtype=np.int64)
        powers = np.ones((q, d + 1), dtype=np.int64)
        for k in range(1, d + 1):
            powers[:, k] = (powers[:, k - 1] * xs) % q
        values = (digits @ powers.T) % q  # (n, q): p_v(x) for every v, x
        # a point x is excluded for v when some neighbour u with a
        # *different* color satisfies p_u(x) == p_v(x)
        src, endpoints = self._src, self._endpoints
        conflicting = (inbox != colors[src])[:, None] & (
            values[endpoints] == values[src]
        )
        offsets = self.context.offsets
        excluded = np.zeros((n, q), dtype=bool)
        starts = offsets[:-1]
        nonempty = np.flatnonzero(starts != offsets[1:])
        if nonempty.size:
            excluded[nonempty] = np.logical_or.reduceat(
                conflicting, starts[nonempty], axis=0
            )
        chosen = np.argmax(~excluded, axis=1)  # first admissible x (0 if none)
        self.colors = chosen * q + values[np.arange(n), chosen]
        self.palette = q * q
        self.step += 1

    def is_finished_batch(self) -> bool:
        return self.step >= len(self.schedule)

    def results_batch(self) -> list[tuple[int, int]]:
        palette = self.palette
        return [(int(c), palette) for c in self.colors]


class ColorReductionAlgorithm(NodeAlgorithm):
    """Reduce a proper coloring with ``m`` colors to ``Δ+1`` colors.

    Input (per node): ``(initial_color, m, Δ)``.  One color class is removed
    per round, from color ``m-1`` down to ``Δ+1``; vertices of the scheduled
    class pick the smallest color in ``{0..Δ}`` unused by their neighbours.
    Output: the final color (an ``int`` in ``{0..Δ}``).
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        color, palette, max_degree = context.input
        self.color = int(color)
        self.palette = int(palette)
        self.max_degree = int(max_degree)
        self.target = self.palette - 1
        self.neighbor_colors: dict[int, int] = {}

    def send(self, round_number: int) -> dict[int, Any]:
        if self.target <= self.max_degree:
            return {}
        return {port: self.color for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.target <= self.max_degree:
            return
        self.neighbor_colors = dict(messages)
        if self.color == self.target:
            used = set(self.neighbor_colors.values())
            for candidate in range(self.max_degree + 1):
                if candidate not in used:
                    self.color = candidate
                    break
        self.target -= 1

    def is_finished(self) -> bool:
        return self.target <= self.max_degree

    def result(self) -> int:
        return self.color


class BatchColorReductionAlgorithm(BatchNodeAlgorithm):
    """Batched port of :class:`ColorReductionAlgorithm`.

    One color class is retired per round exactly as in the per-node
    protocol; the "smallest free color in ``{0..Δ}``" selection runs as a
    segmented OR of neighbour color bits plus a lowest-zero-bit extraction
    (which needs ``Δ + 1 < 63``; wider palettes decline :meth:`can_run`
    and fall back per node).

    Every node broadcasts its color, so the program runs in
    ``"broadcast"`` exchange mode.  A class above ``Δ`` holds exactly the
    nodes that started in it (recolored nodes land in ``{0..Δ}``), so
    :meth:`receive_broadcast` skips the inbox gather and the reduction in
    the many rounds whose class is empty; the round still counts its
    ``num_slots`` messages.
    """

    fallback = ColorReductionAlgorithm
    exchange_mode = "broadcast"

    def can_run(self, context: BatchContext) -> bool:
        inputs = context.inputs
        if not inputs:
            return False
        palettes = {p for (_c, p, _d) in inputs}
        deltas = {d for (_c, _p, d) in inputs}
        return len(palettes) == 1 and len(deltas) == 1 and max(deltas) + 1 < 63

    def initialize_batch(self, context: BatchContext) -> None:
        import numpy as np

        super().initialize_batch(context)
        self._np = np
        inputs = context.inputs
        self.colors = np.asarray([int(c) for (c, _p, _d) in inputs], dtype=np.int64)
        self.palette = int(inputs[0][1])
        self.max_degree = int(inputs[0][2])
        self.target = self.palette - 1
        self._held = set(np.unique(self.colors).tolist())

    def send_batch(self, round_number: int):
        return self.colors

    def receive_broadcast(self, round_number: int, node_values) -> None:
        if self.target in self._held:
            self.receive_batch(
                round_number, node_values[self.context.endpoints], None
            )
        else:
            self.target -= 1

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        np = self._np
        delta = self.max_degree
        bits = np.where(inbox <= delta, np.int64(1) << inbox.clip(0, 62), 0)
        used = segment_reduce(np.bitwise_or, bits, self.context.offsets, empty=0)
        free = lowest_free_bit(used)
        moving = (self.colors == self.target) & (free <= delta)
        self.colors = np.where(moving, free, self.colors)
        self.target -= 1

    def is_finished_batch(self) -> bool:
        return self.target <= self.max_degree

    def results_batch(self) -> list[int]:
        return [int(c) for c in self.colors]


@dataclass
class DistributedColoringResult:
    """Coloring plus measured round/message counts of a simulator run."""

    coloring: dict[Vertex, int]
    rounds: int
    messages: int
    palette_size: int


def delta_plus_one_coloring(
    graph: Graph, max_degree: int | None = None, batched: bool = False
) -> DistributedColoringResult:
    """(Δ+1)-coloring via Linial + color reduction, with measured rounds.

    This is the "partition H into d+1 stable sets" subroutine invoked by
    Lemma 3.2 (the paper quotes [17] with an ``O(d log n)`` bound; the
    Linial route used here costs ``O(log* n + Δ²)`` rounds, which is
    incomparable in general but simpler and fully message-passing).

    ``batched=True`` runs the vectorized
    :class:`BatchLinialColoringAlgorithm` /
    :class:`BatchColorReductionAlgorithm` ports on the flat round engine;
    rounds, messages and colors are identical to the per-node run (and the
    ports fall back per node transparently when numpy is unavailable).
    """
    from repro.graphs.frozen import freeze
    from repro.local.network import Network

    if graph.number_of_vertices() == 0:
        return DistributedColoringResult({}, 0, 0, 1)
    frozen = freeze(graph)
    # one network (and routing fabric) shared by both simulator passes
    network = Network(frozen)
    delta = frozen.max_degree() if max_degree is None else max_degree
    delta = max(1, delta)
    linial_run = run_node_algorithm(
        frozen,
        BatchLinialColoringAlgorithm if batched else LinialColoringAlgorithm,
        inputs={v: delta for v in frozen},
        network=network,
    )
    palette = max(p for (_c, p) in linial_run.outputs.values())
    reduction_inputs = {
        v: (color, palette, delta) for v, (color, _p) in linial_run.outputs.items()
    }
    reduction_run = run_node_algorithm(
        frozen,
        BatchColorReductionAlgorithm if batched else ColorReductionAlgorithm,
        inputs=reduction_inputs,
        max_rounds=palette + 5,
        network=network,
    )
    return DistributedColoringResult(
        coloring=dict(reduction_run.outputs.items()),
        rounds=linial_run.rounds + reduction_run.rounds,
        messages=linial_run.messages_sent + reduction_run.messages_sent,
        palette_size=delta + 1,
    )
