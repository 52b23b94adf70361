"""Randomized track: Moser–Tardos list coloring + O(log n) randomized Δ+1.

Two randomized counterparts to the deterministic Theorem 1.3 pipeline,
grounded in "A local lemma via entropy compression" (Alves–Procacci–
Sanchis, PAPERS.md):

* :func:`moser_tardos_list_coloring` — the entropy-compression resampler
  for list coloring.  Every vertex samples a color from its
  :class:`~repro.coloring.palette.FlatListAssignment` mask; violated
  events (monochromatic edges) are detected vectorized over the CSR, the
  violated vertex set is resampled, and the *record log* — the sequence
  of resampled sets — is returned as a replayable witness.  The
  entropy-compression argument is exactly that this log plus the final
  state determine the random bits consumed, so an auditor
  (:class:`repro.verify.randomized.ResampleLogOracle`) can replay the
  run bit-for-bit and reject any doctored log.

* :class:`RandomizedDeltaPlusOne` / :class:`BatchRandomizedDeltaPlusOne`
  — the classic O(log n)-round trial-color + conflict-retreat (Δ+1)-
  coloring as a genuine node program.  Each round every uncolored vertex
  draws a uniform color from its remaining palette and keeps it unless a
  neighbour announced the same value; committed vertices broadcast their
  final color once and fall silent.  The batched twin runs in the
  engine's sparse ``"active"`` exchange mode, so per-round cost tracks
  the geometrically shrinking uncolored frontier.

**Counter-based randomness.**  All draws come from a vectorized
Philox-4x64-10 keyed by ``(seed, node_id)`` with the round (or resample
step) as the counter — bit-identical to ``numpy.random.Philox`` (the
parity is pinned by the test suite).  Because the bits depend only on
``(seed, node_id, round)`` and never on iteration order, the dict and
flat backends and the per-node and batched engines all consume the same
randomness and therefore produce bit-identical colorings, round counts
and resample logs from the same seed — the four-engine parity discipline
of ``tests/test_kernel_parity.py`` extended to randomized programs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.coloring.palette import (
    FlatListAssignment,
    ListAssignmentError,
)
from repro.graphs.frozen import GraphLike, freeze
from repro.local.network import Network
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
)
from repro.local.simulator import run_node_algorithm

__all__ = [
    "philox4x64",
    "counter_rng",
    "counter_rng_one",
    "RandomizedDeltaPlusOne",
    "BatchRandomizedDeltaPlusOne",
    "RandomizedColoringResult",
    "randomized_delta_plus_one_coloring",
    "ResampleStep",
    "ResampleLimitError",
    "MoserTardosResult",
    "moser_tardos_list_coloring",
    "resample_log_digest",
]


# -- counter-based RNG kernel ---------------------------------------------

_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: second key word: a fixed domain-separation salt so repo streams never
#: collide with other Philox users of the same seed
KEY_SALT = 0x726570726F2D7231  # b"repro-r1"


def _mulhilo(a, b, np):
    """128-bit product of two uint64 arrays as a ``(hi, lo)`` pair."""
    mask32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    lo = a * b
    a_lo = a & mask32
    a_hi = a >> s32
    b_lo = b & mask32
    b_hi = b >> s32
    t = a_lo * b_lo
    mid1 = a_hi * b_lo
    mid2 = a_lo * b_hi
    carry = ((t >> s32) + (mid1 & mask32) + (mid2 & mask32)) >> s32
    hi = a_hi * b_hi + (mid1 >> s32) + (mid2 >> s32) + carry
    return hi, lo


def philox4x64(counter0, counter1, counter2, counter3, key0, key1):
    """Vectorized Philox-4x64 (10 rounds) over uint64 arrays.

    Bit-identical to the block function of ``numpy.random.Philox`` (numpy
    pre-increments the counter before its first block, which the parity
    test accounts for).  All inputs broadcast; returns the four output
    lanes as uint64 arrays.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        x0 = np.asarray(counter0, dtype=np.uint64)
        x1 = np.asarray(counter1, dtype=np.uint64)
        x2 = np.asarray(counter2, dtype=np.uint64)
        x3 = np.asarray(counter3, dtype=np.uint64)
        k0 = np.asarray(key0, dtype=np.uint64)
        k1 = np.asarray(key1, dtype=np.uint64)
        m0 = np.uint64(_PHILOX_M0)
        m1 = np.uint64(_PHILOX_M1)
        w0 = np.uint64(_PHILOX_W0)
        w1 = np.uint64(_PHILOX_W1)
        for i in range(10):
            if i > 0:
                k0 = k0 + w0
                k1 = k1 + w1
            hi0, lo0 = _mulhilo(m0, x0, np)
            hi1, lo1 = _mulhilo(m1, x2, np)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        return x0, x1, x2, x3


def counter_rng(seed: int, node_ids, round_number: int):
    """One uint64 per node for ``(seed, node_id, round_number)``.

    Key = ``(seed, salt)``, counter = ``(round, node_id, 0, 0)``: a pure
    function of the triple, so any engine — per-node or batched, in any
    visitation order — derives the identical draw for a node and round.
    """
    import numpy as np

    ids = np.asarray(node_ids, dtype=np.uint64)
    zero = np.zeros_like(ids)
    c0 = np.full_like(ids, np.uint64(round_number & _MASK64))
    lane0, _, _, _ = philox4x64(
        c0, ids, zero, zero,
        np.uint64(int(seed) & _MASK64), np.uint64(KEY_SALT),
    )
    return lane0


def counter_rng_one(seed: int, node_id: int, round_number: int) -> int:
    """Scalar convenience form of :func:`counter_rng` (a Python int)."""
    return int(counter_rng(seed, [int(node_id)], round_number)[0])


def _kth_set_bit_scalar(mask: int, k: int) -> int:
    """Index of the ``k``-th (0-based, ascending) set bit of ``mask``."""
    for _ in range(k):
        mask &= mask - 1
    low = mask & -mask
    return low.bit_length() - 1


def _kth_set_bit(masks, k, np):
    """Vectorized :func:`_kth_set_bit_scalar` over int64 masks."""
    m = masks.astype(np.uint64)
    remaining = k.astype(np.int64).copy()
    one = np.uint64(1)
    while True:
        active = remaining > 0
        if not active.any():
            break
        m[active] &= m[active] - one
        remaining[active] -= 1
    low = m & (np.uint64(0) - m)
    return np.bitwise_count(low - one).astype(np.int64)


# -- randomized (Δ+1)-coloring: trial-color + conflict-retreat ------------


class RandomizedDeltaPlusOne(NodeAlgorithm):
    """Per-node randomized (Δ+1)-coloring.

    Input (per node): ``(seed, delta)``.  Output: a color in
    ``{1..Δ+1}``.  Protocol per round, for an uncolored node: draw a
    uniform color from the remaining palette (bits keyed by
    ``(seed, identifier, round)``), announce it on every port, and keep
    it unless any neighbour announced the same |value| this round.  A
    node that keeps its color announces ``-color`` once the next round
    (so neighbours prune their palettes) and then terminates.  Retreat is
    symmetric — two clashing neighbours both redraw — so the committed
    partial coloring is proper by construction.
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        seed, delta = context.input
        self.seed = int(seed)
        self.delta = int(delta)
        # colors are bit indices 1..delta+1 (bit 0 unused, matching the
        # {1..Δ+1} palette convention of the deterministic baselines)
        self.avail = ((1 << (self.delta + 1)) - 1) << 1
        self.color = 0
        self.trial = 0
        self.pending = False  # colored; the one final broadcast still owed
        self.done = False
        self.colored_round: int | None = None

    def send(self, round_number: int) -> dict[int, Any]:
        if self.done:
            return {}
        degree = self.context.degree
        if self.pending:
            return {port: -self.color for port in range(degree)}
        bits = counter_rng_one(self.seed, self.context.identifier, round_number)
        count = self.avail.bit_count()
        self.trial = _kth_set_bit_scalar(self.avail, bits % count)
        return {port: self.trial for port in range(degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.done:
            return
        if self.pending:
            self.pending = False
            self.done = True
            return
        values = messages.values()
        conflict = False
        for value in values:
            if value < 0:
                self.avail &= ~(1 << -value)
            if abs(value) == self.trial:
                conflict = True
        if conflict:
            return  # retreat: redraw from the (possibly pruned) palette
        self.color = self.trial
        self.colored_round = round_number
        self.pending = True

    def is_finished(self) -> bool:
        return self.done

    def result(self) -> int:
        return self.color


class BatchRandomizedDeltaPlusOne(BatchNodeAlgorithm):
    """Batched twin of :class:`RandomizedDeltaPlusOne` (``"active"`` mode).

    ``send_batch`` routes only the frontier's slots — the uncolored
    vertices plus the just-committed ones owing their final broadcast —
    so per-round cost (and the engine's message ledger) tracks the
    shrinking frontier exactly like the per-node program's.  The palette
    bit trick needs ``Δ + 2 < 63``; wider instances decline
    :meth:`can_run` and fall back per-node transparently.

    ``frontier_log[r-1]`` records the uncolored count at round ``r``'s
    send — the conflict-set trace consumed by
    :class:`repro.verify.randomized.RandomizedRoundsOracle`.
    """

    fallback = RandomizedDeltaPlusOne
    exchange_mode = "active"

    def can_run(self, context: BatchContext) -> bool:
        try:
            import numpy as np  # noqa: F401
        except ImportError:  # pragma: no cover - numpy is baked in
            return False
        delta = self._input_delta(context.inputs)
        return delta is not None and delta + 2 < 63

    @staticmethod
    def _input_delta(inputs) -> int | None:
        for item in inputs:
            if item is not None:
                return int(item[1])
        return None

    def initialize_batch(self, context: BatchContext) -> None:
        import numpy as np

        super().initialize_batch(context)
        self._np = np
        n = context.n
        seed = delta = 0
        for item in context.inputs:
            if item is not None:
                seed, delta = int(item[0]), int(item[1])
                break
        self.seed = seed
        self.delta = delta
        full = ((1 << (delta + 1)) - 1) << 1
        self.avail = np.full(n, full, dtype=np.int64)
        self.colors = np.zeros(n, dtype=np.int64)
        self.trial = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.done_mask = np.zeros(n, dtype=bool)
        self.done = n == 0
        self.frontier_log: list[int] = []

    def send_batch(self, round_number: int):
        np = self._np
        context = self.context
        uncolored = self.colors == 0
        self.frontier_log.append(int(uncolored.sum()))
        front = np.flatnonzero(uncolored | self.pending)
        if front.size == 0:
            return None
        unc = np.flatnonzero(uncolored)
        if unc.size:
            bits = counter_rng(self.seed, context.identifiers[unc], round_number)
            counts = np.bitwise_count(self.avail[unc].astype(np.uint64))
            k = (bits % counts).astype(np.int64)
            self.trial[unc] = _kth_set_bit(self.avail[unc], k, np)
        node_values = np.where(self.pending, -self.colors, self.trial)
        starts = context.offsets[front]
        counts_f = context.degrees[front]
        total = int(counts_f.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        bounds = np.cumsum(counts_f)
        slots = np.repeat(starts - (bounds - counts_f), counts_f)
        slots += np.arange(total, dtype=np.int64)
        values = np.repeat(node_values[front], counts_f)
        return slots, values

    def receive_active(self, round_number: int, dest_slots, values) -> None:
        np = self._np
        context = self.context
        was_pending = np.flatnonzero(self.pending)
        uncolored = (self.colors == 0) & ~self.done_mask
        conflict = np.zeros(context.n, dtype=bool)
        if dest_slots is not None and len(dest_slots):
            receivers = context.sources[dest_slots]
            negative = values < 0
            if negative.any():
                clear = np.zeros(context.n, dtype=np.int64)
                np.bitwise_or.at(
                    clear, receivers[negative],
                    np.int64(1) << -values[negative],
                )
                self.avail &= ~clear
            hit = np.abs(values) == self.trial[receivers]
            np.logical_or.at(conflict, receivers[hit], True)
        commit = np.flatnonzero(uncolored & ~conflict)
        self.colors[commit] = self.trial[commit]
        self.pending[commit] = True
        self.pending[was_pending] = False
        self.done_mask[was_pending] = True
        self.done = bool(self.done_mask.all())

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> list[int]:
        return self.colors.tolist()


@dataclass(frozen=True)
class RandomizedColoringResult:
    """Outcome of one randomized (Δ+1)-coloring run.

    ``frontier[r-1]`` is the number of uncolored vertices entering round
    ``r`` — the per-round conflict-set trace the rounds oracle audits
    (non-increasing, drains to 0, O(log n) length).
    """

    coloring: dict[Any, int]
    rounds: int
    messages: int
    palette_size: int
    frontier: tuple[int, ...]
    seed: int


def default_round_cap(n: int) -> int:
    """A generous non-termination guard: far above the whp O(log n)."""
    return 48 * max(1, int(n).bit_length()) + 96


def randomized_delta_plus_one_coloring(
    graph: GraphLike,
    *,
    seed: int,
    batched: bool = True,
    network: Network | None = None,
    max_rounds: int | None = None,
    reference_exchange: bool = False,
) -> RandomizedColoringResult:
    """Run the randomized (Δ+1)-coloring and return coloring + trace.

    ``batched=False`` forces the per-node program; both paths reconstruct
    the same frontier trace and — by the counter-based RNG contract —
    the same coloring, rounds and message counts for the same ``seed``.
    """
    if graph.number_of_vertices() == 0:
        return RandomizedColoringResult({}, 0, 0, 1, (), int(seed))
    if network is None:
        graph = freeze(graph)
        network = Network(graph)
    else:
        graph = network.graph
    delta = max(1, graph.max_degree())
    if max_rounds is None:
        max_rounds = default_round_cap(graph.number_of_vertices())
    # index-aligned: every node gets the same (seed, Δ) pair
    inputs = [(int(seed), delta)] * graph.number_of_vertices()
    captured: list[Any] = []
    use_batch = batched and delta + 2 < 63

    def factory():
        algorithm = (
            BatchRandomizedDeltaPlusOne() if use_batch
            else RandomizedDeltaPlusOne()
        )
        captured.append(algorithm)
        return algorithm

    run = run_node_algorithm(
        graph,
        factory,
        inputs=inputs,
        max_rounds=max_rounds,
        network=network,
        reference_exchange=reference_exchange,
    )
    if use_batch:
        programs = [a for a in captured if getattr(a, "frontier_log", None)]
        frontier = tuple(programs[0].frontier_log) if programs else ()
    else:
        nodes = [a for a in captured if getattr(a, "context", None) is not None]
        frontier = tuple(
            sum(
                1
                for a in nodes
                if a.colored_round is None or a.colored_round >= r
            )
            for r in range(1, run.rounds + 1)
        )
    return RandomizedColoringResult(
        coloring=dict(run.outputs.items()),
        rounds=run.rounds,
        messages=run.messages_sent,
        palette_size=delta + 1,
        frontier=frontier,
        seed=int(seed),
    )


# -- Moser–Tardos entropy-compression resampler ---------------------------


class ResampleLimitError(RuntimeError):
    """The resampler exceeded its step budget without converging."""


@dataclass(frozen=True)
class ResampleStep:
    """One entry of the entropy-compression record log.

    ``vertices`` are positions in the frozen graph's vertex order — the
    violated set (every endpoint of a monochromatic edge) resampled at
    this step.
    """

    step: int
    vertices: tuple[int, ...]


def resample_log_digest(log: Iterable[ResampleStep], *, seed: int) -> str:
    """Canonical digest of a resample log (seed + every violated set)."""
    h = hashlib.sha256()
    h.update(f"seed={int(seed)}".encode())
    for entry in log:
        h.update(
            f"|{entry.step}:{','.join(str(v) for v in entry.vertices)}".encode()
        )
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class MoserTardosResult:
    """Final coloring plus the replayable entropy-compression witness."""

    coloring: dict[Any, Any]
    steps: int
    log: tuple[ResampleStep, ...]
    seed: int
    backend: str

    def log_digest(self) -> str:
        return resample_log_digest(self.log, seed=self.seed)


def _as_flat_lists(lists) -> FlatListAssignment:
    if isinstance(lists, FlatListAssignment):
        return lists
    if hasattr(lists, "as_dict"):
        lists = lists.as_dict()
    return FlatListAssignment(dict(lists))


def moser_tardos_list_coloring(
    graph: GraphLike,
    lists,
    *,
    seed: int,
    backend: str = "flat",
    max_steps: int | None = None,
) -> MoserTardosResult:
    """Moser–Tardos resampling until no monochromatic edge remains.

    Step 0 samples every vertex independently and uniformly from its
    list; step ``t >= 1`` recomputes the violated set (all endpoints of
    monochromatic edges), records it in the log, and resamples exactly
    those vertices with fresh ``(seed, node_id, t)`` bits.  ``backend``
    picks the vectorized CSR path (``"flat"``) or the pure-Python
    reference (``"dict"``); both consume identical randomness and emit
    bit-identical colorings and logs.
    """
    if backend not in ("flat", "dict"):
        raise ValueError(f"unknown backend {backend!r}")
    graph = freeze(graph)
    n = graph.number_of_vertices()
    flat = _as_flat_lists(lists)
    if n == 0:
        # zero-vertex instance: a vacuous success, and the well-defined
        # minimum_size(default=...) keeps the precondition below vacuous
        return MoserTardosResult({}, 0, (), int(seed), backend)
    if not flat.covers(graph):
        missing = next(v for v in graph if v not in flat)
        raise ListAssignmentError(f"vertex {missing!r} has no list")
    vertices = graph.vertices()
    masks = [flat.mask_of(v) for v in vertices]
    # minimum_size(default=1) keeps the precondition vacuous on the
    # zero-vertex restriction while still rejecting genuinely empty lists
    if flat.restrict(vertices).minimum_size(default=1) < 1:
        empty_at = next(v for v, m in zip(vertices, masks) if m == 0)
        raise ListAssignmentError(f"vertex {empty_at!r} has an empty list")
    if max_steps is None:
        max_steps = 64 + 16 * n
    use_flat = backend == "flat"
    if use_flat:
        try:
            import numpy as np  # noqa: F401
        except ImportError:  # pragma: no cover - numpy is baked in
            use_flat = False
    if use_flat and max(masks).bit_length() > 62:
        use_flat = False  # >62-bit universes stay on the int reference path
    if use_flat:
        colors, log = _mt_flat(graph, masks, int(seed), max_steps)
    else:
        colors, log = _mt_dict(graph, masks, int(seed), max_steps)
    color_of = flat.universe.color_of
    coloring = {v: color_of(int(bit)) for v, bit in zip(vertices, colors)}
    return MoserTardosResult(
        coloring=coloring,
        steps=len(log),
        log=tuple(log),
        seed=int(seed),
        backend=backend,
    )


def _mt_dict(graph, masks, seed, max_steps):
    """Pure-Python Moser–Tardos core (the dict-backend reference)."""
    n = graph.number_of_vertices()
    vertices = graph.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    nbrs = [[index[u] for u in graph.neighbors(v)] for v in vertices]

    def draw(i, step):
        bits = counter_rng_one(seed, i + 1, step)
        mask = masks[i]
        return _kth_set_bit_scalar(mask, bits % mask.bit_count())

    colors = [draw(i, 0) for i in range(n)]
    log = []
    step = 0
    while True:
        violated = sorted(
            {i for i in range(n) for j in nbrs[i] if colors[i] == colors[j]}
        )
        if not violated:
            return colors, log
        step += 1
        if step > max_steps:
            raise ResampleLimitError(
                f"no proper list coloring after {max_steps} resample steps"
            )
        log.append(ResampleStep(step, tuple(violated)))
        for i in violated:
            colors[i] = draw(i, step)


def _mt_flat(graph, masks, seed, max_steps):
    """Vectorized Moser–Tardos core over the frozen CSR."""
    import numpy as np

    n = graph.number_of_vertices()
    offsets, endpoints = graph.csr_arrays()
    offsets = np.asarray(offsets, dtype=np.int64)
    endpoints = np.asarray(endpoints, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    masks_arr = np.array(masks, dtype=np.int64)
    counts = np.bitwise_count(masks_arr.astype(np.uint64))

    def draw(idx, step):
        bits = counter_rng(seed, (idx + 1).astype(np.uint64), step)
        k = (bits % counts[idx]).astype(np.int64)
        return _kth_set_bit(masks_arr[idx], k, np)

    everyone = np.arange(n, dtype=np.int64)
    colors = draw(everyone, 0)
    log = []
    step = 0
    while True:
        mono = colors[sources] == colors[endpoints]
        violated = np.unique(sources[mono])
        if violated.size == 0:
            return colors.tolist(), log
        step += 1
        if step > max_steps:
            raise ResampleLimitError(
                f"no proper list coloring after {max_steps} resample steps"
            )
        log.append(ResampleStep(step, tuple(int(v) for v in violated)))
        colors[violated] = draw(violated, step)
