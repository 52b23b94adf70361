"""Synchronous round engine of the LOCAL-model simulator.

The simulator repeats, until every node reports that it is finished (or a
round limit is hit):

1. ask every node for its outgoing messages (:meth:`send`),
2. deliver all messages simultaneously (:meth:`receive`).

The engine records the number of rounds and messages, which is what the
round-complexity experiments measure.  It enforces the *synchronous*
semantics strictly: all ``send`` calls of a round happen before any
``receive`` of that round, so no node can react to information it should
not yet have.

The data plane runs on the network's flat-array routing fabric
(:class:`~repro.local.network.RoutingFabric`):

* delivery is one array read — the message node ``i`` sends on port ``p``
  lands in inbox slot ``reverse_slot[offsets[i] + p]`` — instead of the
  ``neighbor_on_port`` + ``port_towards`` dict hops of the dict-routed seed
  engine (kept verbatim in :mod:`repro.local.reference` for parity tests
  and A/B benchmarks);
* inbox payloads live in one preallocated per-slot list reused across
  rounds (no fresh per-vertex dicts per round); the per-node ``receive``
  dicts are built only for nodes that actually received messages;
* termination tracks an *active set* of unfinished node indices — no
  O(n) ``all(is_finished())`` scan per round (which is why
  :meth:`NodeAlgorithm.is_finished` must be monotone);
* a :class:`~repro.local.node.BatchNodeAlgorithm` opts into the fully
  vectorized path: one ``send_batch``/``receive_batch`` numpy-array
  exchange per round for all nodes at once, falling back transparently to
  its per-node twin when numpy is unavailable;
* the batched exchange itself runs on the fused kernels of
  :mod:`repro.local.kernels` — broadcast rounds are delivered with a
  single gather by ``endpoints`` (instead of the historical send-gather +
  reverse-permutation double pass), sparse "active" rounds route only the
  frontier's slots, and per-slot rounds reuse preallocated inbox buffers.
  ``run(..., reference_exchange=True)`` forces the unfused three-pass
  delivery, kept as the oracle the parity tests pin the kernels against.

Note that finished nodes still ``send`` and ``receive`` every round until
the whole network terminates — protocols like the greedy baseline rely on
finished nodes broadcasting their state — so the per-round work is O(n + m)
either way; the flat fabric and the batched path cut the constant, which is
what the ``simulator`` scenario measures.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import NonTerminationError, SimulationError
from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local import kernels
from repro.local.network import Network
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
)

__all__ = [
    "LazyOutputs",
    "SimulationResult",
    "SynchronousSimulator",
    "run_node_algorithm",
]


class LazyOutputs(Mapping):
    """Per-vertex outputs materialized on first dict-style access.

    The batched engine produces outputs as a label list plus a value
    list; building the ``{label: value}`` dict eagerly costs more than a
    whole fused round at n = 10^5.  This view defers that build until a
    consumer actually indexes, iterates or compares it — oracles and
    callers see a regular mapping (``Mapping`` supplies dict-equality in
    both directions), and pure round/message measurements never pay for
    it.
    """

    __slots__ = ("_labels", "_values", "_dict")

    def __init__(self, labels, values):
        self._labels = labels
        self._values = values
        self._dict: dict[Vertex, Any] | None = None

    def _materialize(self) -> dict[Vertex, Any]:
        if self._dict is None:
            self._dict = dict(zip(self._labels, self._values))
            self._labels = self._values = None
        return self._dict

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        d = self._dict
        return len(d) if d is not None else len(self._labels)

    def __contains__(self, key) -> bool:
        return key in self._materialize()

    def keys(self):
        return self._materialize().keys()

    def items(self):
        return self._materialize().items()

    def values(self):
        return self._materialize().values()

    def get(self, key, default=None):
        return self._materialize().get(key, default)

    def __repr__(self) -> str:
        return repr(self._materialize())


@dataclass
class SimulationResult:
    """Outcome of a simulation.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed.
    outputs:
        Per-vertex outputs (keyed by the original vertex labels).  The
        batched engine returns a :class:`LazyOutputs` mapping view —
        equal to and interchangeable with the eager dict of the per-node
        engine, but built only when someone looks at it.
    messages_sent:
        Total number of messages delivered over the run.
    finished:
        Whether every node terminated before the round limit.
    """

    rounds: int
    outputs: Mapping[Vertex, Any]
    messages_sent: int
    finished: bool
    per_round_messages: list[int] = field(default_factory=list)


class SynchronousSimulator:
    """Runs a node program on a network, one instance per vertex.

    A factory producing :class:`~repro.local.node.BatchNodeAlgorithm`
    instances is routed to the vectorized batched loop instead (one program
    instance drives all nodes); everything else runs the per-node loop.
    """

    def __init__(self, network: Network):
        self.network = network

    def run(
        self,
        algorithm_factory: Callable[[], NodeAlgorithm | BatchNodeAlgorithm],
        inputs: Mapping[Vertex, Any] | Any | None = None,
        max_rounds: int = 10_000,
        strict: bool = False,
        debug: bool = False,
        *,
        reference_exchange: bool = False,
    ) -> SimulationResult:
        """Execute the algorithm until all nodes finish or ``max_rounds`` is hit.

        With ``strict=False`` (the default) hitting the round limit returns a
        result with ``finished=False``; with ``strict=True`` it raises
        :class:`~repro.errors.NonTerminationError` (a
        :class:`~repro.errors.SimulationError` carrying the round count and
        active-set size) instead, which is what callers
        that *assume* termination (most tests and drivers) should use so that
        a diverging algorithm cannot silently masquerade as a slow one.

        Malformed sends always raise :class:`~repro.errors.SimulationError`
        (non-mapping returns, out-of-range ports — the latter validated with
        one comparison per message against the routing table); ``debug=True``
        upgrades the port errors to descriptive ones naming the vertex and
        its valid port range.

        ``reference_exchange=True`` routes batched broadcast rounds through
        the historical unfused three-pass delivery (send-gather by
        ``sources`` + permutation by ``reverse_slot`` + ``receive_batch``)
        instead of the fused kernels — the parity oracle for
        :mod:`repro.local.kernels`.
        """
        probe = algorithm_factory()
        if isinstance(probe, BatchNodeAlgorithm):
            return self._run_batched(
                probe, inputs, max_rounds, strict, debug,
                reference_exchange=reference_exchange,
            )
        return self._run_per_node(
            probe, algorithm_factory, inputs, max_rounds, strict, debug
        )

    # ------------------------------------------------------------------
    # Per-node engine
    # ------------------------------------------------------------------
    def _run_per_node(
        self,
        first: NodeAlgorithm,
        algorithm_factory: Callable[[], NodeAlgorithm],
        inputs: Mapping[Vertex, Any] | None,
        max_rounds: int,
        strict: bool,
        debug: bool,
    ) -> SimulationResult:
        network = self.network
        fabric = network.fabric
        offsets = fabric.offsets
        endpoints = fabric.endpoints
        reverse_slot = fabric.reverse_slot
        degrees = fabric.degrees
        labels = network.labels
        n = fabric.n
        identifiers = network.identifiers_list
        declared_n = network.declared_n
        inputs_list = network.inputs_list(inputs)

        nodes: list[NodeAlgorithm] = []
        for i in range(n):
            node = first if i == 0 else algorithm_factory()
            node.initialize(
                NodeContext(
                    identifier=identifiers[i],
                    n=declared_n,
                    degree=degrees[i],
                    input=inputs_list[i],
                )
            )
            nodes.append(node)

        # preallocated data plane, reused across rounds: per-slot payloads
        # plus, per receiver, the list of inbox slots touched this round
        payloads: list[Any] = [None] * fabric.num_slots
        received: list[list[int]] = [[] for _ in range(n)]
        # staging a message only writes these buffers — no node reads them
        # until the receive phase — so delivery can ride the send loop
        # without breaking the all-sends-before-any-receive semantics
        stage = [lst.append for lst in received]
        active = [i for i in range(n) if not nodes[i].is_finished()]

        total_messages = 0
        per_round: list[int] = []
        rounds = 0
        while active:
            if rounds >= max_rounds:
                if strict:
                    raise NonTerminationError(
                        f"simulation hit max_rounds={max_rounds} with "
                        f"{len(active)} unfinished node(s)",
                        rounds=rounds,
                        active=len(active),
                    )
                return self._result(labels, nodes, rounds, total_messages,
                                    per_round, finished=False)
            rounds += 1
            round_messages = 0
            for i, node in enumerate(nodes):
                out = node.send(rounds)
                if not out:
                    continue
                try:  # free on the fast path; SimulationError surface kept
                    items = out.items()
                except AttributeError:
                    raise SimulationError(
                        f"node {labels[i]!r} returned {type(out).__name__} "
                        "from send(); expected a port -> payload mapping"
                    ) from None
                base = offsets[i]
                degree = offsets[i + 1] - base
                for port, payload in items:
                    if not 0 <= port < degree:
                        raise self._port_error(i, port, degree, debug)
                    slot = base + port
                    dest = reverse_slot[slot]
                    payloads[dest] = payload
                    stage[endpoints[slot]](dest)
                round_messages += len(out)
            # receive phase: every node hears its (possibly empty) inbox
            for j, node in enumerate(nodes):
                slots = received[j]
                if slots:
                    base = offsets[j]
                    messages = {slot - base: payloads[slot] for slot in slots}
                    slots.clear()
                else:
                    messages = {}
                node.receive(rounds, messages)
            total_messages += round_messages
            per_round.append(round_messages)
            active = [i for i in active if not nodes[i].is_finished()]

        return self._result(labels, nodes, rounds, total_messages, per_round,
                            finished=True)

    def _port_error(
        self, index: int, port: Any, degree: int, debug: bool
    ) -> SimulationError:
        label = self.network.labels[index]
        if debug:
            identifier = self.network.identifiers_list[index]
            return SimulationError(
                f"node {label!r} (identifier {identifier}) sent on invalid "
                f"port {port!r}; valid ports are 0..{degree - 1} "
                f"(degree {degree})"
            )
        return SimulationError(f"node {label!r} sent on invalid port {port}")

    @staticmethod
    def _result(
        labels: list[Vertex],
        nodes: list[NodeAlgorithm],
        rounds: int,
        total_messages: int,
        per_round: list[int],
        finished: bool,
    ) -> SimulationResult:
        return SimulationResult(
            rounds=rounds,
            outputs={labels[i]: node.result() for i, node in enumerate(nodes)},
            messages_sent=total_messages,
            finished=finished,
            per_round_messages=per_round,
        )

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------
    def _run_batched(
        self,
        program: BatchNodeAlgorithm,
        inputs: Mapping[Vertex, Any] | Any | None,
        max_rounds: int,
        strict: bool,
        debug: bool = False,
        reference_exchange: bool = False,
    ) -> SimulationResult:
        network = self.network
        fabric = network.fabric
        inputs_list = network.inputs_list(inputs)

        context: BatchContext | None = None
        if fabric.has_numpy:
            context = BatchContext(
                n=fabric.n,
                identifiers=network.identifiers_np,
                degrees=fabric.degrees_np,
                offsets=fabric.offsets_np,
                endpoints=fabric.endpoints_np,
                reverse_slot=fabric.reverse_np,
                sources=fabric.sources_np(),
                inputs=inputs_list,
                network=network,
                declared_n=network.declared_n,
            )
        if context is None or not program.can_run(context):
            factory = type(program).fallback
            if factory is None:
                raise SimulationError(
                    f"{type(program).__name__} cannot run batched here "
                    "(numpy unavailable or can_run() declined) and declares "
                    "no per-node fallback"
                )
            return self._run_per_node(
                factory(), factory, inputs, max_rounds, strict, debug
            )

        import numpy as np

        reverse = fabric.reverse_np
        endpoints = fabric.endpoints_np
        sources = fabric.sources_np()
        num_slots = fabric.num_slots
        labels = network.labels
        mode = type(program).exchange_mode
        receive_broadcast = (
            getattr(program, "receive_broadcast", None)
            if mode == "broadcast" and not reference_exchange
            else None
        )
        receive_active = (
            getattr(program, "receive_active", None) if mode == "active" else None
        )
        # preallocated inbox buffers, reused across rounds (the fused
        # kernels fill them in place; programs must not retain references
        # past their receive call)
        inbox_buf = np.empty(num_slots, dtype=np.int64)
        delivered_buf = np.empty(num_slots, dtype=np.bool_)
        program.initialize_batch(context)

        total_messages = 0
        per_round: list[int] = []
        rounds = 0
        while not program.is_finished_batch():
            if rounds >= max_rounds:
                if strict:
                    raise NonTerminationError(
                        f"simulation hit max_rounds={max_rounds} with "
                        "unfinished node(s)",
                        rounds=rounds,
                    )
                return SimulationResult(
                    rounds=rounds,
                    outputs=LazyOutputs(labels, program.results_batch()),
                    messages_sent=total_messages,
                    finished=False,
                    per_round_messages=per_round,
                )
            rounds += 1
            sent = program.send_batch(rounds)
            if sent is None:
                round_messages = 0
                if receive_active is not None:
                    receive_active(rounds, None, None)
                else:
                    program.receive_batch(rounds, None, None)
            elif mode == "broadcast":
                # sources[reverse_slot] == endpoints: the send-gather and
                # the reverse permutation fuse into one endpoint gather
                round_messages = num_slots
                if receive_broadcast is not None:
                    receive_broadcast(rounds, sent)
                else:
                    if reference_exchange:
                        inbox = kernels.reference_broadcast(sent, sources, reverse)
                    else:
                        inbox = kernels.gather(sent, endpoints, out=inbox_buf)
                    program.receive_batch(rounds, inbox, None)
            elif mode == "active":
                slots, values = sent
                round_messages = len(slots)
                # the message sent from slot s arrives at slot reverse[s]
                receive_active(rounds, reverse[slots], values)
            elif isinstance(sent, tuple):
                values, mask = sent
                inbox, delivered, round_messages = kernels.deliver_masked(
                    values, mask, reverse,
                    inbox_out=inbox_buf, delivered_out=delivered_buf,
                )
                program.receive_batch(rounds, inbox, delivered)
            else:
                inbox = kernels.deliver_slots(sent, reverse, out=inbox_buf)
                round_messages = num_slots
                program.receive_batch(rounds, inbox, None)
            total_messages += round_messages
            per_round.append(round_messages)

        return SimulationResult(
            rounds=rounds,
            outputs=LazyOutputs(labels, program.results_batch()),
            messages_sent=total_messages,
            finished=True,
            per_round_messages=per_round,
        )


def run_node_algorithm(
    graph: GraphLike,
    algorithm_factory: Callable[[], NodeAlgorithm | BatchNodeAlgorithm],
    inputs: Mapping[Vertex, Any] | Any | None = None,
    max_rounds: int = 10_000,
    strict: bool = False,
    *,
    network: Network | None = None,
    debug: bool = False,
    reference_exchange: bool = False,
) -> SimulationResult:
    """Convenience wrapper: build the network and run the algorithm.

    Follows the freeze-at-the-boundary convention (docs/architecture.md):
    an unfrozen ``graph`` is frozen once here so the network's port tables
    and routing fabric read zero-copy off the CSR (freezing preserves the
    vertex order, hence the identifier assignment).  Callers that run
    several algorithms on the same graph should build one
    :class:`~repro.local.network.Network` and pass it as ``network=`` —
    the graph argument is then only documentation and is not re-validated.
    """
    if network is None:
        network = Network(freeze(graph))
    simulator = SynchronousSimulator(network)
    return simulator.run(
        algorithm_factory,
        inputs=inputs,
        max_rounds=max_rounds,
        strict=strict,
        debug=debug,
        reference_exchange=reference_exchange,
    )
