"""Tests for the LOCAL-model simulator: network, engine, ball collection, ledger."""

import pytest

from repro.errors import NonTerminationError, SimulationError
from repro.graphs.generators import classic
from repro.local import (
    BallCollectionAlgorithm,
    Network,
    NodeAlgorithm,
    RoundLedger,
    SynchronousSimulator,
    collect_balls,
    collect_balls_distributed,
    run_node_algorithm,
)


# -- network -------------------------------------------------------------------

def test_network_identifiers_are_1_to_n():
    g = classic.cycle(5)
    net = Network(g)
    assert sorted(net.identifier_of.values()) == [1, 2, 3, 4, 5]
    assert all(net.vertex_of[net.identifier_of[v]] == v for v in g)


def test_network_ports_consistent():
    g = classic.star(4)
    net = Network(g)
    for v in g:
        for port in range(net.degree(v)):
            u = net.neighbor_on_port(v, port)
            assert net.neighbor_on_port(u, net.port_towards(u, v)) == v


def test_network_identifier_order_override():
    g = classic.path(3)
    net = Network(g, identifier_order=[2, 1, 0])
    assert net.identifier_of[2] == 1
    with pytest.raises(ValueError):
        Network(g, identifier_order=[0, 1])


def test_network_rejects_identifier_order_with_a_repeated_vertex():
    # same vertex set, one vertex twice: not a permutation
    g = classic.path(3)
    with pytest.raises(ValueError, match="permutation"):
        Network(g, identifier_order=[0, 0, 1, 2])
    with pytest.raises(ValueError, match="permutation"):
        Network(g.freeze(), identifier_order=[0, 1, 2, 2])


def _eager_views(graph, order, ids):
    """The identifier, port and slot tables built directly, vertex by vertex."""
    index = {v: i for i, v in enumerate(order)}
    ports = {v: sorted(graph.neighbors(v), key=ids.__getitem__) for v in order}
    offsets, endpoints = [0], []
    for v in order:
        endpoints.extend(index[u] for u in ports[v])
        offsets.append(len(endpoints))
    return {
        "identifier_of": dict(ids),
        "vertex_of": {i: v for v, i in ids.items()},
        "identifiers_list": [ids[v] for v in order],
        "ports": ports,
        "port_of": {v: {u: p for p, u in enumerate(ports[v])} for v in order},
        "offsets": offsets,
        "endpoints": endpoints,
        "degrees": [len(ports[v]) for v in order],
    }


def _network_variants(graph):
    vertices = graph.vertices()
    shuffled = vertices[::-1]
    spread = {v: 3 * i + 2 for i, v in enumerate(shuffled)}
    yield Network(graph), vertices, {v: i + 1 for i, v in enumerate(vertices)}
    yield (
        Network(graph, identifier_order=shuffled),
        shuffled,
        {v: i + 1 for i, v in enumerate(shuffled)},
    )
    yield (
        Network(graph, identifiers=spread, declared_n=3 * len(vertices) + 2),
        shuffled,
        spread,
    )


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_fabric_and_lazy_views_match_eager_tables(frozen, seed):
    from repro.graphs.generators import sparse
    from repro.local.network import _reverse_slots_python

    graph = sparse.union_of_random_forests(30 + seed, 2, seed=seed)
    graph.add_vertex(10_000)  # an isolated vertex
    if frozen:
        graph = graph.freeze()
    for net, order, ids in _network_variants(graph):
        expected = _eager_views(graph, order, ids)
        fabric = net.fabric
        assert fabric.offsets == expected["offsets"]
        assert fabric.endpoints == expected["endpoints"]
        assert fabric.degrees == expected["degrees"]
        reverse = _reverse_slots_python(fabric.offsets, fabric.endpoints)
        assert fabric.reverse_slot == reverse
        if fabric.has_numpy:
            assert fabric.reverse_np.tolist() == reverse
            assert fabric.offsets_np.tolist() == expected["offsets"]
            assert fabric.endpoints_np.tolist() == expected["endpoints"]
            assert fabric.degrees_np.tolist() == expected["degrees"]
            assert net.identifiers_np.tolist() == expected["identifiers_list"]
        # an involution that lands back on the sender
        sources = [i for i, d in enumerate(expected["degrees"]) for _ in range(d)]
        for slot, back in enumerate(reverse):
            assert reverse[back] == slot
            assert fabric.endpoints[back] == sources[slot]
        assert net.identifier_of == expected["identifier_of"]
        assert net.vertex_of == expected["vertex_of"]
        assert net.identifiers_list == expected["identifiers_list"]
        assert net.ports == expected["ports"]
        assert net.port_of == expected["port_of"]
        assert net.labels == order
        for v in order:
            assert net.degree(v) == len(expected["ports"][v])


def test_default_network_builds_no_views_until_read():
    net = Network(classic.cycle(8).freeze())
    fabric = net.fabric
    if not fabric.has_numpy:
        pytest.skip("numpy not installed")
    # a batched run reads only arrays: nothing list- or dict-shaped yet
    # (a view, once built, is cached in the instance dict)
    assert not {"identifier_of", "vertex_of", "_index", "identifiers_list"} & set(vars(net))
    assert net._ports is None
    assert not {"offsets", "endpoints", "reverse_slot", "degrees"} & set(vars(fabric))
    assert net.identifiers_np.tolist() == list(range(1, 9))
    assert fabric.reverse_slot == fabric.reverse_np.tolist()
    assert "reverse_slot" in vars(fabric)


# -- simple node programs --------------------------------------------------------

class EchoDegree(NodeAlgorithm):
    """One-round algorithm: learn the identifiers of all neighbours."""

    def initialize(self, context):
        super().initialize(context)
        self.heard = {}
        self.done = False

    def send(self, round_number):
        return {p: self.context.identifier for p in range(self.context.degree)}

    def receive(self, round_number, messages):
        self.heard = dict(messages)
        self.done = True

    def is_finished(self):
        return self.done

    def result(self):
        return sorted(self.heard.values())


def test_one_round_neighbor_exchange():
    g = classic.cycle(6)
    result = run_node_algorithm(g, EchoDegree, strict=True)
    assert result.rounds == 1
    assert result.finished
    net = Network(g)
    for v in g:
        expected = sorted(net.identifier_of[u] for u in g.neighbors(v))
        assert result.outputs[v] == expected
    assert result.messages_sent == 2 * g.number_of_edges()


class BadPortSender(NodeAlgorithm):
    def initialize(self, context):
        super().initialize(context)
        self.done = False

    def send(self, round_number):
        return {99: "boom"}

    def receive(self, round_number, messages):
        self.done = True

    def is_finished(self):
        return self.done


def test_invalid_port_raises():
    with pytest.raises(SimulationError):
        run_node_algorithm(classic.cycle(4), BadPortSender)


def test_invalid_port_debug_mode_names_the_range():
    with pytest.raises(SimulationError, match=r"valid ports are 0\.\.1"):
        run_node_algorithm(classic.cycle(4), BadPortSender, debug=True)


class ListSender(NodeAlgorithm):
    def send(self, round_number):
        return [1, 2]  # not a mapping

    def is_finished(self):
        return False


@pytest.mark.parametrize("debug", [False, True])
def test_non_mapping_send_raises_simulation_error(debug):
    with pytest.raises(SimulationError, match="expected a port -> payload"):
        run_node_algorithm(classic.cycle(4), ListSender, debug=debug, max_rounds=2)


def test_prebuilt_network_is_reused():
    g = classic.cycle(6).freeze()
    net = Network(g)
    r1 = run_node_algorithm(g, EchoDegree, network=net, strict=True)
    r2 = run_node_algorithm(g, EchoDegree, network=net, strict=True)
    assert r1.outputs == r2.outputs
    assert net.fabric is net.fabric  # built once, cached


class NeverFinishes(NodeAlgorithm):
    def is_finished(self):
        return False


def test_round_limit_reported_as_unfinished():
    result = run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5)
    assert not result.finished
    assert result.rounds == 5
    # partial outputs are still reported when not strict
    assert set(result.outputs) == set(classic.path(3).vertices())


def test_round_limit_raises_in_strict_mode():
    with pytest.raises(SimulationError, match="max_rounds=5"):
        run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5, strict=True)


def test_round_limit_error_carries_structure():
    with pytest.raises(NonTerminationError) as err:
        run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5, strict=True)
    assert err.value.rounds == 5
    assert err.value.active == 3  # every node of the path still unfinished


def test_strict_mode_passes_through_on_termination():
    result = run_node_algorithm(classic.cycle(6), EchoDegree, strict=True)
    assert result.finished
    assert result.rounds == 1


class ChattyCountdown(NodeAlgorithm):
    """Sends on all ports for ``input`` rounds, then stops."""

    def initialize(self, context):
        super().initialize(context)
        self.remaining = int(context.input)

    def send(self, round_number):
        if self.remaining <= 0:
            return {}
        return {p: "tick" for p in range(self.context.degree)}

    def receive(self, round_number, messages):
        if self.remaining > 0:
            self.remaining -= 1

    def is_finished(self):
        return self.remaining <= 0


def test_per_round_messages_accounting():
    g = classic.cycle(5)
    rounds_wanted = 3
    result = run_node_algorithm(
        g, ChattyCountdown, inputs={v: rounds_wanted for v in g}, strict=True
    )
    assert result.rounds == rounds_wanted
    assert len(result.per_round_messages) == result.rounds
    assert sum(result.per_round_messages) == result.messages_sent
    # every node sends on both ports every active round
    assert result.per_round_messages == [2 * len(g)] * rounds_wanted


def test_per_round_messages_accounting_when_unfinished():
    result = run_node_algorithm(classic.path(4), NeverFinishes, max_rounds=7)
    assert len(result.per_round_messages) == result.rounds == 7
    assert sum(result.per_round_messages) == result.messages_sent


# -- ball collection ---------------------------------------------------------------

@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_collection_matches_centralized(radius):
    g = classic.grid_2d(4, 4)
    distributed = collect_balls_distributed(g, radius, strict=True)
    assert distributed.finished
    assert distributed.rounds == radius
    centralized = collect_balls(g, radius)
    net = Network(g)
    for v in g:
        vertices, _edges = distributed.outputs[v]
        expected = {net.identifier_of[u] for u in centralized[v]}
        assert vertices == expected


def test_ball_collection_edges_are_within_ball():
    g = classic.cycle(8)
    result = collect_balls_distributed(g, 2, strict=True)
    for v in g:
        vertices, edges = result.outputs[v]
        for edge in edges:
            assert edge <= vertices


# -- ledger -------------------------------------------------------------------------

def test_ledger_totals_and_phases():
    ledger = RoundLedger()
    ledger.charge("phase A", 3, reference="ref")
    ledger.charge("phase A", 2)
    ledger.charge("phase B", 5)
    assert ledger.total() == 10
    assert ledger.by_phase() == {"phase A": 5, "phase B": 5}
    assert "total rounds: 10" in ledger.summary()


def test_ledger_extend_with_prefix():
    inner = RoundLedger()
    inner.charge("x", 2)
    outer = RoundLedger()
    outer.charge("y", 1)
    outer.extend(inner, prefix="inner: ")
    assert outer.total() == 3
    assert "inner: x" in outer.by_phase()


def test_ledger_rejects_negative():
    ledger = RoundLedger()
    with pytest.raises(ValueError):
        ledger.charge("bad", -1)


def test_simulator_reuse():
    g = classic.path(4)
    sim = SynchronousSimulator(Network(g))
    r1 = sim.run(EchoDegree)
    r2 = sim.run(EchoDegree)
    assert r1.outputs == r2.outputs


def test_ball_collection_locality_equivalence():
    """r rounds of communication give exactly the radius-r ball, no more."""
    g = classic.path(9)
    result = collect_balls_distributed(g, 2, strict=True)
    net = Network(g)
    vertices, _ = result.outputs[0]
    assert vertices == {net.identifier_of[0], net.identifier_of[1], net.identifier_of[2]}
