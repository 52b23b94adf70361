"""The in-process workloads: theorem13, rounds-deep and rounds-wide.

Each workload builds its inputs from the seed in :meth:`setup`, exposes a
fixed cycle of ops, and checks every op's output with the repository's own
oracles.  :func:`measure` runs the ops, times them and gathers the metrics.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

from stats import highest_reportable, median, percentile, scaled, speed_probe

__all__ = ["WORKLOADS", "end_to_end", "measure", "run_setup"]


def _digest(coloring) -> str:
    from repro.verify.parity import coloring_digest

    return coloring_digest(coloring)


def _verdicts(*verdicts) -> list[str]:
    return [f"{v.oracle}: {'; '.join(v.diagnostics) or 'failed'}" for v in verdicts if not v.ok]


class Op:
    """One op of a workload's cycle: a call plus what its output is checked against.

    ``call`` is a function, or for an op made of several timed calls a list
    of ``(kind, function)`` pairs.
    """

    __slots__ = ("index", "kind", "n", "call", "check")

    def __init__(self, index, kind, n, call, check):
        self.index = index
        self.kind = kind
        self.n = n  # vertices the op colors
        self.call = call
        self.check = check  # output -> (failures, fingerprint part, charged rounds)


class Theorem13:
    """Theorem 1.3 on a fixed schedule of planar and 2-degenerate graphs.

    Two of every three graphs are stacked triangulations, 6-colored by
    Corollary 2.3; the third is a random 2-degenerate graph list-colored
    with d=4 from random lists over a palette of 2d.  Sizes follow a fixed
    schedule over 800..1600 vertices, small enough for a hundred ops in a
    run; the seed draws only edges and lists.
    """

    name = "theorem13"
    graphs = 60
    min_ops = 100  # ten ops beyond p90
    traced_min_ops = graphs  # the ledger sums need the whole graph set
    warmup = 2

    @staticmethod
    def size(index: int) -> int:
        return 800 + (index * 331) % 801

    def setup(self, seed: int):
        from repro.coloring.assignment import random_lists
        from repro.graphs.generators.planar import stacked_triangulation
        from repro.graphs.generators.sparse import random_degenerate_graph

        instances = []
        for index in range(self.graphs):
            n = self.size(index)
            graph_seed = seed * 1_000_003 + index
            if index % 3 == 2:
                graph = random_degenerate_graph(n, 2, seed=graph_seed)
                lists = random_lists(graph, 4, seed=graph_seed + 1)
                instances.append(("degenerate", graph, lists))
            else:
                instances.append(("planar", stacked_triangulation(n, seed=graph_seed), None))
        return instances

    def ops(self, instances) -> list[Op]:
        from repro.core.planar import color_planar_graph
        from repro.core.sparse_coloring import color_sparse_graph
        from repro.verify.coloring import (
            ListColoringOracle,
            PaletteBudgetOracle,
            ProperColoringOracle,
        )

        ops = []
        for index, (kind, graph, lists) in enumerate(instances):
            if kind == "planar":
                def call(graph=graph):
                    return color_planar_graph(graph)
            else:
                def call(graph=graph, lists=lists):
                    return color_sparse_graph(graph, d=4, lists=lists)

            def check(result, graph=graph, lists=lists, kind=kind):
                if result.coloring is None:
                    return ["no coloring (a clique was reported)"], "", 0
                if kind == "planar":
                    failures = _verdicts(
                        ProperColoringOracle().check(graph=graph, coloring=result.coloring),
                        PaletteBudgetOracle().check(coloring=result.coloring, budget=6),
                    )
                    outside = [c for c in set(result.coloring.values()) if not 1 <= c <= 6]
                    if outside:
                        failures.append(f"colors {outside} outside 1..6")
                else:
                    failures = _verdicts(
                        ListColoringOracle().check(
                            graph=graph, coloring=result.coloring, lists=lists
                        )
                    )
                if result.rounds != result.ledger.total():
                    failures.append("charged rounds disagree with the ledger")
                return failures, f"{_digest(result.coloring)}:{result.rounds}", result.rounds

            ops.append(Op(index, kind, len(graph), call, check))
        return ops

    @staticmethod
    def ledger(result) -> dict[str, int]:
        return result.ledger.by_phase()


class RoundsDeep:
    """The wave 2-coloring of a rooted 10^5-vertex path: 10^5 rounds, one active node each.

    The network is built once in setup, so an op is the round loop alone.
    """

    name = "rounds-deep"
    n = 100_000
    min_ops = traced_min_ops = 3
    warmup = 1

    def setup(self, seed: int):
        import numpy as np

        from repro.graphs.frozen import freeze
        from repro.graphs.generators.classic import path
        from repro.local.network import Network
        from repro.local.simulator import SynchronousSimulator

        del seed  # the path is the same for every seed
        graph = freeze(path(self.n))
        network = Network(graph)
        network.fabric  # noqa: B018 - build the routing fabric in setup
        roots = np.zeros(self.n, dtype=np.int64)
        roots[0] = 1
        return graph, SynchronousSimulator(network), roots

    def ops(self, state) -> list[Op]:
        from repro.distributed.wave import BatchWaveTwoColoring
        from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle

        graph, simulator, roots = state
        n = self.n

        def call():
            return simulator.run(BatchWaveTwoColoring, inputs=roots, max_rounds=n + 1, strict=True)

        def check(result):
            failures = []
            if result.rounds != n:
                failures.append(f"rounds {result.rounds} != n = {n}")
            if result.messages_sent != 2 * (n - 1):
                failures.append(f"messages {result.messages_sent} != 2(n-1) = {2 * (n - 1)}")
            coloring = dict(result.outputs)
            failures += _verdicts(
                ProperColoringOracle().check(graph=graph, coloring=coloring),
                PaletteBudgetOracle().check(coloring=coloring, budget=2),
            )
            part = f"{_digest(coloring)}:{result.rounds}:{result.messages_sent}"
            return failures, part, result.rounds

        return [Op(0, "wave", n, call, check)]


class RoundsWide:
    """Three public drivers end to end on 10^5-vertex mutable graphs.

    One op is one pass over the drivers: Cole–Vishkin on a random recursive
    tree, then greedy and randomized Δ+1 on a union of two random forests.
    Each call freezes its graph, builds the network and fabric, runs a few
    rounds and returns the coloring dict.
    """

    name = "rounds-wide"
    n = 100_000
    kinds = ("cv", "greedy", "randomized")
    min_ops = traced_min_ops = 3
    warmup = 1

    def setup(self, seed: int):
        from repro.graphs.generators.sparse import union_of_random_forests
        from repro.graphs.graph import Graph

        rng = random.Random(seed)
        tree = Graph(vertices=range(self.n), name=f"recursive_tree_{self.n}")
        parents: dict[int, int | None] = {0: None}
        for v in range(1, self.n):
            parent = rng.randrange(v)
            tree.add_edge(parent, v)
            parents[v] = parent
        forests = union_of_random_forests(self.n, 2, seed=rng.randrange(2**31))
        return tree, parents, forests, rng.randrange(2**31)

    def ops(self, state) -> list[Op]:
        # drivers are looked up on their modules at call time, where the
        # span recorder binds its wrappers
        from repro.distributed import cole_vishkin, greedy_baseline, randomized
        from repro.graphs.frozen import freeze
        from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle

        tree, parents, forests, coin_seed = state
        frozen = {"cv": freeze(tree), "forests": freeze(forests)}
        delta = forests.max_degree()

        def check_coloring(graph, coloring, budget, rounds, messages):
            failures = _verdicts(
                ProperColoringOracle().check(graph=graph, coloring=coloring),
                PaletteBudgetOracle().check(coloring=coloring, budget=budget),
            )
            return failures, f"{_digest(coloring)}:{rounds}:{messages}", rounds

        calls = {
            "cv": lambda: cole_vishkin.color_rooted_forest(tree, parents),
            "greedy": lambda: greedy_baseline.greedy_distributed_coloring(forests),
            "randomized": lambda: randomized.randomized_delta_plus_one_coloring(
                forests, seed=coin_seed
            ),
        }

        def check(results):
            failures, parts, rounds = [], [], 0
            for kind, result in zip(self.kinds, results):
                if kind == "cv":
                    coloring = dict(result.outputs)
                    outcome = check_coloring(
                        frozen["cv"], coloring, 3, result.rounds, result.messages_sent
                    )
                else:
                    outcome = check_coloring(
                        frozen["forests"], result.coloring, delta + 1,
                        result.rounds, result.messages,
                    )
                    if result.palette_size != delta + 1:
                        failures.append(f"{kind}: palette {result.palette_size} != Δ+1")
                failures += [f"{kind}: {f}" for f in outcome[0]]
                parts.append(outcome[1])
                rounds += outcome[2]
            return failures, "|".join(parts), rounds

        return [Op(0, "cycle", 3 * self.n, [(k, calls[k]) for k in self.kinds], check)]


WORKLOADS = {w.name: w for w in (Theorem13(), RoundsDeep(), RoundsWide())}


def run_setup(workload, seed: int, repeats: int):
    """Set up ``repeats`` times; returns the last ops and every setup time.

    Setup times come scaled to the reference speed, then unscaled.

    The inputs are then moved out of the collector's reach (``gc.freeze``),
    so the ``gc.collect()`` between ops costs little and a collection
    inside an op scans only what the op allocated, as it would for a
    caller holding one input rather than a whole graph set.
    """
    times, probes, ops = [], [], None
    for _ in range(repeats):
        ops = None
        gc.collect()
        probes.append(speed_probe())
        start = time.perf_counter()
        ops = workload.ops(workload.setup(seed))
        times.append(time.perf_counter() - start)
    probes.append(speed_probe())
    gc.collect()
    gc.freeze()
    return ops, [scaled(t, probes[i:i + 2]) for i, t in enumerate(times)], times


def _execute(op):
    """Run one op; returns its output, elapsed seconds and seconds per kind.

    A cycle op times each of its calls, with a collection between them.
    """
    if callable(op.call):
        start = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - start
        return result, elapsed, {op.kind: elapsed}
    results, per_kind = [], {}
    for kind, call in op.call:
        gc.collect()
        start = time.perf_counter()
        results.append(call())
        per_kind[kind] = time.perf_counter() - start
    return results, sum(per_kind.values()), per_kind


def measure(workload, ops, seconds: float, tracer=None, hard_limit: float = 120.0):
    """Time ops for ``seconds`` (and at least the workload's minimum), checking each.

    A speed probe runs before every untraced op and once at the end; each
    op's time is also reported scaled by the probes on either side of it.
    With a ``tracer``, every op runs twice, untraced and traced, in
    alternating order: untraced times feed the metrics, and each pair gives
    the tracing overhead.  Returns a dict of raw measurements.
    """
    failures: list[str] = []
    first_parts: dict[int, str] = {}
    charged: dict[int, int] = {}
    ledgers: dict[int, dict] = {}
    timed: list[tuple[float, dict, float]] = []  # (elapsed, per kind, probe before)
    pairs: list[tuple[float, float]] = []  # (untraced, traced)
    vertices = 0
    attempted = failed = 0

    def run_checked(op, traced: bool, sequence: int):
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        probe = None if traced else speed_probe()
        try:
            if traced:
                tracer.install()
                try:
                    with tracer.op(sequence):
                        result, elapsed, per_kind = _execute(op)
                finally:
                    tracer.uninstall()
            else:
                result, elapsed, per_kind = _execute(op)
            problems, part, rounds = op.check(result)
        except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
            problems, part, rounds = [f"{type(exc).__name__}: {exc}"], "", 0
            result = elapsed = per_kind = None
        if op.index not in first_parts and not problems:
            first_parts[op.index] = part
            charged[op.index] = rounds
            if hasattr(workload, "ledger"):
                ledgers[op.index] = workload.ledger(result)
        elif not problems and first_parts.get(op.index) != part:
            problems = [f"op {op.index}: output differs from its first run"]
        if problems:
            failed += 1
            failures.extend(f"{workload.name} op {op.index}: {p}" for p in problems[:3])
            return None
        return elapsed, per_kind, probe

    for index in range(workload.warmup):
        run_checked(ops[index % len(ops)], False, -1)
    attempted = failed = 0

    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + hard_limit
    sequence = 0
    min_ops = workload.min_ops if tracer is None else workload.traced_min_ops
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and len(timed) >= min_ops):
            break
        op = ops[sequence % len(ops)]
        if tracer is None:
            outcome = run_checked(op, False, sequence)
        else:
            order = (False, True) if sequence % 2 == 0 else (True, False)
            pair = {flag: run_checked(op, flag, sequence) for flag in order}
            outcome = pair[False]
            if pair[True] is not None and outcome is not None:
                pairs.append((outcome[0], pair[True][0]))
        if outcome is not None:
            timed.append(outcome)
            vertices += op.n
        sequence += 1
    probes = [probe for _, _, probe in timed] + [speed_probe()]

    latencies, scaled_latencies, kind_times = [], [], {}
    for index, (elapsed, per_kind, _probe) in enumerate(timed):
        around = probes[index:index + 2]
        latencies.append(elapsed)
        scaled_latencies.append(scaled(elapsed, around))
        for kind, seconds_ in per_kind.items():
            kind_times.setdefault(kind, []).append(scaled(seconds_, around))
    fingerprint = hashlib.sha256(
        "\n".join(f"{i}={first_parts[i]}" for i in sorted(first_parts)).encode()
    ).hexdigest()[:16]
    return {
        "latencies": latencies,
        "scaled_latencies": scaled_latencies,
        "probes": probes,
        "kind_times": kind_times,
        "vertices": vertices,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fingerprint": fingerprint,
        "charged_rounds": sum(charged.values()),
        "ledger": _sum_ledgers(ledgers.values()),
        "traced_times": [t for _, t in pairs],
        "plain_pair_times": [p for p, _ in pairs],
    }


def _sum_ledgers(ledgers) -> dict[str, int]:
    total: dict[str, int] = {}
    for ledger in ledgers:
        for phase, rounds in ledger.items():
            total[phase] = total.get(phase, 0) + rounds
    return total


def end_to_end(raw: dict):
    """End-to-end metrics ``name -> (value, unit, samples)`` at the reference speed.

    Also returns extras for the report: the tail percentile where enough
    ops were run, and the unscaled figures.
    """
    latencies = raw["scaled_latencies"]
    busy = sum(latencies)
    count = len(latencies)
    metrics = {
        "lat_ms.p50": (median(latencies) * 1e3, "ms", count),
        "vertices_per_s": (raw["vertices"] / busy, "1/s", count),
        "ops_per_s": (count / busy, "1/s", count),
    }
    extra = {
        "unscaled.lat_ms.p50": (median(raw["latencies"]) * 1e3, "ms", count),
        "unscaled.vertices_per_s": (raw["vertices"] / sum(raw["latencies"]), "1/s", count),
        "speed_probe_ms.p50": (median(raw["probes"]) * 1e3, "ms", len(raw["probes"])),
    }
    tail = highest_reportable(count)
    if tail is not None:
        extra[f"lat_ms.p{round(tail * 100)}"] = (percentile(latencies, tail) * 1e3, "ms", count)
    return metrics, extra
