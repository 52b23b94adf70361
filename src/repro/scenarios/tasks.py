"""Module-level scenario workers (picklable for the process pool).

Every function here is one :class:`~repro.analysis.runner.BatchTask` body:
it generates its instance, runs one algorithm, verifies the output, and
returns a metric mapping.  The bodies are ports of the former standalone
``benchmarks/bench_*.py`` scripts — the scripts are now thin shims and the
single source of truth for "how experiment X is measured" lives here.

Conventions:

* ``seed`` is injected by :meth:`ExperimentRunner.run_batch` (derived from
  the batch ``base_seed`` and the task index) for every randomized
  generator; deterministic constructions take no seed.
* ``profile`` wires a :class:`~repro.scenarios.base.StageProfile` through
  the generate / freeze / solve / verify pipeline; the resulting
  ``stage_seconds`` land in the artifact so perf PRs can see where time
  goes.
* Graphs are frozen at the construction/computation boundary wherever the
  downstream driver runs on the CSR fast paths (Theorem 1.3 and friends);
  drivers that still operate on the mutable representation get the graph
  as built and report a zero ``freeze`` stage.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any

from repro.coloring import (
    degeneracy_greedy_coloring,
    random_lists,
    uniform_lists,
    verify_coloring,
    verify_list_coloring,
)
from repro.coloring.assignment import ListAssignment
from repro.coloring.greedy import greedy_list_coloring
from repro.core import (
    brooks_list_coloring,
    classify_vertices,
    color_bounded_arboricity_graph,
    color_embedded_graph,
    color_high_girth_planar_graph,
    color_planar_graph,
    color_sparse_graph,
    color_triangle_free_planar_graph,
    genus_color_budget,
    nice_list_coloring,
    peel_happy_layers,
)
from repro.core.extension import extend_coloring_to_happy_set
from repro.distributed import (
    barenboim_elkin_coloring,
    color_rooted_forest,
    delta_plus_one_coloring,
    gps_coloring,
    greedy_distributed_coloring,
    ruling_forest,
)
from repro.graphs.generators import classic, planar, sparse, surfaces
from repro.graphs.properties.cliques import is_clique
from repro.graphs.properties.degeneracy import (
    _degeneracy_ordering_sets,
    degeneracy_ordering,
)
from repro.local.ball_collection import collect_balls
from repro.lowerbounds import (
    bipartite_grid_lower_bound,
    log_star_floor,
    path_two_coloring_lower_bound,
    planar_four_coloring_lower_bound,
    triangle_free_lower_bound,
)
from repro.scenarios.base import StageProfile


# ---------------------------------------------------------------------------
# E1 — Theorem 1.3, colors
# ---------------------------------------------------------------------------

def theorem13_colors(
    n: int, d: int, variant: str, backend: str = "flat",
    seed: int | None = None, profile: bool = False,
) -> dict[str, Any]:
    """d-list-color a bounded-mad graph; ``variant``: uniform/random/greedy.

    ``backend`` selects the list-coloring substrate of the Theorem 1.3
    driver: ``dict`` (per-vertex set algebra) or ``flat`` (interned
    palette bitmasks + CSR kernels + the batched round engine).  Both
    produce bit-identical colorings and round totals; the ``coloring``
    scenario measures the wall-time gap.
    """
    prof = StageProfile(profile)
    with prof("generate"):
        graph = sparse.random_degenerate_graph(n, d // 2, seed=seed)
    if variant == "greedy":
        with prof("freeze"):
            solver_graph = graph.freeze() if backend == "flat" else graph
        with prof("solve"):
            coloring = degeneracy_greedy_coloring(solver_graph)
        return {
            "colors": len(set(coloring.values())), "budget": d,
            "rounds": 0, "valid": True, **prof.metrics(),
        }
    with prof("freeze"):
        frozen = graph.freeze()
    with prof("solve"):
        if variant == "uniform":
            lists = uniform_lists(frozen, d)
        elif variant == "random":
            lists = random_lists(frozen, d, palette_size=2 * d, seed=seed)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        result = color_sparse_graph(frozen, d=d, lists=lists, backend=backend)
    with prof("verify"):
        verify_list_coloring(frozen, result.coloring, lists)
    # the distinct-color budget: d for the shared uniform palette, but the
    # whole 2d-color palette for per-vertex random lists (each vertex stays
    # within its own d-list; the union may legitimately use more than d)
    budget = d if variant == "uniform" else 2 * d
    return {
        "colors": result.colors_used(), "budget": budget,
        "rounds": result.rounds, "valid": True, **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E2 — Theorem 1.3, rounds
# ---------------------------------------------------------------------------

def theorem13_rounds(
    n: int, d: int, backend: str = "flat",
    seed: int | None = None, profile: bool = False,
) -> dict[str, Any]:
    """Charged rounds of the Theorem 1.3 driver on a union of forests."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = sparse.union_of_random_forests(n, 2, seed=seed)
    with prof("freeze"):
        frozen = graph.freeze()
    with prof("solve"):
        result = color_sparse_graph(frozen, d=d, backend=backend)
    with prof("verify"):
        assert result.succeeded
    return {
        "n": n,
        "rounds": result.rounds,
        "layers": result.peeling.number_of_layers,
        "rounds/log^3": result.rounds / (max(2, n).bit_length() ** 3),
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E15 — flat palette A/B: the Theorem 1.3 pipeline, dict vs flat backend
# ---------------------------------------------------------------------------

# the shared parity fingerprint (repro.verify.parity) — the same digest the
# golden corpus tests and the artifact parity oracle compare
from repro.verify.parity import coloring_digest as _coloring_digest  # noqa: E402


def coloring_pipeline(
    n: int, d: int, algorithm: str, backend: str,
    seed: int | None = None, profile: bool = False,
) -> dict[str, Any]:
    """Time one full list-coloring run on the dict or flat palette backend.

    ``algorithm`` is ``theorem13`` (the paper's driver on a random
    ``d/2``-degenerate graph) or ``barenboim-elkin`` (the Corollary 1.4
    baseline on a union of forests, arboricity ``d // 2``).  The graph is
    generated and frozen outside the timed section, so ``solve_seconds``
    measures the pipeline itself; ``coloring_sha`` and ``rounds`` let the
    scenario check assert bit-identical colorings and round-ledger totals
    between the backends on every instance.
    """
    prof = StageProfile(profile)
    with prof("generate"):
        if algorithm == "theorem13":
            graph = sparse.random_degenerate_graph(n, d // 2, seed=seed)
        elif algorithm == "barenboim-elkin":
            graph = sparse.union_of_random_forests(n, d // 2, seed=seed)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    with prof("freeze"):
        frozen = graph.freeze()
    with prof("solve"):
        start = time.perf_counter()
        if algorithm == "theorem13":
            result = color_sparse_graph(frozen, d=d, backend=backend)
            coloring, rounds = result.coloring, result.rounds
        else:
            result = barenboim_elkin_coloring(
                frozen, arboricity=d // 2, backend=backend
            )
            coloring, rounds = result.coloring, result.rounds
        elapsed = time.perf_counter() - start
    with prof("verify"):
        verify_coloring(frozen, coloring)
        if algorithm == "theorem13":
            verify_list_coloring(frozen, coloring, uniform_lists(frozen, d))
    return {
        "n": n,
        "backend": backend,
        "rounds": rounds,
        "colors": len(set(coloring.values())),
        "solve_seconds": round(elapsed, 6),
        "coloring_sha": _coloring_digest(coloring),
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E5 — Corollary 1.4 vs Barenboim–Elkin
# ---------------------------------------------------------------------------

def corollary14_arboricity(
    n: int, arboricity: int, algorithm: str, backend: str = "flat",
    seed: int | None = None, profile: bool = False,
) -> dict[str, Any]:
    """Color a union of ``arboricity`` forests; ``algorithm``: ours/barenboim-elkin.

    Both sides accept the ``backend`` axis so the Corollary 1.4 / baseline
    A/B runs on the same substrate: ``ours`` routes through the Theorem
    1.3 driver's backend, ``barenboim-elkin`` through the dict sweep or
    the batched slot-selection engine.  The graph is frozen at the
    boundary either way, which also pins the identifier assignment so the
    two backends color identically.
    """
    prof = StageProfile(profile)
    with prof("generate"):
        graph = sparse.union_of_random_forests(n, arboricity, seed=seed)
    with prof("freeze"):
        frozen = graph.freeze()
    if algorithm == "ours":
        with prof("solve"):
            result = color_bounded_arboricity_graph(
                frozen, arboricity=arboricity, backend=backend
            )
        with prof("verify"):
            verify_coloring(frozen, result.coloring)
        return {
            "colors": result.colors_used(), "palette": 2 * arboricity,
            "rounds": result.rounds, **prof.metrics(),
        }
    if algorithm == "barenboim-elkin":
        with prof("solve"):
            result = barenboim_elkin_coloring(
                frozen, arboricity=arboricity, epsilon=1.0, backend=backend
            )
        with prof("verify"):
            verify_coloring(frozen, result.coloring)
        return {
            "colors": result.colors_used, "palette": result.palette_size,
            "rounds": result.rounds, **prof.metrics(),
        }
    raise ValueError(f"unknown algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# E7 — Corollary 2.1 (Brooks) and Theorem 6.1 (nice lists)
# ---------------------------------------------------------------------------

def _nice_lists_for(graph) -> ListAssignment:
    """Theorem 6.1 "nice" assignment: deg(v) colors except where deg+1 is forced."""
    lists = {}
    for v in graph:
        degree = graph.degree(v)
        size = (
            degree + 1
            if degree <= 2 or is_clique(graph, graph.neighbors(v))
            else degree
        )
        lists[v] = frozenset(range(1, size + 1))
    return ListAssignment(lists)


def corollary21_brooks(
    n: int, degree: int, variant: str, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """Δ-list-color a random regular graph; ``variant``: brooks/greedy/nice."""
    prof = StageProfile(profile)
    with prof("generate"):
        if n * degree % 2:
            n += 1
        graph = classic.random_regular_graph(n, degree, seed=seed)
    if variant == "brooks":
        with prof("solve"):
            result = brooks_list_coloring(graph)
        with prof("verify"):
            verify_list_coloring(graph, result.coloring, uniform_lists(graph, degree))
        return {
            "colors": result.colors_used(), "budget": degree,
            "rounds": result.rounds, **prof.metrics(),
        }
    if variant == "greedy":
        with prof("solve"):
            result = greedy_distributed_coloring(graph)
        return {
            "colors": len(set(result.coloring.values())), "budget": degree + 1,
            "rounds": result.rounds, **prof.metrics(),
        }
    if variant == "nice":
        with prof("solve"):
            lists = _nice_lists_for(graph)
            result = nice_list_coloring(graph, lists)
        with prof("verify"):
            verify_list_coloring(graph, result.coloring, lists)
        return {
            "colors": len(set(result.coloring.values())), "budget": degree,
            "rounds": result.rounds, **prof.metrics(),
        }
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# E6 — Corollary 2.3 on planar families vs GPS
# ---------------------------------------------------------------------------

def corollary23_planar(
    family: str, n: int, algorithm: str, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """Color one planar family; ``algorithm``: cor23 (ours) or gps (baseline)."""
    prof = StageProfile(profile)
    with prof("generate"):
        if family == "triangulation":
            graph = planar.stacked_triangulation(n, seed=seed)
        elif family == "triangle-free":
            graph = planar.triangle_free_planar(n, seed=seed)
        elif family == "high-girth":
            graph = planar.high_girth_planar(n, seed=seed)
        else:
            raise ValueError(f"unknown family {family!r}")
    with prof("solve"):
        if algorithm == "gps":
            result = gps_coloring(graph, degree_threshold=6)
            colors, budget, rounds = result.colors_used, 7, result.rounds
        elif family == "triangulation":
            result = color_planar_graph(graph)
            colors, budget, rounds = result.colors_used(), 6, result.rounds
        elif family == "triangle-free":
            result = color_triangle_free_planar_graph(graph)
            colors, budget, rounds = result.colors_used(), 4, result.rounds
        else:
            result = color_high_girth_planar_graph(graph)
            colors, budget, rounds = result.colors_used(), 3, result.rounds
    with prof("verify"):
        verify_coloring(graph, result.coloring)
    return {"colors": colors, "budget": budget, "rounds": rounds, **prof.metrics()}


# ---------------------------------------------------------------------------
# E8 — Corollary 2.11 on toroidal triangulations
# ---------------------------------------------------------------------------

def corollary211_genus(
    k: int, length: int, improved: bool, profile: bool = False
) -> dict[str, Any]:
    """H(g)/H(g)-1 list-coloring of a toroidal triangular grid (genus 2)."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = surfaces.toroidal_triangular_grid(k, length)
    with prof("solve"):
        result = color_embedded_graph(graph, euler_genus=2, improved=improved)
    with prof("verify"):
        verify_coloring(graph, result.coloring)
    return {
        "colors": result.colors_used(),
        "budget": genus_color_budget(2, improved=improved),
        "rounds": result.rounds,
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E3 — Lemma 3.1, happy fraction and peeling layers
# ---------------------------------------------------------------------------

def _lemma_family_graph(family: str, n: int, seed: int | None):
    if family == "forest-union":
        return sparse.union_of_random_forests(n, 2, seed=seed)
    if family == "planar":
        return planar.stacked_triangulation(n, seed=seed)
    if family == "regular":
        return classic.random_regular_graph(n, 4, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def lemma31_happy_fraction(
    family: str, n: int, d: int, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """Measure |A|/n of the first layer and the total number of peeling layers."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
    with prof("freeze"):
        frozen = graph.freeze()
    with prof("solve"):
        cls = classify_vertices(frozen, d=d)
        peeling = peel_happy_layers(frozen, d=d)
    fraction = len(cls.happy) / frozen.number_of_vertices()
    bound = 1 / (3 * d) ** 3
    no_poor_bound = 1 / (12 * d + 1) if not cls.poor else None
    return {
        "happy_fraction": round(fraction, 3),
        "paper_bound": round(bound, 5),
        "no_poor_bound": round(no_poor_bound, 4) if no_poor_bound else "-",
        "layers": peeling.number_of_layers,
        "poor": len(cls.poor),
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E4 — Lemma 3.2, one extension step
# ---------------------------------------------------------------------------

def lemma32_extension(
    family: str, n: int, d: int, radius: int, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """Extend a coloring of G - A to G; report the proof's quantities."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
    with prof("solve"):
        lists = uniform_lists(graph, d)
        cls = classify_vertices(graph, d=d, radius=radius)
        rest = [v for v in graph if v not in cls.happy]
        sub = graph.subgraph(rest)
        _, order = degeneracy_ordering(sub)
        base = greedy_list_coloring(sub, lists.restrict(rest), list(reversed(order)))
        coloring, report = extend_coloring_to_happy_set(
            graph, lists, happy=cls.happy, rich=cls.rich, coloring=base,
            radius=radius, d=d,
        )
    with prof("verify"):
        verify_list_coloring(graph, coloring, lists)
    return {
        "happy": len(cls.happy),
        "roots": report.roots,
        "tree_vertices": report.tree_vertices,
        "recolored_sad": report.recolored_sad_vertices,
        "rounds": report.rounds,
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E9 — Theorem 1.5 (Fisk-style planar 4-coloring lower bound)
# ---------------------------------------------------------------------------

def lowerbound_fisk(n: int, rounds: int, profile: bool = False) -> dict[str, Any]:
    """Certify the Omega(n) obstruction to 4-coloring planar graphs."""
    prof = StageProfile(profile)
    with prof("solve"):
        result = planar_four_coloring_lower_bound(n, rounds=rounds)
    cert = result.certificate
    return {
        "obstruction_n": cert.obstruction_vertices,
        "certified_rounds": cert.rounds,
        "colors_ruled_out": cert.colors,
        "chi_obstruction": cert.obstruction_chromatic_lower_bound,
        "rounds/n": round(cert.rounds / n, 3),
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E10 — Theorems 2.5 / 2.6 (Klein-bottle grid lower bounds)
# ---------------------------------------------------------------------------

def lowerbound_triangle_free(length: int, rounds: int, profile: bool = False) -> dict[str, Any]:
    """Certify the Omega(n) obstruction to 3-coloring triangle-free planar graphs."""
    prof = StageProfile(profile)
    with prof("solve"):
        result = triangle_free_lower_bound(length, rounds=rounds)
    cert = result.certificate
    return {
        "obstruction_n": cert.obstruction_vertices,
        "certified_rounds": cert.rounds,
        "colors_ruled_out": cert.colors,
        "target": "triangle-free planar",
        **prof.metrics(),
    }


def lowerbound_bipartite_grid(k: int, rounds: int, profile: bool = False) -> dict[str, Any]:
    """Certify the Omega(sqrt(n)) obstruction to 3-coloring planar bipartite graphs."""
    prof = StageProfile(profile)
    with prof("solve"):
        result = bipartite_grid_lower_bound(k, rounds=rounds)
    cert = result.certificate
    return {
        "obstruction_n": cert.obstruction_vertices,
        "certified_rounds": cert.rounds,
        "colors_ruled_out": cert.colors,
        "target": "planar bipartite (grid)",
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E11/E12/E13 — distributed primitives and the CSR speedup tracker
# ---------------------------------------------------------------------------

def _bfs_parents(graph, root):
    parents = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in parents:
                parents[w] = u
                queue.append(w)
    return parents


def primitives_cole_vishkin(n: int, profile: bool = False) -> dict[str, Any]:
    """3-color a rooted path with Cole–Vishkin; rounds grow like log* n."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = classic.path(n)
    with prof("solve"):
        result = color_rooted_forest(graph, _bfs_parents(graph, 0))
    return {
        "rounds": result.rounds,
        "colors": len(set(result.outputs.values())),
        "log_star_n": log_star_floor(n),
        **prof.metrics(),
    }


def primitives_delta_plus_one(
    n: int, degree: int, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """(Δ+1)-color a random regular graph with Linial + color reduction."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = classic.random_regular_graph(n, degree, seed=seed)
    with prof("solve"):
        result = delta_plus_one_coloring(graph)
    return {
        "rounds": result.rounds,
        "colors": len(set(result.coloring.values())),
        "log_star_n": log_star_floor(len(graph)),
        **prof.metrics(),
    }


def primitives_ruling_forest(n: int, alpha: int, profile: bool = False) -> dict[str, Any]:
    """Build the (alpha, alpha log n)-ruling forest on a grid."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = classic.grid_2d(n // 10, 10)
    with prof("solve"):
        forest = ruling_forest(graph, set(graph.vertices()), alpha=alpha)
    return {
        "rounds": forest.rounds,
        "colors": len(forest.roots),
        "log_star_n": forest.beta,
        **prof.metrics(),
    }


def primitives_path_lower_bound(n: int, rounds: int, profile: bool = False) -> dict[str, Any]:
    """Observation 2.4 certificate: 2-coloring a path needs Omega(n) rounds."""
    prof = StageProfile(profile)
    with prof("solve"):
        result = path_two_coloring_lower_bound(n, rounds=rounds)
    return {
        "rounds": result.certificate.rounds, "colors": 2, "log_star_n": 0,
        **prof.metrics(),
    }


def simulator_throughput(
    n: int,
    topology: str,
    algorithm: str,
    engine: str,
    id_seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """Time one full simulation on the seed, flat or batched round engine.

    ``engine`` selects the data plane: ``seed`` is the dict-routed
    reference engine (:mod:`repro.local.reference`), ``flat`` the
    flat-array per-node engine and ``batch`` the vectorized
    :class:`~repro.local.node.BatchNodeAlgorithm` path.  ``algorithm`` is
    ``cole-vishkin`` (rooted path), ``greedy`` (ring with identifiers
    shuffled by ``id_seed`` so the decreasing-id chains stay logarithmic
    and every engine sees the same instance) or ``wave`` (rooted-path
    2-coloring whose round count is exactly ``n`` — the Ω(n) lower-bound
    workload; its batched program runs in the sparse ``"active"``
    exchange mode so large ``n`` stays tractable).  The network and its
    routing fabric are built during the ``freeze`` stage, so
    ``engine_seconds`` measures pure round throughput.  The batched
    engine receives index-aligned ndarray inputs (zero-copy through
    ``Network.inputs_list``); the per-node engines take the equivalent
    dict.
    """
    import random

    from repro.distributed.cole_vishkin import (
        BatchColeVishkinForestColoring,
        ColeVishkinForestColoring,
        cole_vishkin_iterations,
    )
    from repro.distributed.greedy_baseline import (
        BatchGreedyLocalMaximaAlgorithm,
        GreedyLocalMaximaAlgorithm,
    )
    from repro.distributed.wave import BatchWaveTwoColoring, WaveTwoColoring
    from repro.local.network import Network
    from repro.local.reference import ReferenceSimulator
    from repro.local.simulator import SynchronousSimulator

    import numpy as np

    prof = StageProfile(profile)
    with prof("generate"):
        if topology == "path":
            graph = classic.path(n)
        elif topology == "ring":
            graph = classic.cycle(n)
        else:
            raise ValueError(f"unknown topology {topology!r}")
    with prof("freeze"):
        frozen = graph.freeze()
        if algorithm == "greedy":
            order = frozen.vertices()
            random.Random(id_seed).shuffle(order)
            network = Network(frozen, identifier_order=order)
        else:
            network = Network(frozen)
        network.fabric  # build the routing table outside the timed engine run
        network.identifiers_np  # ... the identifier array the batch engine reads
        network.ports  # ... and the dict views the seed engine routes through
        network.port_of
    if algorithm == "cole-vishkin":
        # rooted path: parent of vertex i is i - 1; identifier 0 does not
        # exist, so it doubles as the batched "no parent" sentinel
        inputs: Any
        if engine == "batch":
            inputs = np.concatenate(
                ([0], network.identifiers_np[:-1])
            ) if n else np.zeros(0, dtype=np.int64)
        else:
            inputs = {
                v: None if v == 0 else network.identifier_of[v - 1]
                for v in frozen
            }
        per_node: Any = ColeVishkinForestColoring
        batched: Any = BatchColeVishkinForestColoring
        max_rounds = 10 * cole_vishkin_iterations(n) + 30
        palette = 3
    elif algorithm == "greedy":
        delta = max(1, frozen.max_degree())
        if engine == "batch":
            inputs = np.full(n, delta, dtype=np.int64)
        else:
            inputs = {v: delta for v in frozen}
        per_node = GreedyLocalMaximaAlgorithm
        batched = BatchGreedyLocalMaximaAlgorithm
        max_rounds = n + 2
        palette = delta + 1
    elif algorithm == "wave":
        if topology != "path":
            raise ValueError("the wave workload runs on the path topology")
        if engine == "batch":
            inputs = np.zeros(n, dtype=np.int64)
            if n:
                inputs[0] = 1
        else:
            inputs = {v: v == 0 for v in frozen}
        per_node = WaveTwoColoring
        batched = BatchWaveTwoColoring
        max_rounds = n + 2
        palette = 2
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    with prof("solve"):
        start = time.perf_counter()
        if engine == "seed":
            result = ReferenceSimulator(network).run(
                per_node, inputs=inputs, max_rounds=max_rounds, strict=True
            )
        elif engine == "flat":
            result = SynchronousSimulator(network).run(
                per_node, inputs=inputs, max_rounds=max_rounds, strict=True
            )
        elif engine == "batch":
            result = SynchronousSimulator(network).run(
                batched, inputs=inputs, max_rounds=max_rounds, strict=True
            )
        else:
            raise ValueError(f"unknown engine {engine!r}")
        elapsed = time.perf_counter() - start
    with prof("verify"):
        from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle

        assert result.finished
        outputs = result.outputs
        offset = 1 if algorithm == "greedy" else 0
        if algorithm == "wave" and n:
            # the Ω(n) lower-bound signature: the wavefront advances one
            # hop per round, so a rooted path needs exactly n rounds and
            # one broadcast per node
            assert result.rounds == n, (result.rounds, n)
            assert result.messages_sent == 2 * (n - 1)
        ProperColoringOracle().check(
            graph=frozen, coloring=outputs
        ).raise_if_failed()
        PaletteBudgetOracle().check(
            coloring=outputs, budget=palette
        ).raise_if_failed()
        assert all(offset <= outputs[v] < palette + offset for v in frozen)
    return {
        "n": n,
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "engine_seconds": elapsed,
        "rounds_per_sec": round(result.rounds / elapsed, 1) if elapsed > 0 else 0.0,
        "messages_per_sec": round(result.messages_sent / elapsed) if elapsed > 0 else 0,
        **prof.metrics(),
    }


def primitives_degeneracy(
    n: int, arboricity: int, backend: str, seed: int | None = None, profile: bool = False
) -> dict[str, Any]:
    """Time one degeneracy-ordering computation on the dict or CSR backend.

    The CSR timing is taken on a pre-frozen graph; the one-time freeze cost
    is reported separately (``freeze_seconds``) because it is paid once per
    graph and amortized over every primitive running on the frozen view.
    """
    prof = StageProfile(profile)
    with prof("generate"):
        graph = sparse.union_of_random_forests(n, arboricity, seed=seed)
    metrics: dict[str, Any] = {"n": n, "m": graph.number_of_edges()}
    if backend == "dict":
        with prof("solve"):
            start = time.perf_counter()
            value = _degeneracy_ordering_sets(graph)[0]
            metrics["compute_seconds"] = time.perf_counter() - start
    else:
        with prof("freeze"):
            start = time.perf_counter()
            frozen = graph.freeze()
            metrics["freeze_seconds"] = time.perf_counter() - start
        with prof("solve"):
            start = time.perf_counter()
            value = frozen.degeneracy_ordering()[0]
            metrics["compute_seconds"] = time.perf_counter() - start
    metrics["degeneracy"] = value
    metrics.update(prof.metrics())
    return metrics


def primitives_balls(
    n: int, arboricity: int, radius: int, backend: str,
    seed: int | None = None, profile: bool = False,
) -> dict[str, Any]:
    """Time one all-vertices ball collection on the dict or CSR backend."""
    prof = StageProfile(profile)
    with prof("generate"):
        graph = sparse.union_of_random_forests(n, arboricity, seed=seed)
    if backend != "dict":
        with prof("freeze"):
            graph = graph.freeze()
    with prof("solve"):
        start = time.perf_counter()
        balls = collect_balls(graph, radius)
        elapsed = time.perf_counter() - start
    return {
        "n": n,
        "radius": radius,
        "total_ball_members": sum(len(b) for b in balls.values()),
        "compute_seconds": elapsed,
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# scale: million-node rows on zero-copy published graphs
# ---------------------------------------------------------------------------

def scale_peel(handle, profile: bool = False) -> dict[str, Any]:
    """Degeneracy-peel a published graph attached zero-copy by handle.

    ``handle`` is a :class:`~repro.analysis.shared.SharedGraphHandle`; the
    worker attaches to the parent's CSR buffers (shared memory or npz
    memory-map) instead of unpickling a copy, so the ``freeze`` stage times
    the attachment itself.  The verify stage recomputes the content digest
    from the attached arrays — the bit-identical-transport check.
    """
    from repro.analysis import shared
    from repro.corpus import graph_digest

    prof = StageProfile(profile)
    with prof("freeze"):
        start = time.perf_counter()
        graph = shared.attach(handle)
        attach_seconds = time.perf_counter() - start
    with prof("solve"):
        start = time.perf_counter()
        degeneracy = graph.degeneracy()
        peel_seconds = time.perf_counter() - start
    with prof("verify"):
        digest_ok = graph_digest(graph) == handle.digest
    return {
        "n": len(graph),
        "m": graph.number_of_edges(),
        "degeneracy": degeneracy,
        "transport": handle.kind,
        "attach_seconds": attach_seconds,
        "peel_seconds": peel_seconds,
        "digest_ok": digest_ok,
        "valid": digest_ok,
        **prof.metrics(),
    }


def scale_coloring(handle, profile: bool = False) -> dict[str, Any]:
    """(Delta+1)-color a published bounded-degree graph with the batch engine.

    Attaches zero-copy like :func:`scale_peel`, then runs the batched
    greedy local-maxima program through the synchronous simulator — the
    identity labels of the attached graph feed the flat fabric directly,
    and the inputs go in as one index-aligned array, so the engine never
    materializes a vertex dict.
    """
    import numpy as np

    from repro.analysis import shared
    from repro.distributed.greedy_baseline import BatchGreedyLocalMaximaAlgorithm
    from repro.local.network import Network
    from repro.local.simulator import SynchronousSimulator
    from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle

    prof = StageProfile(profile)
    with prof("freeze"):
        start = time.perf_counter()
        graph = shared.attach(handle)
        attach_seconds = time.perf_counter() - start
        network = Network(graph)
        network.fabric
    delta = max(1, graph.max_degree())
    inputs = np.full(len(graph), delta, dtype=np.int64)
    with prof("solve"):
        start = time.perf_counter()
        result = SynchronousSimulator(network).run(
            BatchGreedyLocalMaximaAlgorithm,
            inputs=inputs,
            max_rounds=len(graph) + 2,
            strict=True,
        )
        engine_seconds = time.perf_counter() - start
    with prof("verify"):
        assert result.finished
        proper = ProperColoringOracle().check(graph=graph, coloring=result.outputs)
        budget = PaletteBudgetOracle().check(coloring=result.outputs, budget=delta + 1)
    return {
        "n": len(graph),
        "m": graph.number_of_edges(),
        "delta": delta,
        "colors": len(set(result.outputs.values())),
        "budget": delta + 1,
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "transport": handle.kind,
        "attach_seconds": attach_seconds,
        "engine_seconds": engine_seconds,
        "valid": proper.ok and budget.ok,
        **prof.metrics(),
    }


def scale_npz_roundtrip(handle, profile: bool = False) -> dict[str, Any]:
    """Save/load parity: npz round trip of a published graph, mmap and not.

    Writes the attached graph with :meth:`FrozenGraph.save_npz`, reloads it
    both memory-mapped and materialized, and requires the content digest
    (and the degeneracy computed *from the memmap*) to match the original —
    the substrate-parity claim for the on-disk form.
    """
    import os as _os
    import tempfile

    from repro.analysis import shared
    from repro.corpus import graph_digest
    from repro.graphs.frozen import FrozenGraph

    prof = StageProfile(profile)
    with prof("freeze"):
        graph = shared.attach(handle)
    fd, path = tempfile.mkstemp(suffix=".npz")
    _os.close(fd)
    try:
        with prof("solve"):
            start = time.perf_counter()
            graph.save_npz(path)
            save_seconds = time.perf_counter() - start
            file_bytes = _os.path.getsize(path)
            start = time.perf_counter()
            mapped = FrozenGraph.load_npz(path, mmap=True)
            load_seconds = time.perf_counter() - start
            heap = FrozenGraph.load_npz(path, mmap=False)
        with prof("verify"):
            digest_ok = (
                graph_digest(mapped)
                == graph_digest(heap)
                == handle.digest
            )
            peel_ok = mapped.degeneracy() == graph.degeneracy()
    finally:
        _os.unlink(path)
    return {
        "n": len(graph),
        "file_bytes": file_bytes,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "digest_ok": digest_ok,
        "valid": digest_ok and peel_ok,
        **prof.metrics(),
    }


def serve_load(
    workload: str,
    clients: int,
    requests: int,
    huge_n: int,
    cache_max_bytes: int,
    batch_window_ms: float,
    seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """One load-generator replay against an in-process coloring service.

    Boots :class:`repro.serve.server.ColoringService` on an ephemeral port
    inside this task's process, drives ``clients`` concurrent asyncio
    clients through the named workload, and returns the latency/throughput/
    cache metrics of :func:`repro.serve.loadgen.run_workload`.  Everything
    — server, batcher, compute — runs in-process, so the row measures the
    service stack itself, not fork overhead.
    """
    from repro.serve.loadgen import run_workload

    prof = StageProfile(profile)
    with prof("solve"):
        metrics = run_workload(
            workload,
            clients=clients,
            requests=requests,
            huge_n=huge_n,
            seed=seed,
            cache_max_bytes=cache_max_bytes,
            batch_window_ms=batch_window_ms,
        )
    return {**metrics, **prof.metrics()}


# ---------------------------------------------------------------------------
# E18 — dynamic graphs + fault injection (self-stabilizing recovery)
# ---------------------------------------------------------------------------

#: fault-kind mixes the E18 grid sweeps; the message mix includes a color
#: corruption so there is a perturbation whose recovery the lossy rounds
#: can actually delay (pure drops/dups never make a legal coloring illegal)
FAULT_MIXES: dict[str, tuple[str, ...]] = {
    "corrupt": ("corrupt-color",),
    "reset": ("node-reset",),
    "edge-churn": ("edge-insert", "edge-delete"),
    "message": ("corrupt-color", "message-drop", "message-duplicate"),
}


def dynamic_recovery(
    family: str,
    n: int,
    faults: str,
    protocol: str,
    backend: str,
    events: int = 6,
    window: int = 4,
    max_rounds: int = 400,
    seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """One dynamic run: perturb a legally colored graph, measure recovery.

    Generates a ``family`` graph (the Lemma 3.1 families), seeds it with a
    legal degeneracy-greedy coloring, draws a :class:`FaultPlan` from the
    ``faults`` mix (:data:`FAULT_MIXES`) and drives the named stabilizing
    ``protocol`` on the dict or flat :class:`PerturbableNetwork` backend
    until quiescence.  The trace is audited in-process by the
    :class:`RecoveryOracle` (replay conformance) and the
    :class:`ContainmentOracle` (causal-cone locality) before any metric is
    reported; the row carries ``rounds_to_recovery``/``containment_radius``
    for the artifact-level recovery oracle and ``coloring_sha``/``log_sha``
    for the cross-backend parity checks.
    """
    from repro.distributed.stabilizing import STABILIZING_PROTOCOLS
    from repro.faults import (
        FaultPlan,
        PerturbableNetwork,
        event_log_digest,
        palette_bound,
        run_stabilizing,
    )
    from repro.verify.recovery import (
        ContainmentOracle,
        RecoveryOracle,
        recovery_metrics,
    )

    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
        # a small window clusters the events into a burst, so recovery has
        # to dig out of compounded damage rather than heal one fault at a
        # time — that is where rounds-to-recovery becomes a real measurement
        plan = FaultPlan.random(
            graph, seed=seed if seed is not None else 0,
            kinds=FAULT_MIXES[faults], events=events, window=window,
        )
        budget = palette_bound(graph, plan)
        initial = degeneracy_greedy_coloring(graph)
    with prof("freeze"):
        pnet = PerturbableNetwork(graph, backend=backend)
    per_node, batched = STABILIZING_PROTOCOLS[protocol]
    factory = batched if backend == "flat" else per_node
    with prof("solve"):
        start = time.perf_counter()
        trace = run_stabilizing(
            pnet, factory, plan=plan, budget=budget,
            initial_coloring=initial, max_rounds=max_rounds,
            protocol=protocol,
        )
        elapsed = time.perf_counter() - start
    with prof("verify"):
        RecoveryOracle().check(trace=trace).raise_if_failed()
        ContainmentOracle().check(trace=trace).raise_if_failed()
        metrics = recovery_metrics(trace)
    return {
        "n": n,
        "budget": budget,
        **metrics,
        # declared caps the artifact-level recovery oracle enforces
        "recovery_cap": max_rounds,
        "containment_bound": max_rounds,
        # parity fingerprints: final coloring and the applied-event ledger
        "coloring_sha": _coloring_digest(trace.final_coloring),
        "log_sha": event_log_digest(trace.event_log()),
        "solve_seconds": round(elapsed, 6),
        **prof.metrics(),
    }


# ---------------------------------------------------------------------------
# E19 — randomized track (Moser–Tardos lists + randomized Δ+1)
# ---------------------------------------------------------------------------

def randomized_delta_plus_one(
    family: str,
    n: int,
    engine: str,
    seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """One randomized (Δ+1)-coloring row on the ``batch`` or ``flat`` engine.

    The run is audited in-process before its row is written: the
    :class:`~repro.verify.randomized.RandomizedRoundsOracle` checks the
    uncolored-frontier trace (non-increasing, drains to zero) against the
    O(log n) concentration envelope, and the coloring itself must be
    proper and inside the Δ+1 budget.  ``coloring_sha`` plus the
    rounds/messages metrics feed the artifact-level variant-parity
    oracle: both engines must replay the identical run bit for bit
    (``seed_group`` hands them the same derived seed).
    """
    from repro.distributed.randomized import randomized_delta_plus_one_coloring
    from repro.local.network import Network
    from repro.verify import PaletteBudgetOracle, ProperColoringOracle
    from repro.verify.randomized import RandomizedRoundsOracle

    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
    with prof("freeze"):
        frozen = graph.freeze()
        network = Network(frozen)
        network.fabric  # build the routing table outside the timed run
    with prof("solve"):
        start = time.perf_counter()
        result = randomized_delta_plus_one_coloring(
            frozen,
            seed=seed if seed is not None else 0,
            batched=engine == "batch",
            network=network,
        )
        elapsed = time.perf_counter() - start
    with prof("verify"):
        vertices = frozen.number_of_vertices()
        RandomizedRoundsOracle().check(
            n=vertices, rounds=result.rounds, frontier=result.frontier
        ).raise_if_failed()
        ProperColoringOracle().check(
            graph=frozen, coloring=result.coloring
        ).raise_if_failed()
        PaletteBudgetOracle().check(
            coloring=result.coloring, budget=result.palette_size
        ).raise_if_failed()
    return {
        "n": vertices,
        "rounds": result.rounds,
        "messages": result.messages,
        "colors": len(set(result.coloring.values())),
        "budget": result.palette_size,
        "frontier_rounds": len(result.frontier),
        "frontier_monotone": all(
            result.frontier[i + 1] <= result.frontier[i]
            for i in range(len(result.frontier) - 1)
        ),
        "coloring_sha": _coloring_digest(result.coloring),
        "solve_seconds": round(elapsed, 6),
        **prof.metrics(),
    }


def deterministic_delta_plus_one(
    family: str,
    n: int,
    algorithm: str,
    seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """The deterministic comparator row: greedy or Linial (Δ+1)-coloring.

    Shares the randomized rows' ``seed_group``, so it colors the *same*
    generated graph — the randomized-vs-deterministic rounds/colors
    comparison in ``BENCH_randomized.json`` is like for like.
    """
    from repro.distributed.greedy_baseline import greedy_distributed_coloring
    from repro.distributed.linial import delta_plus_one_coloring
    from repro.local.network import Network
    from repro.verify import PaletteBudgetOracle, ProperColoringOracle

    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
    with prof("freeze"):
        frozen = graph.freeze()
        network = Network(frozen)
        network.fabric
    with prof("solve"):
        start = time.perf_counter()
        if algorithm == "greedy":
            result = greedy_distributed_coloring(
                frozen, batched=True, network=network
            )
        elif algorithm == "linial":
            result = delta_plus_one_coloring(frozen, batched=True)
        else:
            raise ValueError(f"unknown deterministic algorithm {algorithm!r}")
        elapsed = time.perf_counter() - start
    with prof("verify"):
        ProperColoringOracle().check(
            graph=frozen, coloring=result.coloring
        ).raise_if_failed()
        PaletteBudgetOracle().check(
            coloring=result.coloring, budget=result.palette_size
        ).raise_if_failed()
    return {
        "n": frozen.number_of_vertices(),
        "rounds": result.rounds,
        "messages": result.messages,
        "colors": len(set(result.coloring.values())),
        "budget": result.palette_size,
        "coloring_sha": _coloring_digest(result.coloring),
        "solve_seconds": round(elapsed, 6),
        **prof.metrics(),
    }


def moser_tardos_lists(
    family: str,
    n: int,
    backend: str,
    seed: int | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """One Moser–Tardos list-coloring row on the flat or dict backend.

    Per-vertex lists are distinct sliding windows of ``2Δ+2`` colors over
    a ``4Δ+4`` universe — a genuine list-coloring instance with enough
    LLL slack for the resampler to converge quickly.  The verify stage
    replays the entropy-compression record log through the
    :class:`~repro.verify.randomized.ResampleLogOracle`, so a row only
    exists if its witness survives the replay audit; ``log_sha`` and
    ``coloring_sha`` feed the cross-backend parity check.
    """
    from repro.distributed.randomized import moser_tardos_list_coloring
    from repro.verify.randomized import ResampleLogOracle

    prof = StageProfile(profile)
    with prof("generate"):
        graph = _lemma_family_graph(family, n, seed)
        frozen = graph.freeze()
        delta = max(1, frozen.max_degree())
        universe = 4 * delta + 4
        width = 2 * delta + 2
        lists = {
            v: [((i * 3 + j) % universe) + 1 for j in range(width)]
            for i, v in enumerate(frozen.vertices())
        }
    with prof("solve"):
        start = time.perf_counter()
        result = moser_tardos_list_coloring(
            frozen, lists,
            seed=seed if seed is not None else 0,
            backend=backend,
        )
        elapsed = time.perf_counter() - start
    with prof("verify"):
        ResampleLogOracle().check(
            graph=frozen, lists=lists, seed=result.seed,
            log=result.log, coloring=result.coloring, backend=backend,
        ).raise_if_failed()
    return {
        "n": frozen.number_of_vertices(),
        "resamples": result.steps,
        "colors": len(set(result.coloring.values())),
        "budget": universe,
        "list_size": width,
        "log_sha": result.log_digest(),
        "coloring_sha": _coloring_digest(result.coloring),
        "solve_seconds": round(elapsed, 6),
        **prof.metrics(),
    }
