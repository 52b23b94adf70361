"""Per-layer metrics of a traced run, named as ``BENCHMARK.json`` lists them.

``self_s`` and ``calls`` are per traced op (per request for serve), so
runs of different lengths compare.  A layer a workload does not reach
reads 0.
"""

from __future__ import annotations

from spans import COUNTED, LAYERS, PROGRAM_LAYER

#: ledger phase -> per-layer metric (rounds summed over the graph set)
LEDGER_PHASES = {
    "clique detection": "core.rounds.clique",
    "Lemma 3.1: rich-ball collection": "core.rounds.rich_balls",
    "Lemma 3.2: ruling forest": "core.rounds.ruling",
    "Lemma 3.2: (d+1) stable partition of the trees": "core.rounds.stable_partition",
    "Lemma 3.2: layered coloring of the trees": "core.rounds.layered",
    "Lemma 3.2: Theorem 1.1 on the root balls": "core.rounds.root_balls",
}

CALL_COUNTS = (
    "coloring.borodin_ert",
    "distributed.ruling",
    "graphs.frozen.subgraph",
    "local.simulator",
    "local.kernels",
)

#: metrics of the serve layer, measured from outside (0 on other workloads)
SERVE_OUTSIDE = {
    "serve.cache.hit_ratio": "ratio",
    "serve.hit_lat_ms.p50.high": "ms",
    "serve.miss_lat_ms.p50.high": "ms",
    "serve.compute_ms.p50": "ms",
    "serve.upload_ms.p50": "ms",
    "serve.batching.batches": "count",
    "serve.batching.coalesced": "count",
    "serve.batching.max_batch_size": "count",
    "loadgen.lag_ms.max": "ms",
    "loadgen.queue_ms.p50.high": "ms",
}

DRIVER_KINDS = ("cv", "greedy", "randomized")


def catalogue() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names: dict[str, str] = {}
    for layer in (*LAYERS, PROGRAM_LAYER):
        names[f"{layer}.self_s"] = "s"
    for layer in CALL_COUNTS:
        names[f"{layer}.calls"] = "count"
    for name in COUNTED:
        names[f"{name}.calls"] = "count"
    names["local.simulator.rounds"] = "count"
    names["local.simulator.messages"] = "count"
    names["local.simulator.us_per_round"] = "us"
    for metric in LEDGER_PHASES.values():
        names[metric] = "count"
    for kind in DRIVER_KINDS:
        names[f"distributed.driver.lat_ms.p50.{kind}"] = "ms"
    names.update(SERVE_OUTSIDE)
    names["runtime.gc_s"] = "s"
    names["runtime.gc_collections"] = "count"
    names["trace.attributed_frac"] = "ratio"
    names["trace.overhead_frac"] = "ratio"
    return names


def simulator_counters(tracer):
    """Result hooks that add each simulation's rounds and messages to the tracer."""
    counts = tracer.result_counts
    counts.update({"local.simulator.rounds": 0, "local.simulator.messages": 0})

    def on_simulation(result):
        counts["local.simulator.rounds"] += result.rounds
        counts["local.simulator.messages"] += result.messages_sent

    return {"local.simulator": on_simulation}


def from_summary(summary: dict, per: int) -> dict[str, float]:
    """Per-layer values from a :meth:`Tracer.summary`, divided by ``per`` ops."""
    per = max(per, 1)
    values = {name: 0.0 for name in catalogue()}
    layers = summary["layers"]
    for layer, row in layers.items():
        values[f"{layer}.self_s"] = row["self_s"] / per
        if layer in CALL_COUNTS:
            values[f"{layer}.calls"] = row["calls"] / per
    for name, count in summary["counts"].items():
        values[f"{name}.calls"] = count / per
    for name, count in summary["result_counts"].items():
        values[name] = count / per
    rounds = summary["result_counts"].get("local.simulator.rounds", 0)
    if rounds:
        values["local.simulator.us_per_round"] = (
            layers["local.simulator"]["total_s"] / rounds * 1e6
        )
    values["runtime.gc_s"] = summary["gc_s"] / per
    values["runtime.gc_collections"] = summary["gc_collections"] / per
    return values


def in_process(tracer, raw: dict) -> dict[str, float]:
    """Per-layer metrics of a traced in-process run."""
    from stats import median

    summary = tracer.summary()
    ops = summary["ops"]
    values = from_summary(summary, ops["calls"])
    if ops["total_s"] > 0:
        values["trace.attributed_frac"] = 1.0 - ops["self_s"] / ops["total_s"]
    if raw["plain_pair_times"]:
        values["trace.overhead_frac"] = (
            sum(raw["traced_times"]) / sum(raw["plain_pair_times"]) - 1.0
        )
    for phase, rounds in raw["ledger"].items():
        if phase in LEDGER_PHASES:
            values[LEDGER_PHASES[phase]] = float(rounds)
    for kind in DRIVER_KINDS:
        if raw["kind_times"].get(kind):
            values[f"distributed.driver.lat_ms.p50.{kind}"] = (
                median(raw["kind_times"][kind]) * 1e3
            )
    return values
