"""One workload run in a fresh process; writes its raw result as JSON.

Usage: ``python perfbench/child.py WORKLOAD SEED SECONDS TRACE OUT.json``
(``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src``).  Setup runs ``SETUP_REPEATS`` times and its median is the
``setup_s`` metric.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys

import layers
from stats import median

SETUP_REPEATS = 5


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    ops, setup_times, unscaled_setup = workloads.run_setup(workload, seed, SETUP_REPEATS)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.prepare(on_result=layers.simulator_counters(tracer))
    raw = workloads.measure(workload, ops, seconds, tracer=tracer)
    metrics, extra = workloads.end_to_end(raw)
    metrics["setup_s"] = (median(setup_times), "s", len(setup_times))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    extra["unscaled.setup_s"] = (median(unscaled_setup), "s", len(unscaled_setup))
    result = {
        "metrics": metrics,
        "extra": extra,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"][:20],
        "fingerprint": raw["fingerprint"],
        "charged_rounds": raw["charged_rounds"],
    }
    if tracer is not None:
        result["per_layer"] = layers.in_process(tracer, raw)
        result["per_layer_samples"] = len(raw["traced_times"])
        os.makedirs(os.path.join(".perfbench", "spans"), exist_ok=True)
        tracer.save(os.path.join(".perfbench", "spans", f"{name}.npz"))
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, out = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    if name == "serve":
        import serve_load

        result = serve_load.run(seed, seconds, trace, SETUP_REPEATS)
    else:
        result = run_in_process(name, seed, seconds, trace)
    result["env"] = environment()
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
