"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload theorem13 --seed 1 --seconds 15 --trace 0

The workload runs in a fresh child process (``child.py``) with one thread
per numeric library, ``REPRO_NATIVE`` unset and ``REPRO_CORPUS_DIR`` on a
fresh temporary directory that is deleted afterwards.  With ``--trace 0``
the last line of output carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, from a run
with the span recorder installed.  Before that line a table gives each
metric with its unit and sample count, the output fingerprint and the
machine.  The exit code is 0 only if every op's output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("theorem13", "rounds-deep", "rounds-wide", "serve")
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(corpus_dir: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NATIVE", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CORPUS_DIR"] = corpus_dir
    return env


def run_child(args) -> dict | None:
    os.makedirs(".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".perfbench")
    try:
        corpus = os.path.join(workdir, "corpus")
        os.makedirs(corpus)
        out = os.path.join(workdir, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            args.workload, str(args.seed), str(args.seconds), str(args.trace), out,
        ]
        # its own process group, so a timeout also stops the server it started
        child = subprocess.Popen(
            command, env=child_env(corpus), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        try:
            output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            output, _ = child.communicate()
            sys.stderr.write(output)
            fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
            return None
        sys.stderr.write(output)
        if child.returncode != 0 or not os.path.exists(out):
            fail(f"{args.workload} child exited with {child.returncode}")
            return None
        with open(out) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def row(name: str, value: float, unit: str, samples: int) -> str:
    return f"  {name:<40} {value:>14.6g} {unit:<6} n={samples}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        return fail("run from the root of a checkout: src/repro is missing")
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    result = run_child(args)
    if result is None:
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {
            m["name"]: (float(result["per_layer"][m["name"]]), m["unit"],
                        result["per_layer_samples"])
            for m in wanted if m["name"] in result["per_layer"]
        }
    else:
        values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"{args.workload} did not measure {missing}")
    bad = [m["name"] for m in wanted if not math.isfinite(values[m["name"]][0])]
    if bad:
        return fail(f"{args.workload} measured non-finite {bad}")

    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = attempted >= 1 and failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for metric in wanted:
        print(row(metric["name"], *values[metric["name"]]))
    if not args.trace:
        print("  not gated:")
        for name, (value, unit, samples) in sorted(result["extra"].items()):
            print(row(name, value, unit, samples))
        for name, note in result.get("notes", {}).items():
            print(f"  {name}: {note}")
    print(f"  ops_failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if result.get("charged_rounds") is not None:
        print(f"  charged_rounds {result['charged_rounds']}")
    print(f"  fingerprint {result['fingerprint']}")
    print(f"  env {json.dumps(result['env'])}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
