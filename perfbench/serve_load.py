"""The serve workload: ``python -m repro serve`` under an open-loop Poisson load.

The server runs with its defaults (one worker, 2 ms batch window, 64 MiB
cache) in a subprocess; this process is the load generator, with at most
``nproc`` connections.  Three out of four arrivals are hot: they color a
preloaded standard instance whose result the warm-up put in the cache.
Every fourth arrival is cold: it uploads a fresh seeded 2-degenerate graph
of ``COLD_N`` vertices and colors it, so the server runs the algorithm and
its oracles.  Each cold response's coloring is checked again here against
the uploaded edges.

The run has four phases.  Open loop, over every connection, with latency
measured from each arrival's due time: the fixed low rate, the fixed high
rate, and an ascending ladder of rates.  A ladder step fails when a request
fails, the SLO percentile exceeds ``SLO_LIMIT_MS`` or the step ends with a
backlog; the ladder stops after two failed steps in a row, so one unlucky
step does not end it, and ``slo_rps`` is the highest rate that passed
below them.  Closed loop, over one connection: the same request mix sent
back to back, which gives the gated end-to-end metrics (see ``_result``).
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import shutil
import subprocess
import sys
import tempfile
import time

from stats import (
    Arrival,
    highest_reportable,
    lateness,
    median,
    percentile,
    reportable,
    scaled,
    speed_probe,
)

#: fixed open-loop rates (requests/s): about 1/5 and 1/2 of the slo_rps measured
#: on a 2-vCPU VM (about 200)
LOW_RPS = 40.0
HIGH_RPS = 90.0
#: ascending ladder for slo_rps from above the high rate; 8% steps, finer than its bound
LADDER_RPS = tuple(round(130.0 * 1.08 ** k, 1) for k in range(12))
SLO_QUANTILE = 0.9
SLO_LIMIT_MS = 60.0
#: arrivals per phase: p90 needs 100, p99 needs 1000
LOW_ARRIVALS = 150
HIGH_ARRIVALS = 1000
STEP_ARRIVALS = 160
SEQUENTIAL_ARRIVALS = 720
COLD_EVERY = 4
COLD_N = 200
COLD_ALGORITHMS = ("greedy", "delta-plus-one", "theorem13")
HOT_INSTANCES = (
    "planar-tri-60-s3",
    "grid-6x10",
    "bounded-mad-64-k2-s5",
    "forest-union-80-a2-s1",
    "path-33",
)
#: speed probes taken before and after each phase and each boot
PROBES = 5
REQUEST_DEADLINE_S = 30.0
BOOT_TIMEOUT_S = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One server subprocess with its own fresh corpus directory.

    Its stderr goes to a file, so a chatty server never blocks on a full pipe.
    """

    def __init__(self, traced: bool, workdir: str):
        self.corpus_dir = tempfile.mkdtemp(prefix="corpus-", dir=workdir)
        env = dict(os.environ, REPRO_CORPUS_DIR=self.corpus_dir)
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py"), "--port", "0"]
        else:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.stderr = open(os.path.join(self.corpus_dir, "stderr.log"), "w+")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.stderr, text=True, env=env
        )
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stderr.seek(0)
            errors = self.stderr.read()[-2000:]
            self.close()
            raise RuntimeError(f"server did not boot: {line!r} {errors}")
        self.host, port = line.split()[-1].rsplit(":", 1)
        self.port = int(port)

    def pin(self, cpus) -> None:
        """Bind every thread of the server to ``cpus``."""
        for tid in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(tid), cpus)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        self.process.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.corpus_dir, ignore_errors=True)


class Spec:
    """One scheduled arrival: its offset from the phase start and what it asks."""

    __slots__ = ("offset", "hot_key", "cold")

    def __init__(self, offset, hot_key=None, cold=None):
        self.offset = offset
        self.hot_key = hot_key  # (digest, algorithm)
        self.cold = cold  # (n, edges, algorithm)


def cold_graph(seed: int):
    from repro.graphs.generators.sparse import random_degenerate_graph

    graph = random_degenerate_graph(COLD_N, 2, seed=seed)
    return [[int(u), int(v)] for u, v in graph.edges()]


def schedule(rng: random.Random, rate: float, count: int, hot_keys, cold_seed: int, first: int):
    """``count`` Poisson arrivals at ``rate``; arrival ``i`` is cold when ``i % COLD_EVERY == 3``."""
    specs, offset = [], 0.0
    for index in range(first, first + count):
        offset += rng.expovariate(rate)
        if index % COLD_EVERY == COLD_EVERY - 1:
            cold_index = index // COLD_EVERY
            algorithm = COLD_ALGORITHMS[cold_index % len(COLD_ALGORITHMS)]
            edges = cold_graph(cold_seed * 1_000_003 + cold_index)
            specs.append(Spec(offset, cold=(COLD_N, edges, algorithm)))
        else:
            specs.append(Spec(offset, hot_key=hot_keys[rng.randrange(len(hot_keys))]))
    return specs


def check_cold(response, n, edges) -> list[str]:
    """Re-check a cold response's coloring against the graph this client uploaded."""
    colors: dict[int, int] = {}
    for label, color in response.get("coloring") or ():
        colors[int(label)] = color
    problems = []
    if sorted(colors) != list(range(n)):
        problems.append(f"coloring covers {len(colors)} of {n} vertices")
    clashes = sum(1 for u, v in edges if colors.get(u) == colors.get(v))
    if clashes:
        problems.append(f"{clashes} monochromatic edges")
    if len(set(colors.values())) > response.get("budget", 0):
        problems.append("coloring exceeds its palette budget")
    return problems


class LoadGenerator:
    """Open-loop client: a FIFO of due arrivals over a fixed set of connections."""

    def __init__(self, host: str, port: int, connections: int):
        self.host, self.port, self.connections = host, port, connections
        self.digests: dict[tuple, str] = {}  # (digest, algorithm) -> coloring digest
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: phase name -> "digest:algorithm:coloring digest:rounds" of its cold requests
        self.cold_parts: dict[str, list[str]] = {}

    async def open(self):
        from repro.serve.client import ServeClient

        self.clients = []
        for _ in range(self.connections):
            client = ServeClient(self.host, self.port, retries=0, deadline=REQUEST_DEADLINE_S)
            await client.connect()
            self.clients.append(client)

    async def close(self):
        for client in self.clients:
            await client.aclose()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    async def _issue(self, idle, client, spec: Spec, arrival: Arrival, record: dict):
        try:
            if spec.cold is not None:
                n, edges, algorithm = spec.cold
                start = time.perf_counter()
                summary = await client.upload(n, edges)
                record["upload_s"] = time.perf_counter() - start
                response = await client.color(summary["graph_digest"], algorithm)
                arrival.done = time.perf_counter()
                problems = check_cold(response, n, edges)
                if response.get("cached"):
                    problems.append("a fresh upload was served from the cache")
                key = (summary["graph_digest"], algorithm)
                record["compute_s"] = response.get("compute_seconds", 0.0)
            else:
                digest, algorithm = spec.hot_key
                response = await client.color(digest, algorithm, return_coloring=False)
                arrival.done = time.perf_counter()
                problems = []
                key = spec.hot_key
            record["cached"] = bool(response.get("cached"))
            if not response.get("valid"):
                problems.append("server verdict: invalid")
            seen = self.digests.setdefault(key, response.get("coloring_digest"))
            if seen != response.get("coloring_digest"):
                problems.append("coloring digest differs from an earlier response")
            if spec.cold is not None and not problems:
                self.cold_parts.setdefault(record["phase"], []).append(
                    f"{key[0]}:{key[1]}:{seen}:{response.get('rounds')}"
                )
            if problems:
                self._fail(f"{key[1]}: {'; '.join(problems)}")
            else:
                arrival.ok = True
        except Exception as exc:  # noqa: BLE001 - any failed exchange is a failed op
            arrival.done = time.perf_counter()
            self._fail(f"{type(exc).__name__}: {exc}"[:200])
        finally:
            idle.put_nowait(client)

    async def closed(self, name: str, specs: list[Spec]) -> dict:
        """Send ``specs`` back to back over one connection.

        A speed probe runs before each cold request, while the server is
        idle; every request is scaled by the probes on either side of its
        stretch (``factors``).
        """
        idle: asyncio.Queue = asyncio.Queue()
        arrivals, records, marks, probes = [], [], [], [speed_probe()]
        for spec in specs:
            if spec.cold is not None and arrivals:
                probes.append(speed_probe())
            marks.append(len(probes) - 1)
            arrival = Arrival(time.perf_counter())
            arrival.sent = arrival.due
            record = {"phase": name}
            self.attempted += 1
            await self._issue(idle, self.clients[0], spec, arrival, record)
            idle.get_nowait()
            arrivals.append(arrival)
            records.append(record)
        probes.append(speed_probe())
        return {
            "arrivals": arrivals,
            "records": records,
            "specs": specs,
            "probes": probes,
            "factors": [scaled(1.0, probes[m:m + 2]) for m in marks],
        }

    async def phase(self, name: str, specs: list[Spec]) -> dict:
        """Send ``specs`` on schedule over every connection.

        Returns arrivals, per-request records and the speed probes taken
        just before and after the phase, never during it.
        """
        idle: asyncio.Queue = asyncio.Queue()
        for client in self.clients:
            idle.put_nowait(client)
        probes = [speed_probe() for _ in range(PROBES)]
        arrivals = [Arrival(0.0) for _ in specs]
        records = [{"phase": name} for _ in specs]
        tasks = []
        start = time.perf_counter() + 0.05
        for spec, arrival, record in zip(specs, arrivals, records):
            arrival.due = start + spec.offset
            delay = arrival.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
                arrival.noticed = time.perf_counter()
            client = await idle.get()
            arrival.sent = time.perf_counter()
            self.attempted += 1
            tasks.append(asyncio.ensure_future(self._issue(idle, client, spec, arrival, record)))
        await asyncio.gather(*tasks)
        probes += [speed_probe() for _ in range(PROBES)]
        # still waiting for a connection an SLO limit after the last arrival was due
        cutoff = (arrivals[-1].due if arrivals else start) + SLO_LIMIT_MS / 1e3
        return {
            "arrivals": arrivals,
            "records": records,
            "specs": specs,
            "probes": probes,
            "backlog": sum(1 for a in arrivals if a.sent is not None and a.sent > cutoff),
        }


def _lat_ms(phase: dict, which=None) -> list[float]:
    """Latencies in ms from the due time of a phase's answered requests.

    ``which`` keeps only cache hits (``"hit"``) or cold requests (``"miss"``).
    """
    out = []
    for arrival, record, spec in zip(phase["arrivals"], phase["records"], phase["specs"]):
        if not arrival.ok:
            continue
        if which == "hit" and not (spec.cold is None and record.get("cached")):
            continue
        if which == "miss" and spec.cold is None:
            continue
        out.append((arrival.done - arrival.due) * 1e3)
    return out


def step_passes(phase: dict) -> tuple[bool, float]:
    """Whether a ladder step met the SLO: no failures, tail within the limit, no backlog."""
    latencies = _lat_ms(phase)
    ok = all(a.ok for a in phase["arrivals"])
    if not ok or not reportable(len(latencies), SLO_QUANTILE):
        return False, float("nan")
    tail = percentile(latencies, SLO_QUANTILE)
    return tail <= SLO_LIMIT_MS and phase["backlog"] == 0, tail


async def _warm_up(host: str, port: int):
    """Color every hot key once (filling the cache); returns keys and their digests."""
    from repro.serve.client import ServeClient

    async with ServeClient(host, port, retries=0, deadline=REQUEST_DEADLINE_S) as client:
        by_name = {row["instance"]: row["graph_digest"] for row in await client.instances()}
        digests = {}
        for name in HOT_INSTANCES:
            for algorithm in COLD_ALGORITHMS:
                response = await client.color(by_name[name], algorithm, return_coloring=False)
                if not response.get("valid"):
                    raise RuntimeError(f"warm-up {name}/{algorithm} is invalid")
                digests[(by_name[name], algorithm)] = response["coloring_digest"]
    return digests


def boot(traced: bool, workdir: str):
    """Start a server and warm its cache, with it and this process on one CPU.

    Returns ``(server, hot digests, seconds, seconds at the reference speed)``.
    """
    everywhere = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(everywhere)})  # the server inherits it while booting
    try:
        probes = [speed_probe() for _ in range(PROBES)]
        start = time.perf_counter()
        server = Server(traced, workdir)
        try:
            digests = asyncio.run(_warm_up(server.host, server.port))
        except BaseException:
            server.close()
            raise
        elapsed = time.perf_counter() - start
        probes += [speed_probe() for _ in range(PROBES)]
    finally:
        os.sched_setaffinity(0, everywhere)
    server.pin(everywhere)
    return server, digests, elapsed, scaled(elapsed, probes)


async def _control(host, port, payload):
    from repro.serve.client import ServeClient

    async with ServeClient(host, port, retries=0, deadline=REQUEST_DEADLINE_S) as client:
        return await client.request(payload)


async def _drive(server, digests, seed, seconds, traced):
    rng = random.Random(seed)
    hot_keys = sorted(digests)
    generator = LoadGenerator(server.host, server.port, len(os.sched_getaffinity(0)))
    generator.digests.update(digests)
    await generator.open()
    out = {"generator": generator}
    try:
        first = 0

        def plan(rate, count):
            nonlocal first
            specs = schedule(rng, rate, count, hot_keys, seed, first)
            first += count
            return specs

        if traced:
            # untraced and traced halves at the high rate: same mix, fresh cold graphs
            cpu = server.cpu_seconds()
            out["high"] = await generator.phase("high", plan(HIGH_RPS, HIGH_ARRIVALS // 2))
            out["cpu_plain"] = server.cpu_seconds() - cpu
            await _control(server.host, server.port, {"op": "trace", "enabled": True})
            cpu = server.cpu_seconds()
            out["traced"] = await generator.phase("traced", plan(HIGH_RPS, HIGH_ARRIVALS // 2))
            out["cpu_traced"] = server.cpu_seconds() - cpu
            out["trace"] = (await _control(
                server.host, server.port, {"op": "trace", "enabled": False}
            ))["summary"]
            out["rss_mb"] = server.peak_rss_mb()
        else:
            out["low"] = await generator.phase("low", plan(LOW_RPS, LOW_ARRIVALS))
            out["high"] = await generator.phase("high", plan(HIGH_RPS, HIGH_ARRIVALS))
            # one CPU for server and client, so the probes run where the server does
            everywhere = os.sched_getaffinity(0)
            one = {min(everywhere)}
            server.pin(one)
            os.sched_setaffinity(0, one)
            try:
                out["sequential"] = await generator.closed(
                    "sequential", plan(HIGH_RPS, SEQUENTIAL_ARRIVALS)
                )
            finally:
                os.sched_setaffinity(0, everywhere)
                server.pin(everywhere)
            # before the ladder, whose length (and so cache size) varies by run
            out["rss_mb"] = server.peak_rss_mb()
            out["ladder"] = []
            ladder_end = time.perf_counter() + seconds
            for rate in LADDER_RPS:
                step = await generator.phase("ladder", plan(rate, STEP_ARRIVALS))
                passed, tail = step_passes(step)
                out["ladder"].append((rate, passed, tail, step["backlog"]))
                failed_twice = len(out["ladder"]) >= 2 and not any(
                    ok for _, ok, _, _ in out["ladder"][-2:]
                )
                if failed_twice or time.perf_counter() > ladder_end:
                    break
        out["stats"] = await _control(server.host, server.port, {"op": "stats"})
    finally:
        await generator.close()
    return out


def run(seed: int, seconds: float, traced: bool, setup_repeats: int) -> dict:
    workdir = tempfile.mkdtemp(prefix="serve-", dir=_work_root())
    server = None
    try:
        setup_times = []
        for _ in range(setup_repeats):
            if server is not None:
                server.close()
            server, digests, elapsed, at_reference = boot(traced, workdir)
            setup_times.append((elapsed, at_reference))
        out = asyncio.run(_drive(server, digests, seed, seconds, traced))
        asyncio.run(_control(server.host, server.port, {"op": "shutdown"}))
        server.process.wait(timeout=30)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return _result(out, setup_times, traced)


def _work_root() -> str:
    root = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(root, exist_ok=True)
    return root


def _result(out, setup_times, traced) -> dict:
    """Gated metrics come from the one-connection closed loop, which a slow
    spell on a shared machine moves far less than the open-loop phases;
    those are reported alongside.  ``lat_ms.p50`` is the median latency of
    a cold request (upload, then color): a hit's sub-millisecond latency is
    mostly process wake-ups, which vary from run to run.  The fixed cycle
    of cold algorithms puts that median inside the delta-plus-one group."""
    import hashlib

    import layers

    generator = out["generator"]
    metrics = {
        "setup_s": (median([s for _, s in setup_times]), "s", len(setup_times)),
        "peak_rss_mb": (out["rss_mb"], "MB", 1),
    }
    extra = {"unscaled.setup_s": (median([s for s, _ in setup_times]), "s", len(setup_times))}
    notes = {}
    if not traced:
        seq = out["sequential"]
        rows = [(spec, (a.done - a.sent) * factor, rec, factor) for spec, a, rec, factor
                in zip(seq["specs"], seq["arrivals"], seq["records"], seq["factors"]) if a.ok]
        cold = [(spec.cold[0], latency, rec["compute_s"] * factor)
                for spec, latency, rec, factor in rows if spec.cold is not None]
        hits = [latency for spec, latency, _, _ in rows if spec.cold is None]
        metrics["lat_ms.p50"] = (median([c[1] for c in cold]) * 1e3, "ms", len(cold))
        metrics["ops_per_s"] = (len(rows) / sum(r[1] for r in rows), "1/s", len(rows))
        metrics["vertices_per_s"] = (
            sum(c[0] for c in cold) / sum(c[2] for c in cold), "1/s", len(cold)
        )
        extra["closed.hit_lat_ms.p50"] = (median(hits) * 1e3, "ms", len(hits))
        extra["speed_probe_ms.p50"] = (median(seq["probes"]) * 1e3, "ms", len(seq["probes"]))
        for name in ("low", "high"):
            lat = _lat_ms(out[name])
            scale = scaled(1.0, out[name]["probes"])
            extra[f"open.lat_ms.p50.{name}"] = (median(lat) * scale, "ms", len(lat))
            tail = highest_reportable(len(lat))
            if tail is not None:
                extra[f"open.lat_ms.p{round(tail * 100)}.{name}"] = (
                    percentile(lat, tail) * scale, "ms", len(lat)
                )
        passed = [rate for rate, ok, _, _ in out["ladder"] if ok]
        extra["open.slo_rps"] = (passed[-1] if passed else 0.0, "1/s", len(out["ladder"]))
        notes["slo"] = (
            f"p{round(SLO_QUANTILE * 100)} <= {SLO_LIMIT_MS} ms and no backlog; "
            f"low {LOW_RPS} rps, high {HIGH_RPS} rps"
        )
        notes["ladder (rps, passed, p90 ms, backlog)"] = [
            (rate, ok, round(t, 2), b) for rate, ok, t, b in out["ladder"]
        ]
    result = {
        "metrics": metrics,
        "extra": extra,
        "notes": notes,
        "attempted": generator.attempted,
        "failed": generator.failed,
        "failures": generator.failures,
        "fingerprint": hashlib.sha256(
            "\n".join(sorted(generator.cold_parts["high"])).encode()
        ).hexdigest()[:16],
        "charged_rounds": None,
    }
    if traced:
        result["per_layer"] = _per_layer(out, layers)
        result["per_layer_samples"] = len(out["traced"]["arrivals"])
    return result


def _per_layer(out, layers) -> dict:
    high = out["high"]
    summary = out["trace"]
    traced_requests = len(out["traced"]["arrivals"])
    values = layers.from_summary(summary, traced_requests)
    stats = out["stats"]
    hits = _lat_ms(high, "hit")
    misses = _lat_ms(high, "miss")
    records = [r for r, s in zip(high["records"], high["specs"]) if s.cold is not None]
    timing = lateness(high["arrivals"])
    values.update({
        "serve.cache.hit_ratio": stats["cache"]["hit_rate"],
        "serve.hit_lat_ms.p50.high": median(hits) if hits else 0.0,
        "serve.miss_lat_ms.p50.high": median(misses) if misses else 0.0,
        "serve.compute_ms.p50": median([r["compute_s"] * 1e3 for r in records if "compute_s" in r]),
        "serve.upload_ms.p50": median([r["upload_s"] * 1e3 for r in records if "upload_s" in r]),
        "serve.batching.batches": stats["batching"]["batches"],
        "serve.batching.coalesced": stats["batching"]["coalesced"],
        "serve.batching.max_batch_size": stats["batching"]["max_batch_size"],
        "loadgen.lag_ms.max": max(timing["lag"]) * 1e3 if timing["lag"] else 0.0,
        "loadgen.queue_ms.p50.high": median(timing["queue"]) * 1e3,
        "trace.overhead_frac": (
            out["cpu_traced"] / out["cpu_plain"] - 1.0 if out["cpu_plain"] > 0 else 0.0
        ),
        # share of the server's CPU time spent inside a named layer
        "trace.attributed_frac": (
            summary["root_cpu_s"] / out["cpu_traced"] if out["cpu_traced"] > 0 else 0.0
        ),
    })
    return values
