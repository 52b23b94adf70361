"""Stdlib span recorder that times the library's layers from outside it.

:meth:`Tracer.prepare` builds a wrapper for each public function named in
``LAYERS`` and finds every place it is reachable: the module that defines
it, every ``repro`` module that imported it by name, the class that owns
it (methods and properties) and any extra namespaces the caller passes (a
dict of runners, an object that stored the function at construction).
:meth:`Tracer.install` binds the wrappers there and :meth:`Tracer.uninstall`
puts every original back, so traced and untraced ops can alternate.
Nothing under ``src/`` is edited.

Each span is recorded at exit as ``(id, parent id, layer, start, end, op)``
in a per-thread ``array('d')``; spans stay in memory until the run ends.
Self time is a span's duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import threading
import time
from array import array
from contextlib import contextmanager

__all__ = ["LAYERS", "COUNTED", "Tracer", "self_times"]

#: layer name -> public targets ``"module:attr"`` / ``"module:Class.attr"``
LAYERS: dict[str, tuple[str, ...]] = {
    "core.extension": ("repro.core.extension:extend_coloring_to_happy_set",),
    "coloring.borodin_ert": ("repro.coloring.borodin_ert:degree_list_coloring",),
    "distributed.ruling": (
        "repro.distributed.ruling:ruling_forest",
        "repro.distributed.ruling:ruling_set",
    ),
    "distributed.linial": ("repro.distributed.linial:delta_plus_one_coloring",),
    "graphs.frozen.subgraph": ("repro.graphs.frozen:FrozenGraph.subgraph",),
    "graphs.frozen.freeze": ("repro.graphs.frozen:freeze",),
    "graphs.cliques": ("repro.graphs.properties.cliques:find_clique_of_size",),
    "core.peeling": ("repro.core.peeling:peel_happy_layers",),
    "core.happy": ("repro.core.happy:classify_vertices",),
    "coloring.verification": (
        "repro.coloring.verification:verify_list_coloring",
        "repro.coloring.verification:verify_coloring",
    ),
    "local.simulator": ("repro.local.simulator:SynchronousSimulator.run",),
    "local.kernels": (
        "repro.local.kernels:gather",
        "repro.local.kernels:deliver_slots",
        "repro.local.kernels:deliver_masked",
        "repro.local.kernels:compact_segments",
    ),
    "local.network": (
        "repro.local.network:Network.__init__",
        "repro.local.network:Network.fabric",
        "repro.local.network:Network.identifiers_np",
        "repro.local.network:Network.inputs_list",
    ),
    "distributed.driver": (
        "repro.distributed.cole_vishkin:color_rooted_forest",
        "repro.distributed.greedy_baseline:greedy_distributed_coloring",
        "repro.distributed.randomized:randomized_delta_plus_one_coloring",
    ),
    "serve.cache": (
        "repro.serve.cache:ResultCache.get",
        "repro.serve.cache:ResultCache.put",
    ),
    "serve.protocol": (
        "repro.serve.protocol:encode_line",
        "repro.serve.protocol:decode_line",
    ),
    "serve.executor": (
        "repro.serve.executor:execute_jobs",
        "repro.serve.executor:compute_job",
    ),
    "serve.algorithms": (
        "repro.serve.executor:_run_greedy",
        "repro.serve.executor:_run_delta_plus_one",
        "repro.serve.executor:_run_theorem13",
    ),
    "verify.oracles": (
        "repro.verify.coloring:ProperColoringOracle.check",
        "repro.verify.coloring:PaletteBudgetOracle.check",
        "repro.verify.coloring:ListColoringOracle.check",
    ),
    "serve.store": (
        "repro.serve.store:GraphStore.upload",
        "repro.serve.store:GraphStore.resolve",
        "repro.serve.store:GraphStore.handle",
    ),
    "corpus.digest": ("repro.corpus.instances:graph_digest",),
}

#: hooks of every batched node program (one span each, per round)
PROGRAM_LAYER = "distributed.program"
PROGRAM_HOOKS = (
    "send_batch",
    "receive_batch",
    "receive_active",
    "receive_broadcast",
    "is_finished_batch",
)

#: hot, tiny functions that are counted, not timed
COUNTED: dict[str, tuple[str, ...]] = {
    "coloring.assignment.getitem": ("repro.coloring.assignment:ListAssignment.__getitem__",),
}

OP = "op"


def _resolve(target: str):
    """``(owner, attr, raw)``: the class or module holding ``attr`` and its raw value."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Installs layer wrappers and records their spans while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = [OP]
        self._name_ids = {OP: 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        #: per thread: CPU seconds spent inside root spans
        self._root_cpu: list[array] = []
        self._buffers_lock = threading.Lock()
        self._bindings: list[tuple[object, str, object, object]] = []
        self._installed = False
        self.counts: dict[str, int] = {}
        #: per-layer counters read off results (rounds, messages)
        self.result_counts: dict[str, int] = {}
        self.op_id = -1
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_start: float | None = None

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack, local.buf, local.root_cpu = [], array("d"), array("d", [0.0])
            with self._buffers_lock:
                self._buffers.append(local.buf)
                self._root_cpu.append(local.root_cpu)
            return local.stack, local.buf

    def wrap(self, fn, layer: str, on_result=None):
        """A wrapper around ``fn`` that records one ``layer`` span per call."""
        name_id = self._name_id(layer)
        ids, clock, state, local = self._ids, self.clock, self._state, self._local
        cpu_clock = time.thread_time

        def traced(*args, **kwargs):
            stack, buf = state()
            span = next(ids)
            if stack:
                parent, cpu = stack[-1], None
            else:
                parent, cpu = -1, cpu_clock()
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.extend((span, parent, name_id, start, end, self.op_id))
                if cpu is not None:
                    local.root_cpu[0] += cpu_clock() - cpu
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn)

    def counter(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    @contextmanager
    def op(self, op_id: int):
        """Mark one benchmark op: its span is the root of everything it calls."""
        self.op_id = op_id
        stack, buf = self._state()
        span = next(self._ids)
        stack.append(span)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            buf.extend((span, -1, 0, start, end, op_id))
            self.op_id = -1

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- installation ------------------------------------------------------
    def _bind(self, home, key, original, replacement) -> None:
        self._bindings.append((home, key, original, replacement))

    def _locate(self, original, replacement, homes) -> None:
        for home in homes:
            namespace = home if isinstance(home, dict) else vars(home)
            for key, value in list(namespace.items()):
                if value is original:
                    self._bind(home, key, original, replacement)

    def _prepare_target(self, target: str, make, homes) -> None:
        owner, attr, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, property):
                wrapped = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                wrapped = make(raw)
            self._bind(owner, attr, raw, wrapped)
        else:
            self._locate(raw, make(raw), homes)

    def prepare(self, extra_homes=(), on_result=None) -> None:
        """Build every wrapper and find every place it must be bound.

        ``extra_homes`` are namespaces outside the loaded ``repro`` modules
        that hold a target (a dict of runners, an object that stored a
        function at construction); ``on_result`` maps a layer to a hook
        called with each result.
        """
        import pkgutil
        import sys

        import repro
        from repro.local.node import BatchNodeAlgorithm

        # import every module first, so none binds a target by name later
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith(".__main__"):
                importlib.import_module(module.name)
        self._bindings = []
        on_result = on_result or {}
        homes = [m for name, m in list(sys.modules.items())
                 if name == "repro" or name.startswith("repro.")]
        homes.extend(extra_homes)
        for layer, targets in LAYERS.items():
            for target in targets:
                self._prepare_target(
                    target, lambda fn, layer=layer: self.wrap(fn, layer, on_result.get(layer)),
                    homes,
                )
        for name, targets in COUNTED.items():
            for target in targets:
                self._prepare_target(target, lambda fn, name=name: self.counter(fn, name), homes)
        pending = [BatchNodeAlgorithm]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in PROGRAM_HOOKS:
                raw = cls.__dict__.get(hook)
                if callable(raw):
                    self._bind(cls, hook, raw, self.wrap(raw, PROGRAM_LAYER))

    @staticmethod
    def _set(home, key, value) -> None:
        if isinstance(home, dict):
            home[key] = value
        else:
            setattr(home, key, value)

    def install(self) -> None:
        """Bind every wrapper (call :meth:`prepare` first) and start GC timing."""
        if self._installed:
            return
        for home, key, _original, wrapped in self._bindings:
            self._set(home, key, wrapped)
        gc.callbacks.append(self._gc_callback)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original binding."""
        if not self._installed:
            return
        for home, key, original, _wrapped in reversed(self._bindings):
            self._set(home, key, original)
        gc.callbacks.remove(self._gc_callback)
        self._gc_start = None
        self._installed = False

    # -- results -----------------------------------------------------------
    def spans(self):
        """All recorded spans as an ``(k, 6)`` float64 array (a copy)."""
        import numpy as np

        # copy, never view: a viewed array('d') cannot grow, and another
        # thread may still be closing a span
        with self._buffers_lock:
            parts = [np.array(buf, dtype=np.float64) for buf in self._buffers if len(buf)]
        if not parts:
            return np.zeros((0, 6))
        return np.concatenate(parts).reshape(-1, 6)

    def summary(self) -> dict:
        """Per-layer ``calls``/``total_s``/``self_s``, op totals, counters, and
        the CPU time of root spans (spans with no recorded parent)."""
        spans = self.spans()
        layers = self_times(spans, self.names)
        ops = layers.pop(OP, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        return {
            "layers": layers,
            "ops": ops,
            "root_cpu_s": sum(cpu[0] for cpu in self._root_cpu),
            "counts": dict(self.counts),
            "result_counts": dict(self.result_counts),
            "gc_s": self.gc_seconds,
            "gc_collections": self.gc_collections,
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, spans=self.spans(), names=np.array(self.names))


def self_times(spans, names) -> dict[str, dict]:
    """Aggregate spans per name: calls, total duration and self time.

    ``spans`` rows are ``(id, parent id, name index, start, end, op)``.  A
    span's self time is its duration minus the durations of the spans whose
    parent it is; a parent that was never recorded is ignored.
    """
    import numpy as np

    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 6)
    out: dict[str, dict] = {}
    if len(spans) == 0:
        return out
    ids = spans[:, 0]
    parents = spans[:, 1]
    kinds = spans[:, 2].astype(np.int64)
    durations = spans[:, 4] - spans[:, 3]
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    position = np.searchsorted(sorted_ids, parents)
    position = np.minimum(position, len(sorted_ids) - 1)
    known = (parents >= 0) & (sorted_ids[position] == parents)
    child_time = np.zeros(len(spans))
    np.add.at(child_time, order[position[known]], durations[known])
    own = durations - child_time
    for index in np.unique(kinds):
        mask = kinds == index
        out[names[index]] = {
            "calls": int(mask.sum()),
            "total_s": float(durations[mask].sum()),
            "self_s": float(own[mask].sum()),
        }
    return out
