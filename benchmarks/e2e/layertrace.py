"""Outside-in per-layer host-time tracer for the benchmark.

The layers are the repo's packages (``gpu`` splits into the device
model and the dispatch path); :func:`layer_of` maps every ``repro``
module to one.  :meth:`LayerTracer.install` wraps, from outside the
program, three kinds of call:

1. every callable a ``repro`` module exports in ``__all__``: functions,
   ``lru_cache`` wrappers, and the public methods of exported classes.
   References imported by name into other modules are rebound too;
2. every callback passed to ``Simulator.schedule`` or
   ``Simulator.add_flush_hook``, charged to the module that defined it
   (``functools.partial`` unwrapped);
3. every resume of a ``Process`` generator, charged to the generator's
   module.

A span opens only where the callee's layer differs from the caller's.
A layer's self time is its spans minus their child spans, so the layers
of one phase sum to the phase's wall time with no "other" bucket.
Spans are aggregated in memory per (caller layer, callee layer) and
handed back when a phase ends, together with the public counters
(``events_executed``, ``batches_drained``, ``kernels_completed``) of
every ``Simulator`` and ``GpuDevice`` built inside the phase.

Pool workers forked inside a phase (``run_sweep``'s executor) inherit
the wrapped program: each starts a fresh root charged to ``exp`` (the
layer that owns the pool), and writes its aggregates to ``dump_dir``
when it exits; :meth:`LayerTracer.end` folds them into the phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import types
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

__all__ = ["HARNESS", "LAYERS", "LayerTracer", "layer_of"]

#: The benchmark's own code.
HARNESS = "harness"

#: Every layer, in report order.  The last five hold no code the
#: workloads run; they exist so that every module maps somewhere.
LAYERS = (HARNESS, "sim", "gpu.device", "gpu.dispatch", "runtime", "core",
          "server", "workload", "cluster", "obs", "faults", "profiling",
          "models", "exp", "analysis", "baselines", "bench", "check", "cli")

_DISPATCH = frozenset({"repro.gpu.command_processor", "repro.gpu.queue",
                       "repro.gpu.aql"})
_TOP_LEVEL = {"repro": "cli", "repro.cli": "cli"}

#: Root layer of a forked pool worker.
_POOL_ROOT = "exp"


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer of ``repro`` module ``module``; ``None`` outside repro."""
    if not module:
        return None
    if module in _TOP_LEVEL:
        return _TOP_LEVEL[module]
    if not module.startswith("repro."):
        return None
    if module in _DISPATCH:
        return "gpu.dispatch"
    package = module.split(".")[1]
    return "gpu.device" if package == "gpu" else package


def _owner_layer(callback: Any) -> str:
    """Layer of the module that defined ``callback``.

    Callbacks defined outside ``repro`` are charged to ``sim``, the
    layer that invokes them.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None)
    if not isinstance(func, types.FunctionType) and module is None:
        module = type(func).__module__
    return layer_of(module) or "sim"


class _Phase:
    """Aggregated spans of one phase (``setup`` or ``run``)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.pair_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Wall time of every root span: the phase itself plus one per
        #: pool worker that ran inside it.
        self.root_s = 0.0
        self.processes = 0
        self.peak_pending = 0
        #: Simulators and devices built inside the phase, and the sums of
        #: their counters once it has closed.
        self.sims: list = []
        self.devices: list = []
        self.counters: dict[str, int] = defaultdict(int)

    def count_instances(self) -> None:
        self.counters["sim.events"] += sum(
            sim.events_executed for sim in self.sims)
        self.counters["sim.batches"] += sum(
            sim.batches_drained for sim in self.sims)
        self.counters["gpu.device.kernels"] += sum(
            device.kernels_completed for device in self.devices)
        self.sims.clear()
        self.devices.clear()

    def to_dict(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": [[a, b, n, self.pair_s[(a, b)]]
                      for (a, b), n in sorted(self.calls.items())],
            "root_s": self.root_s,
            "processes": self.processes,
            "peak_pending": self.peak_pending,
            "counters": dict(self.counters),
        }

    def merge(self, payload: dict[str, Any]) -> None:
        for layer, seconds in payload["self_s"].items():
            self.self_s[layer] += seconds
        for caller, callee, n, seconds in payload["calls"]:
            self.calls[(caller, callee)] += n
            self.pair_s[(caller, callee)] += seconds
        self.root_s += payload["root_s"]
        self.processes += payload["processes"]
        self.peak_pending = max(self.peak_pending, payload["peak_pending"])
        for name, count in payload["counters"].items():
            self.counters[name] += count


class LayerTracer:
    """Per-layer span aggregation over one process and its pool workers.

    Use: :meth:`install` once, then bracket each phase with
    :meth:`begin` / :meth:`end`.  Outside a phase every wrapper passes
    straight through.
    """

    def __init__(self, dump_dir: Path) -> None:
        self._dump_dir = Path(dump_dir)
        #: Open spans, innermost last: ``[layer, child_seconds]``.  The
        #: bottom entry is the root; ``None`` there means no phase.
        self._stack: list[list] = [[None, 0.0]]
        self._phase = _Phase()
        self._phase_start = 0.0
        #: id(original) -> its wrapper, whose closure keeps the original
        #: (and so its id) alive.
        self._wrapped: dict[int, Callable] = {}

    # -- span bookkeeping --------------------------------------------------
    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)``, inside a ``layer`` span when the
        caller's layer differs."""
        stack = self._stack
        caller = stack[-1]
        if caller[0] == layer or caller[0] is None:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            caller[1] += elapsed
            phase = self._phase
            phase.self_s[layer] += elapsed - frame[1]
            key = (caller[0], layer)
            phase.calls[key] += 1
            phase.pair_s[key] += elapsed

    def begin(self, root: str = HARNESS) -> None:
        """Open a phase whose root span is charged to ``root``."""
        self._phase = _Phase()
        self._phase.processes = 1
        self._stack[:] = [[root, 0.0]]
        self._phase_start = perf_counter()

    def _close_root(self) -> _Phase:
        total = perf_counter() - self._phase_start
        root_layer, child = self._stack[0]
        phase = self._phase
        phase.self_s[root_layer] += total - child
        phase.root_s += total
        phase.count_instances()
        self._stack[:] = [[None, 0.0]]
        return phase

    def end(self) -> dict[str, Any]:
        """Close the phase; returns its aggregates, pool workers folded in."""
        phase = self._close_root()
        for dump in sorted(self._dump_dir.glob("worker-*.json")):
            phase.merge(json.loads(dump.read_text()))
            dump.unlink()
        return phase.to_dict()

    def _after_fork(self) -> None:
        """In a forked pool worker: start a fresh root, dump on exit."""
        if self._stack[0][0] is None:
            return
        self.begin(_POOL_ROOT)
        mp_util.Finalize(self, self._dump_worker, exitpriority=0)

    def _dump_worker(self) -> None:
        path = self._dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self._close_root().to_dict()))

    # -- installation ------------------------------------------------------
    def _wrap(self, fn: Callable) -> Callable:
        """The span-opening wrapper of ``fn`` (one per function)."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        layer = layer_of(fn.__module__)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, fn, args, kwargs)

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        self._wrapped[id(fn)] = wrapper
        return wrapper

    def _wrap_class(self, cls: type, done: set) -> None:
        for klass in cls.__mro__:
            if klass in done or layer_of(klass.__module__) is None:
                continue
            done.add(klass)
            for name, member in list(vars(klass).items()):
                if name.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    func = member.__func__
                    if (isinstance(func, types.FunctionType)
                            and layer_of(func.__module__)):
                        setattr(klass, name, type(member)(self._wrap(func)))
                elif (isinstance(member, types.FunctionType)
                        and layer_of(member.__module__)):
                    setattr(klass, name, self._wrap(member))

    def _hook_engine(self) -> None:
        """Wrap scheduled callbacks and ``Process`` generator resumes, and
        record every simulator and device built."""
        from repro.gpu.device import GpuDevice
        from repro.sim.engine import Simulator
        from repro.sim.process import Process

        def recorded(cls: type, instances: str) -> None:
            init = cls.__init__

            @functools.wraps(init)
            def traced_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                getattr(self._phase, instances).append(obj)

            cls.__init__ = traced_init

        recorded(Simulator, "sims")
        recorded(GpuDevice, "devices")

        call = self.call
        schedule = Simulator.schedule
        add_flush_hook = Simulator.add_flush_hook
        pending = Simulator.pending

        def traced(callback: Callable) -> Callable:
            layer = _owner_layer(callback)
            return lambda: call(layer, callback, (), {})

        @functools.wraps(schedule)
        def traced_schedule(sim, time, callback, priority=0):
            event = schedule(sim, time, traced(callback), priority)
            phase = self._phase
            depth = pending(sim)
            if depth > phase.peak_pending:
                phase.peak_pending = depth
            return event

        @functools.wraps(add_flush_hook)
        def traced_add_flush_hook(sim, hook):
            return add_flush_hook(sim, traced(hook))

        Simulator.schedule = traced_schedule
        Simulator.add_flush_hook = traced_add_flush_hook

        process_init = Process.__init__

        @functools.wraps(process_init)
        def traced_process_init(process, sim, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            if frame is not None:
                layer = layer_of(frame.f_globals.get("__name__")) or HARNESS
                generator = _TracedGenerator(generator, layer, call)
            process_init(process, sim, generator, name)

        Process.__init__ = traced_process_init

    def install(self, harness_modules: Iterable[types.ModuleType] = ()
                ) -> "LayerTracer":
        """Import every ``repro`` module and wrap its exported callables.

        ``harness_modules`` (the benchmark's own modules) get their
        imported references rebound like the program's modules do.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [module for name, module in sorted(sys.modules.items())
                   if layer_of(name) is not None]
        self._hook_engine()
        done: set = set()
        for module in modules:
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if isinstance(obj, type):
                    self._wrap_class(obj, done)
                elif (isinstance(obj, types.FunctionType)
                        or isinstance(obj, functools._lru_cache_wrapper)) \
                        and layer_of(obj.__module__):
                    self._wrap(obj)
        for module in [*modules, *harness_modules]:
            for name, value in list(vars(module).items()):
                if id(value) in self._wrapped:
                    setattr(module, name, self._wrapped[id(value)])
        mp_util.register_after_fork(self, LayerTracer._after_fork)
        return self


class _TracedGenerator:
    """A ``Process`` generator whose resumes open spans in its layer."""

    __slots__ = ("_generator", "_layer", "_call")

    def __init__(self, generator, layer: str, call: Callable) -> None:
        self._generator = generator
        self._layer = layer
        self._call = call

    def send(self, value):
        return self._call(self._layer, self._generator.send, (value,), {})
