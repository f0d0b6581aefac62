"""Run one ``python -m repro`` command with spans recorded at each
layer's entry points, from outside the program.

Usage::

    python -X importtime perfbench/traced.py SPANS.json ARGS...

runs ``repro.harness.cli.main(ARGS)`` exactly as ``python -m repro
ARGS`` does and then writes SPANS.json: every span as ``[name, start,
end, parent index]`` (``perf_counter`` seconds, parent ``-1`` at the
top), the call counters, the distinct study cells requested, and the
number of ``repro`` modules loaded.  The program's own ``--profile``,
``--trace-out`` and ledger are not used.

Entry points are wrapped as their module finishes importing, before
any other module can bind them, and every binding made earlier (a
``from x import f`` inside an import cycle) is rebound too: a caller
that imported a function by name would otherwise keep calling the
unwrapped original.  Every module import is itself an ``import`` span,
so import time is one layer wherever the import happens.  Spans assume
one thread, which holds at ``--jobs 1`` without the status server.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# importlib._bootstrap: the interpreter's import statement calls its
# _find_and_load for every module not yet in sys.modules
import _frozen_importlib as bootstrap

#: (module, attribute, kind, name).  A ``span`` records each call; a
#: ``count`` only counts calls, for entry points too hot for a span; a
#: ``request`` records which study cell a caller asked for.
ENTRY_POINTS = (
    ("repro.harness.cli", "run_target", "span", "harness.render"),
    ("repro.checks.evaluate", "evaluate", "span", "checks.evaluate"),
    ("repro.core.resilience", "run_cell", "span", "core.cell"),
    ("repro.core.study", "Study.cpu_bandwidth", "request", "cpu_bandwidth"),
    ("repro.core.study", "Study.gpu_bandwidth", "request", "gpu_bandwidth"),
    ("repro.core.study", "Study.host_latency", "request", "host_latency"),
    ("repro.core.study", "Study.device_latency", "request", "device_latency"),
    ("repro.core.study", "Study.commscope", "request", "commscope"),
    ("repro.core.cellcache", "CellCache.load", "span", "cellcache.load"),
    ("repro.core.cellcache", "CellCache.store", "span", "cellcache.store"),
    ("repro.benchmarks.babelstream.sweep", "best_cpu_bandwidth", "span",
     "benchmarks.babelstream"),
    ("repro.benchmarks.babelstream.sweep", "best_gpu_bandwidth", "span",
     "benchmarks.babelstream"),
    ("repro.benchmarks.osu.runner", "latency_for_pair", "span",
     "benchmarks.osu"),
    ("repro.benchmarks.osu.runner", "device_latency_by_class", "span",
     "benchmarks.osu"),
    ("repro.benchmarks.commscope.runner", "run_commscope", "span",
     "benchmarks.commscope"),
    ("repro.sim.engine", "Environment.run", "span", "sim.run"),
    ("repro.sim.engine", "Environment.step", "count", "sim.events"),
    ("repro.gpurt.api", "DeviceRuntime.__init__", "span",
     "gpurt.runtime_init"),
    ("repro.openmp.team", "build_team", "span", "openmp.team"),
    ("repro.hardware.topology", "Topology.classify_gpu_pair", "count",
     "hardware.pair_classifications"),
    ("repro.memsys.scaling", "team_bandwidth", "span", "memsys.model"),
    ("repro.obs.analyze.critical_path", "attribute_cells", "span",
     "obs.attribution"),
    ("repro.obs.export", "write_chrome_trace", "span", "obs.export"),
    ("repro.obs.export", "write_metrics", "span", "obs.export"),
    ("repro.obs.events", "EventLog.emit", "span", "obs.events"),
    ("repro.obs.ledger", "record_study_run", "span", "obs.ledger"),
)

#: span name -> (counter, what one call adds to it given its result)
RESULT_COUNTERS = {
    "cellcache.load": ("cellcache.hits", lambda result: result is not None),
    "obs.attribution": ("obs.attribution_windows", len),
}


class Recorder:
    """Spans, counters and cell requests of one process, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.requests: set[str] = set()
        #: id(original) -> (original, wrapper), for rebinding
        self.wrapped: dict[int, tuple[object, object]] = {}

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append([name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][2] = time.perf_counter()

    def wrap(self, fn, kind: str, name: str):
        if kind == "span":
            call = self.call
            counter, tally = RESULT_COUNTERS.get(name, (None, None))
            if counter is None:
                def wrapper(*args, **kwargs):
                    return call(name, fn, *args, **kwargs)
            else:
                counts = self.counts
                counts[counter] = 0

                def wrapper(*args, **kwargs):
                    result = call(name, fn, *args, **kwargs)
                    counts[counter] += tally(result)
                    return result
        elif kind == "count":
            counts = self.counts
            counts[name] = 0

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            requests = self.requests
            # callers pass a cell's arguments by position or by keyword
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                _, *values = bound.arguments.values()
                requests.add("/".join([name, *map(_label, values)]))
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def patch(self, module) -> None:
        """Wrap ``module``'s entry points and rebind earlier bindings."""
        for module_name, attribute, kind, name in ENTRY_POINTS:
            if module_name != module.__name__:
                continue
            owner = module
            *path, last = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(last) if owner is not None else None
            if original is None:
                print(f"perfbench: {module_name}.{attribute} not found; "
                      f"{name} stays 0", file=sys.stderr)
                continue
            wrapper = self.wrap(original, kind, name)
            setattr(owner, last, wrapper)
            self.wrapped[id(original)] = (original, wrapper)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                pair = self.wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(loaded, key, pair[1])

    def install(self) -> None:
        """Record every later import as a span, and patch entry points
        as their modules finish loading."""
        find_and_load = bootstrap._find_and_load
        # importlib.import_module reaches here again for loaded modules
        unpatched = {entry[0] for entry in ENTRY_POINTS}
        call = self.call

        def traced_find_and_load(name, import_):
            module = call("import", find_and_load, name, import_)
            if name in unpatched:
                unpatched.discard(name)
                self.patch(module)
            return module

        bootstrap._find_and_load = traced_find_and_load

    def document(self, began: float, ended: float) -> dict:
        return {
            "began": began,
            "ended": ended,
            "spans": self.spans,
            "counts": self.counts,
            "requests": sorted(self.requests),
            "modules": sum(
                1 for m in sys.modules if m == "repro" or m.startswith("repro.")
            ),
        }


def _label(value) -> str:
    return getattr(value, "name", None) or repr(value)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    began = time.perf_counter()
    try:
        import repro.harness.cli as cli

        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        ended = time.perf_counter()
        with open(out_path, "w") as fh:
            json.dump(recorder.document(began, ended), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
