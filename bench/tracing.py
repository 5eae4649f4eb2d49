"""Per-module tracing of tailfence from the benchmark's side of each boundary.

Nothing under ``src/`` knows about tracing. ``Tracer.installed()`` replaces
the callables each module uses at its boundary with wrappers that record a
span (name, start, end, parent) per call, and puts every original back on
exit. Spans stay in memory until the run writes them out; a layer's self
time is its spans' durations minus the part their child spans cover.

A target that no longer exists is recorded in ``Tracer.missing`` as
``module.attribute``, and every metric derived from it is left out of the
result rather than reported as 0.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from importlib import import_module

# (module, attribute, span name). Each wrapper sits on the binding the caller
# looks up: cli calls run_study/characteristics/write_study_outputs through
# its own imports, montecarlo calls dist.sample (the distributions module),
# evaluate and summarize_ci, tail_chars calls dist.quantile/dist.cdf, and
# estimators reach empirical_quantile through empirical_fences.
TARGETS = (
    ("cli", "run_study", "montecarlo.run_study"),
    ("cli", "characteristics", "tail_chars.characteristics"),
    ("cli", "write_study_outputs", "cli.write"),
    ("cli", "_open_out", "cli.write"),
    ("distributions", "sample", "distributions.sample"),
    ("distributions", "_generator", "distributions.rng"),
    ("distributions", "_uniform_open", "distributions.uniform"),
    ("distributions", "_quantile_array", "distributions.transform"),
    ("distributions", "Sample", "empirical.sample_build"),
    ("distributions", "quantile", "distributions.quantile"),
    ("distributions", "cdf", "distributions.cdf"),
    ("montecarlo", "evaluate", "estimators.evaluate"),
    ("montecarlo", "summarize_ci", "montecarlo.summarize_ci"),
    ("empirical", "empirical_quantile", "empirical.quantile"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []  # span name per span
        self.parents: list[int] = []  # index of the parent span, -1 at the root
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.valid: dict[str, int] = {}  # valid estimator records per method
        self.bytes_written = 0
        self.missing: set[str] = set()  # "module.attribute" of targets that are gone
        self._stack = [-1]

    # --- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts[index] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _wrap_evaluate(self, fn):
        def traced(method, *args, **kwargs):
            index = self._open(f"estimators.evaluate.{method}")
            try:
                record = fn(method, *args, **kwargs)
            finally:
                self._close(index)
            if record.valid:
                self.valid[method] = self.valid.get(method, 0) + 1
            return record

        return traced

    def _wrap_write_outputs(self, fn):
        def traced(*args, **kwargs):
            index = self._open("cli.write")
            try:
                paths = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.bytes_written += sum(path.stat().st_size for path in paths)
            return paths

        return traced

    def _wrap_open_out(self, fn):
        tracer = self

        class CountingHandle:
            def __init__(self, handle):
                self._handle = handle

            def write(self, text):
                index = tracer._open("cli.write")
                try:
                    return self._handle.write(text)
                finally:
                    tracer._close(index)
                    tracer.bytes_written += len(text)

        @contextmanager
        def traced(*args, **kwargs):
            with fn(*args, **kwargs) as handle:
                yield CountingHandle(handle)

        return traced

    # --- installing -----------------------------------------------------------

    @contextmanager
    def installed(self, replacements: dict[tuple[str, str], object] | None = None):
        """Install the wrappers (over ``replacements`` where given); restore on exit.

        ``replacements`` maps (module, attribute) to a callable that stands in
        for the original before it is wrapped, e.g. a serial ``run_study``.
        """
        replacements = replacements or {}
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = import_module(f"tailfence.{module_name}")
                if not hasattr(module, attr):
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                inner = replacements.get((module_name, attr), original)
                if span_name == "estimators.evaluate":
                    wrapper = self._wrap_evaluate(inner)
                elif attr == "write_study_outputs":
                    wrapper = self._wrap_write_outputs(inner)
                elif attr == "_open_out":
                    wrapper = self._wrap_open_out(inner)
                else:
                    wrapper = self._wrap(inner, span_name)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- reading --------------------------------------------------------------

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Covers spans ``first`` up to ``last``; spans are nested (one thread,
        synchronous calls), so a span's children all lie in that range.
        """
        last = len(self.names) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            parent = self.parents[i]
            if parent >= first:
                child[parent - first] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(self.names[i], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - child[i - first]
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: name, start and end in microseconds, parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{i},{name},{(self.starts[i] - t0) * 1e6:.3f},"
                    f"{(self.ends[i] - t0) * 1e6:.3f},{self.parents[i]}\n"
                )


def layer_of(span_name: str) -> str:
    """The package module a span's self time is charged to."""
    return span_name.split(".", 1)[0]
