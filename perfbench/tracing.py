"""Span tracing of pbpoplus calls, installed from outside the package.

:class:`Tracer` replaces each traced function with a timing wrapper at
every place the function is bound: the defining module, every module of
the package that imported it by name (``pullback`` is bound in ``limits``,
``matching``, ``rewriting`` and the package root), and the class for
methods such as ``LabelLattice.join``.  Calls inside the package look
these names up at call time, so the wrappers see internal calls as well
as the benchmark's own.  ``iter_matches`` is a generator: each ``next``
is one span, so its self time is the search work and nothing it yields
to.  :meth:`Tracer.uninstall` puts the original objects back.

A span is (name, start, end, parent span, operation id).  Spans live in
arrays while the benchmark runs and are written out by :meth:`Tracer.write`
at the end.  Per-name aggregates (calls, self time, outermost total time)
are kept as spans close, so no pass over the spans is needed for them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# Layer (module of pbpoplus) -> traced functions, ``Class.method`` for methods.
TRACED = {
    "lattice": ("LabelLattice.join", "LabelLattice.meet"),
    "graph": ("validate_morphism", "compose", "LabeledGraph.rename"),
    "limits": ("pullback", "pushout", "preimage", "is_pullback_square",
               "is_pushout_square"),
    "matching": ("iter_matches", "find_matches", "check_strong_match"),
    "rewriting": ("normalize", "pbpo_step", "verify_trace", "validate_rule",
                  "complete_rule"),
    "bdd": ("build_decision_tree", "reduce_bdd", "reduction_rules",
            "validate_bdd"),
}
GENERATORS = frozenset({"matching.iter_matches"})
LAYERS = tuple(TRACED)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rpartition('.')[2]}"


class Aggregate:
    """Running totals for one span name."""

    __slots__ = ("calls", "self_s", "total_s", "open", "yields")

    def __init__(self) -> None:
        self.calls = 0      # spans closed (for a generator: next calls)
        self.self_s = 0.0   # duration minus the time of child spans
        self.total_s = 0.0  # duration of spans with no open span of the same name
        self.open = 0
        self.yields = 0     # generators only: items produced


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.aggregates: list[Aggregate] = []
        self.created: dict[str, int] = {}  # generator objects created, by name
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[list] = []       # [span index, child time]
        self._sites: list[tuple] = []      # (holder, attribute, original)
        self.op_ranges: dict[int, tuple[int, int]] = {}  # op -> span index range
        self._epoch = time.perf_counter()
        # (owning class or None, attribute, original, wrapper) per traced
        # function; every installation reuses the same wrappers.
        self._targets: list[tuple] = []
        for layer, attrs in TRACED.items():
            module = importlib.import_module(f"pbpoplus.{layer}")
            for attr in attrs:
                owner, _, fname = attr.rpartition(".")
                holder = getattr(module, owner) if owner else None
                original = vars(holder if owner else module)[fname]
                wrapper = self._wrap(original, span_name(layer, attr))
                self._targets.append((holder, fname, original, wrapper))

    # ------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.aggregates.append(Aggregate())
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.aggregates[nid].open += 1
        frame = [idx, 0.0]
        stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        idx = frame[0]
        self.span_start[idx] = start
        self.span_end[idx] = end
        dur = end - start
        if stack:
            stack[-1][1] += dur
        agg = self.aggregates[nid]
        agg.calls += 1
        agg.self_s += dur - frame[1]
        agg.open -= 1
        if not agg.open:
            agg.total_s += dur

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close

        if name in GENERATORS:
            self.created[name] = 0

            def traced_generator(inner):
                try:
                    while True:
                        frame = open_(nid)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            close(nid, frame, start, clock())
                            return
                        except BaseException:
                            close(nid, frame, start, clock())
                            raise
                        close(nid, frame, start, clock())
                        self.aggregates[nid].yields += 1
                        yield item
                finally:
                    inner.close()

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self.created[name] += 1
                return traced_generator(fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_(nid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame, start, clock())

        return wrapper

    # ----------------------------------------------------- installation

    def install(self) -> None:
        """Put a wrapper at every binding site of every traced function."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for holder, fname, original, wrapper in self._targets:
            by_id[id(original)] = (original, wrapper)
            if holder is not None:
                self._sites.append((holder, fname, original))
                setattr(holder, fname, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "pbpoplus" and not modname.startswith("pbpoplus."):
                continue
            for key, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._sites.append((module, key, value))
                    setattr(module, key, entry[1])

    def uninstall(self) -> None:
        while self._sites:
            holder, key, original = self._sites.pop()
            setattr(holder, key, original)

    @contextmanager
    def operation(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self.install()
        self.op = op
        first = len(self.span_start)
        try:
            yield
        finally:
            self.op_ranges[op] = (first, len(self.span_start))
            self.op = -1
            self.uninstall()

    # ------------------------------------------------------------ output

    def aggregate(self, name: str) -> Aggregate:
        return self.aggregates[self.names.index(name)]

    def op_spans(self, op: int, name: str):
        """(start, end) of the spans of one name in one operation, in order."""
        nid = self.names.index(name)
        first, stop = self.op_ranges[op]
        return [(self.span_start[i], self.span_end[i])
                for i in range(first, stop) if self.span_name[i] == nid]

    def write(self, path) -> int:
        """Write every span as a tab-separated line; return the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        epoch = self._epoch
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                out.write(f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - epoch:.9f}\t"
                          f"{self.span_end[i] - epoch:.9f}\t"
                          f"{self.span_parent[i]}\t{self.span_op[i]}\n")
        return len(self.span_start)
