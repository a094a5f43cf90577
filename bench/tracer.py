"""Span tracer that wraps eqlat's public functions from outside the package.

``Tracer.install`` replaces each listed function, in every ``eqlat.*``
module namespace that binds the same object, by a wrapper that records a
span: name, start, end, parent span. Catching every binding covers both
``from .congruence import ...`` imports and module-global calls inside the
defining module. A listed name that no longer exists is reported as
absent.

Spans are kept in flat arrays and written out by ``Tracer.write``. Calls,
busy time (outermost span of a name only, so recursion is not counted
twice) and self time (duration minus the time covered by child spans) are
aggregated as the spans close.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import pkgutil
import sys
import time
from array import array

# Public functions traced, by module.
LAYERS = {
    "corpus": ("generate_catalog", "enumerate_semilattices", "run_claims"),
    "congruence": ("all_congruences", "congruence_generated", "join_congruences", "eta", "tau"),
    "interior": ("check_axioms", "enumerate_eios", "natural_eta", "check_coatom_dependence"),
    "galois": ("verify_consl",),
    "semilattice": ("all_endomorphisms", "operator_monoid"),
    "order": ("as_lattice",),
    "checks": ("run_suite",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


# Work counted from a traced function's result, where it has one.
_RESULT_SIZES = {
    "congruence.all_congruences": lambda result: len(result.congruences),
    "interior.enumerate_eios": len,
    "corpus.run_claims": lambda result: sum(1 for r in result if r.note and "skipped" in r.note),
}


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Aggregates, indexed by name id.
        self._calls: list[int] = []
        self._busy: list[float] = []
        self._self: list[float] = []
        self._depth: list[int] = []
        self.results: dict[str, int] = {}
        self.absent: list[str] = []
        # One entry per closed span, in closing order.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span id, name id, start, time covered by children].
        self._stack: list[list] = []
        self._next_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._busy.append(0.0)
            self._self.append(0.0)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid: int) -> None:
        self._depth[nid] += 1
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, nid, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        stack = self._stack
        sid, nid, start, covered = stack.pop()
        dur = end - start
        if stack:
            parent = stack[-1]
            parent[3] += dur
            self.span_parent.append(parent[0])
        else:
            self.span_parent.append(-1)
        self._calls[nid] += 1
        self._self[nid] += dur - covered
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self._busy[nid] += dur
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    @property
    def calls(self) -> dict[str, int]:
        return dict(zip(self.names, self._calls))

    @property
    def busy(self) -> dict[str, float]:
        return dict(zip(self.names, self._busy))

    @property
    def self_time(self) -> dict[str, float]:
        return dict(zip(self.names, self._self))

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        size = _RESULT_SIZES.get(name)
        tracer_open, tracer_close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer_open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer_close()
            if size is not None:
                self.results[name] = self.results.get(name, 0) + size(result)
            return result

        return traced

    def install(self, package: str = "eqlat", names=TRACED) -> None:
        """Wrap each named function wherever a module of the package binds it."""
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name in names:
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [self.span_end[i] - self.span_start[i]
                for i in range(len(self.span_name)) if self.span_name[i] == nid]

    def write(self, path) -> None:
        """Write every span as a gzip-compressed tab-separated line, by start time."""
        order = sorted(range(len(self.span_id)), key=self.span_start.__getitem__)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in order:
                out.write(f"{self.run_id}\t{self.span_id[i]}\t{self.span_parent[i]}\t"
                          f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\n")
