"""Outside-in layer tracing for the diolab benchmark.

The tracer rebinds the module-level names through which one diolab layer
calls another (``diolab.bestapprox.fp_enumerate``,
``diolab.dynamics.enumerate_in_cylinder``, ``diolab.badk.direct_scan``,
...) to timing wrappers.  Nothing inside ``src/`` changes: a wrapper is
installed on every diolab module attribute that is bound to a traced
function, so internal calls such as ``shortest_mixed_vectors ->
enumerate_in_cylinder -> lll_columns`` are seen as well.

Each call records a span ``[name, parent, start, end, count, visits,
callback_s]`` on the process CPU clock, the clock the timed runs use.  ``count`` is the work the call returns (enumeration
nodes, vectors found, records produced); ``visits`` and ``callback_s``
are the number of visitor callbacks an enumeration made and the time
spent inside them.  The callback belongs to the caller's code, so its
time is handed back to the parent span when self times are computed.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import process_time as clock

# traced functions as "<module>.<function>"; the module is the layer
TRACED = (
    "core.lll_columns",
    "core.fp_enumerate",
    "core.enumerate_in_cylinder",
    "core.shortest_mixed_vectors",
    "bestapprox.chain_engine",
    "bestapprox.direct_scan",
    "dynamics.first_return",
    "dynamics.surface_membership_S",
    "dynamics.apply_flow_log",
    "estimators.ks_distance",
    "estimators.bjw_cdf_1d",
    "estimators.bjw_oracle_cdf_1d",
    "badk.step",
    "badk.certify",
    "serialize.write_json",
)
LAYERS = ("core", "bestapprox", "dynamics", "estimators", "badk", "serialize")

# span fields
NAME, PARENT, START, END, COUNT, VISITS, CALLBACK_S = range(7)


# work counted from what a call returns: nodes visited, or items produced
COUNTERS = {
    "core.fp_enumerate": int,
    "core.enumerate_in_cylinder": len,
    "core.shortest_mixed_vectors": len,
    "bestapprox.chain_engine": len,
    "bestapprox.direct_scan": len,
}


class Tracer:
    """Span recorder; off until :meth:`active` turns it on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Rebind every diolab module attribute bound to a traced
        function.  Call after the diolab modules are imported."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "diolab" or name.startswith("diolab."))
        ]
        for span_name in TRACED:
            layer, attr = span_name.split(".")
            original = getattr(sys.modules["diolab." + layer], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def active(self):
        """Record spans inside the ``with`` block only; blocks nest."""
        outer = self.enabled
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = outer

    def _wrap(self, span_name: str, fn):
        counter = COUNTERS.get(span_name)
        spans = self.spans
        stack = self._stack
        with_visitor = span_name == "core.fp_enumerate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [span_name, stack[-1] if stack else -1, 0.0, 0.0, 0, 0, 0.0]
            if with_visitor:
                args, kwargs = _count_visits(rec, args, kwargs)
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(result)
            return result

        return traced

    # -- output ---------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        """Write every span once, as compact JSON."""
        fields = ["name", "parent", "start_s", "end_s", "count", "visits", "callback_s"]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _count_visits(rec: list, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """Wrap fp_enumerate's visitor so the span counts its calls and the
    time they take."""
    if "visit" in kwargs:
        visit = kwargs["visit"]
    else:
        visit = args[2]

    def counted(y):
        rec[VISITS] += 1
        t0 = clock()
        try:
            return visit(y)
        finally:
            rec[CALLBACK_S] += clock() - t0

    if "visit" in kwargs:
        return args, {**kwargs, "visit": counted}
    return args[:2] + (counted,) + args[3:], kwargs


def summarize(spans: list[list], cpu_s: float) -> dict:
    """Per-function calls, total and self time, and work counters.

    Self time is a span's duration minus the time its direct children
    cover; a child's visitor-callback time is not covered by the child,
    so it stays with the parent.  ``bench.self_s`` is the part of the
    traced batch's ``cpu_s`` covered by no span: the benchmark's own code.
    """
    stats = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "visits": 0, "under_first_return": 0}
        for name in TRACED
    }
    covered = [0.0] * len(spans)
    top = 0.0
    for s in spans:
        dur = s[END] - s[START]
        st = stats[s[NAME]]
        st["calls"] += 1
        st["total_s"] += dur
        st["count"] += s[COUNT]
        st["visits"] += s[VISITS]
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur - s[CALLBACK_S]
        else:
            top += dur - s[CALLBACK_S]
    for i, s in enumerate(spans):
        stats[s[NAME]]["self_s"] += s[END] - s[START] - covered[i] - s[CALLBACK_S]
    # cylinder enumerations made on behalf of a first return
    for s in spans:
        if s[NAME] != "core.enumerate_in_cylinder":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "dynamics.first_return":
            p = spans[p][PARENT]
        if p >= 0:
            stats["dynamics.first_return"]["under_first_return"] += 1
    stats["bench"] = {"self_s": cpu_s - top}
    return stats
