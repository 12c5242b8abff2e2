"""Timing spans around dwsurf's public functions, installed from outside.

A ``Tracer`` replaces each traced function by a wrapper in the module that
defines it and in every other ``dwsurf`` module that imported it by name, so
calls inside one module are caught too (``fhk_state_sum`` -> ``run_state_sum``).
Each call records a span: name, start, end, parent span, case id and an
optional exact work count read from the call's arguments or result.  Spans
stay in memory; the caller writes them out.

A name that no longer exists is reported as absent instead of failing, so a
later change that removes or renames a function leaves the traced run working.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in the same list, -1 at the root
    case: str
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# Work counts, from a call's bound arguments and its result.
def _states(args, out):
    return out[1]


def _center_dim(args, out):
    return len(out)


def _blocks(args, out):
    return len(out.blocks)


def _free_edges(args, out):
    return out.plan.free_count


def _tuples(args, out):
    """Generator tuples the direct route enumerates: n^generators, computed."""
    from dwsurf.surfaces import relator_presentation
    return args["G"].order ** relator_presentation(args["spec"]).generators


# (span name, defining module, attribute path, work count).  The oracle's
# engine is dwsurf.invariants.exact_contraction, the same function as the state
# sum's; it is listed first so that it gets its own name in that module only.
TARGETS = (
    ("invariants.exact_contraction", "dwsurf.invariants", "exact_contraction", _states),
    ("groups.build_group", "dwsurf.groups", "build_group", None),
    ("groups.conjugacy_classes", "dwsurf.groups", "conjugacy_classes", None),
    ("cocycles.verify_cocycle", "dwsurf.cocycles", "verify_cocycle", None),
    ("cocycles.c_regular_count", "dwsurf.cocycles", "c_regular_count", None),
    ("cocycles.twist", "dwsurf.cocycles", "twist", None),
    ("cocycles.heisenberg_cocycle", "dwsurf.cocycles", "heisenberg_cocycle", None),
    ("cocycles.sign_cocycles_catalog", "dwsurf.cocycles", "sign_cocycles_catalog", None),
    ("algebra.center_basis", "dwsurf.algebra", "TwistedGroupAlgebra.center_basis", _center_dim),
    ("algebra.wedderburn_decompose", "dwsurf.algebra", "wedderburn_decompose", _blocks),
    ("algebra.fs_indicators", "dwsurf.algebra", "fs_indicators", None),
    ("state_sum.run_state_sum", "dwsurf.state_sum", "run_state_sum", _free_edges),
    ("state_sum.exact_contraction", "dwsurf.state_sum", "exact_contraction", _states),
    ("invariants.dw_direct", "dwsurf.invariants", "dw_direct", _tuples),
    ("invariants.dw_labeling_oracle", "dwsurf.invariants", "dw_labeling_oracle", None),
    ("invariants.count_homs", "dwsurf.invariants", "count_homs", None),
    ("invariants.mednykh_count", "dwsurf.invariants", "mednykh_count", None),
    ("invariants.boundary_hom_count", "dwsurf.invariants", "boundary_hom_count", None),
    ("invariants.boundary_hom_count_brute", "dwsurf.invariants", "boundary_hom_count_brute",
     None),
    ("invariants.verlinde", "dwsurf.invariants", "verlinde", None),
    ("invariants.cross_check", "dwsurf.invariants", "cross_check", None),
    ("cli.cmd_check", "dwsurf.cli", "cmd_check", None),
)

# Functions whose peak allocation is measured, in a pass of its own.
ALLOC_TARGETS = ("algebra.center_basis", "invariants.dw_direct")


def _dwsurf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dwsurf" or name.startswith("dwsurf."))]


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if it is gone."""
    owner = sys.modules.get(module_name)
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class _Patcher:
    """Replaces functions by wrappers and puts the originals back."""

    def __init__(self):
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def patch(self, name, module_name, path, make_wrapper, everywhere=True):
        found = _resolve(module_name, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, fn = found
        wrapper = make_wrapper(name, fn)
        owners = [owner]
        if everywhere and "." not in path:
            owners += [m for m in _dwsurf_modules()
                       if m is not owner and getattr(m, attr, None) is fn]
        for o in owners:
            self._saved.append((o, attr, fn))
            setattr(o, attr, wrapper)

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


class Tracer:
    """Records one list of spans per traced repetition."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._active: defaultdict = defaultdict(int)
        self._patcher = _Patcher()
        self.uncounted: set = set()   # layers whose count could not be read

    @property
    def absent(self) -> list:
        return self._patcher.absent

    def _count(self, name, count, signature, args, kwargs, out):
        try:
            return count(signature.bind(*args, **kwargs).arguments, out)
        except (TypeError, AttributeError, KeyError, IndexError):
            self.uncounted.add(name)
            return None

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active[name]:   # a recursive call stays inside the outer span
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if count is not None:
                span.count = self._count(name, count, signature, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        self._patcher.absent.clear()
        for name, module_name, path, count in self.targets:
            self._patcher.patch(name, module_name, path,
                                lambda n, fn, c=count: self._wrap(n, fn, c),
                                everywhere=name != "invariants.exact_contraction")

    def uninstall(self):
        self._patcher.restore()


class AllocProbe:
    """Peak traced allocation of single calls, in MB, maximised over calls.

    tracemalloc runs only for the duration of each probed call, so the rest of
    the pass runs at full speed; the pass is still never timed.
    """

    def __init__(self):
        self.peaks = {name: 0.0 for name in ALLOC_TARGETS}
        self._targets = [t for t in TARGETS if t[0] in ALLOC_TARGETS]
        self._patcher = _Patcher()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks[name], peak / 2 ** 20)

        return wrapper

    def install(self):
        for name, module_name, path, _ in self._targets:
            self._patcher.patch(name, module_name, path, self._wrap)

    def uninstall(self):
        self._patcher.restore()


def layer_table(spans: list, wall: float) -> dict:
    """Per span name: calls, inclusive time, self time and summed counts.

    Self time is a span's duration minus that of its direct children; the
    wall time no root span covers is returned under ``unattributed``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for i, s in enumerate(spans):
        row = table[s.name]
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.duration - child[i]
        row["count"] += s.count or 0
    roots = sum(s.duration for s in spans if s.parent < 0)
    return {"layers": dict(table), "unattributed": wall - roots}
