"""Run-scoped memo for the deterministic algebra of one validation run.

`dw check` evaluates the same groups, cocycles and surfaces in many rows,
and contracts the same state sums (a cocycle on one gluing) again and again.
Inside ``run_scope()`` the pure functions that route through ``shared``
compute each result once, keyed by the content of their inputs; outside it,
``shared`` calls ``compute`` every time.  The scope is a context variable, so
nothing is carried from one run to the next, and library callers holding the
same objects across calls never read a stored result.  The five sites are
``build_group``, ``wedderburn_decompose``, ``standard_triangulation``, what
a gluing alone determines (``state_sum._gluing_slots``: edge variables,
inverted and paying slots, after orienting, and the contraction plan with
its step schedule), and ``run_state_sum``.  What derives from one
immutable object alone (a group's conjugacy classes, a cocycle's c-regular
class count) is kept on that object instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_results: ContextVar = ContextVar("dwsurf_run_memo", default=None)


@contextmanager
def run_scope():
    """Share results between the calls made inside the block."""
    token = _results.set({})
    try:
        yield
    finally:
        _results.reset(token)


def shared(key, compute):
    """compute(), or the result stored under key() in the active scope.  The
    key, which may copy whole tables, is built only inside a scope."""
    results = _results.get()
    if results is None:
        return compute()
    key = key()
    if key not in results:
        results[key] = compute()
    return results[key]


def cocycle_key(c) -> tuple:
    return (c.group.name, c.group.cayley.tobytes(), c.order, c.exps.tobytes())
