"""Run-scoped memo for the deterministic algebra of one validation run.

`dw check` evaluates the same groups, cocycles and surfaces in many rows.
Inside ``run_scope()`` the pure functions that route through ``shared``
compute each result once, keyed by the content of their inputs; outside it,
``shared`` calls ``compute`` every time.  The scope is a context variable, so
nothing is carried from one run to the next, and library callers holding the
same objects across calls never read a stored result.
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


def shared(key: tuple, compute):
    """compute(), or the result stored under key in the active scope."""
    results = _results.get()
    if results is None:
        return compute()
    if key not in results:
        results[key] = compute()
    return results[key]


def group_key(G) -> tuple:
    return (G.name, G.cayley.tobytes())


def cocycle_key(c) -> tuple:
    return group_key(c.group) + (c.order, c.exps.tobytes())
