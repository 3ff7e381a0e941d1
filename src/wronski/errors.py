"""Shared exception types, mapped to CLI exit codes in cli.py, and the run deadline."""

import time
from contextlib import contextmanager
from contextvars import ContextVar


class DomainError(ValueError):
    """Invalid mathematical input (bad delta, missing heights, collinear points...)."""


class NotFoldableError(DomainError):
    """Raised when the dual graph of a triangulation is not bipartite."""


class StructureError(DomainError):
    """Malformed simplicial complex (overlap, dangling edges, unused points)."""


class DegenerateInstanceError(RuntimeError):
    """A counting instance stayed degenerate after all retries (tangency etc.)."""


class EliminationError(RuntimeError):
    """Elimination produced an identically zero result after all retries."""


_LIMIT = ContextVar("wronski_deadline", default=None)


@contextmanager
def deadline(limit: float):
    """Bound the work inside the block by limit, a time.monotonic() value.

    Every long loop calls check_deadline, which raises TimeoutError once the
    limit has passed.  A nested scope keeps the earlier limit, and leaving a
    scope restores the outer one.
    """
    outer = _LIMIT.get()
    token = _LIMIT.set(limit if outer is None else min(outer, limit))
    try:
        yield
    finally:
        _LIMIT.reset(token)


def check_deadline(what: str):
    """TimeoutError naming what once the innermost deadline scope has passed."""
    limit = _LIMIT.get()
    if limit is not None and time.monotonic() > limit:
        raise TimeoutError(f"{what} exceeded its deadline")
