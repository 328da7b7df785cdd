"""Pausing CPython's cyclic collector while a long-lived structure is built.

Its own module so that every builder can import it: the parser, the
translator, the loader and the evaluator.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Pause CPython's cyclic collector while a program is built.  A build
    allocates many long-lived objects and no cycles, so collections during
    it scan the growing program again and again and free nothing; the
    objects are scanned once, by the first young collection after it.  The
    collector is re-enabled only if it was on at entry, so a nested use or
    a caller that turned it off is left as it was."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
