"""In-memory spans around calls into ll2fun's public functions.

`Tracer.install` replaces each function named in `TRACED` with a wrapper
that records a span (name, start, end, parent) and whether the call
raised.  The wrapper is installed under every name that refers to the
function inside the `ll2fun` package, so calls between modules
(`fun_ir.translate_module` -> `ssa.analyze_function` -> `ssa.build_cfg`)
nest as child spans.  The evaluator's compiled code binds its state
helpers at import time, so per-iteration calls such as `state.rd_n` are
never wrapped; the benchmark times those directly instead.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

TRACED = {
    "ll_parser": ("tokenize", "parse_module"),
    "ssa": ("analyze_function", "build_cfg", "compute_liveness",
            "compute_block_params", "dominators", "detect_loops",
            "order_definitions"),
    "fun_ir": ("translate_module", "emit_sexpr", "load_program", "validate_program"),
    "state": ("parse_memory_image", "make_state"),
}
TRACED_METHODS = ("__init__", "run")  # of evaluator.ProgramEvaluator
LAYERS = ("ll_parser", "ssa", "fun_ir", "evaluator", "state")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._open[-1] if self._open else None,
                 time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if name == "ll2fun" or name.startswith("ll2fun.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"ll2fun.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        cls = sys.modules["ll2fun.evaluator"].ProgramEvaluator
        for attr in TRACED_METHODS:
            name = "evaluator.codegen" if attr == "__init__" else f"evaluator.{attr}"
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- queries -----------------------------------------------------------

    def subtree(self, root: Span) -> list[Span]:
        """`root` and every span opened while it was open."""
        return [s for s in self.spans[root.id:] if self._under(s, root.id)]

    def _under(self, s: Span, root_id: int) -> bool:
        while s.id != root_id:
            if s.parent is None:
                return False
            s = self.spans[s.parent]
        return True

    def find(self, root: Span, name: str, direct: bool = False) -> list[Span]:
        """Spans called `name` below `root` (only its direct children when
        `direct`)."""
        return [s for s in self.subtree(root) if s.name == name and s is not root
                and (not direct or s.parent == root.id)]

    def total(self, root: Span, name: str, direct: bool = False) -> float:
        return sum(s.seconds for s in self.find(root, name, direct))

    def self_seconds(self, root: Span, minus_layer: str) -> float:
        """`root`'s duration minus the outermost spans of `minus_layer`
        below it."""
        inner = sum(s.seconds for s in self.subtree(root)
                    if s.layer == minus_layer and s is not root
                    and self.spans[s.parent].layer != minus_layer)
        return root.seconds - inner

    def failed_origins(self) -> dict[str, int]:
        """Per layer, the calls that raised where no traced callee did."""
        raised_below = {s.parent for s in self.spans if s.failed and s.parent is not None}
        out = {layer: 0 for layer in LAYERS}
        for s in self.spans:
            if s.failed and s.id not in raised_below and s.layer in out:
                out[s.layer] += 1
        return out

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "failed": s.failed}
                for s in self.spans]
