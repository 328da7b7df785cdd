"""Exception taxonomy shared by all pipeline stages.

The distinction between "malformed input" and "recognized LLVM that falls
outside the supported subset" is load-bearing: the CLI maps the two to
different exit codes and tests assert on it.  `read_utf8` reads every
input file, so that bytes which are not UTF-8 end in the reading stage's
own error rather than a `UnicodeDecodeError`.
"""

from __future__ import annotations

from collections.abc import Callable


class Ll2FunError(Exception):
    """Base class for all errors raised by this package."""


class LexError(Ll2FunError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(Ll2FunError):
    """Malformed .ll input (bad syntax, arity violations, duplicate names)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f"{line}:{col}: " if line is not None else ""
        super().__init__(loc + message)
        self.line = line
        self.col = col


class UnsupportedConstructError(ParseError):
    """Syntactically recognizable LLVM that the supported subset excludes."""


class AnalysisError(Ll2FunError):
    """CFG / liveness / loop-structure rejection with a diagnostic."""


class LoadError(Ll2FunError):
    """Malformed or out-of-shape .fun program text."""


class EvalFault(Ll2FunError):
    """Runtime fault during concrete execution (bad address, broken frame
    bracket, ...). `context` carries the def name and step count when the
    evaluator can attach them."""

    def __init__(self, message: str, context: str | None = None):
        super().__init__(message if context is None else f"{message} [{context}]")
        self.context = context


class SignatureViolation(EvalFault):
    """A def received or produced a value outside its declared kind."""


class BudgetExhausted(Ll2FunError):
    """Configured step budget ran out; carries per-loop iteration counts."""

    def __init__(self, message: str, counts: dict[str, int] | None = None):
        super().__init__(message)
        self.counts = dict(counts or {})


def read_utf8(path: str, error: Callable[[str, str], Ll2FunError]) -> str:
    """The text of the file at path, as `open(path, encoding="utf-8")`
    reads it: "\r\n" and "\r" become "\n".  Bytes that are not UTF-8
    raise error(head, what), the reader's own error for a bad character:
    head is the text before them, where the reader counts the line, and
    what names the first bad byte and its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise error(head, f"not UTF-8: byte {data[e.start]:#04x} at offset {e.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
