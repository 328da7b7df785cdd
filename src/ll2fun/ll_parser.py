"""Lexer, parser, and printer for the supported subset of LLVM textual IR.

Supported: integer widths i1/i8/i16/i32/i64 (addresses are 32-bit), the
opcodes add sub mul and or xor shl lshr ashr icmp zext sext trunc select
getelementptr (single index) load store alloca phi br ret and direct call,
plus module-level aliases and target lines.  Attributes, metadata,
alignment and calling conventions are consumed and dropped; anything else
is rejected — as an UnsupportedConstructError when the construct is
recognizable LLVM outside the subset, as a ParseError when it is malformed.

Both the classic typed-pointer spellings (``load i64* %p``,
``getelementptr i64* %p, i64 %i``) and the later two-type spellings
(``load i64, i64* %p``) are accepted; the printer emits the classic form.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field, replace

from .collector import collector_paused
from .errors import LexError, ParseError, UnsupportedConstructError, read_utf8

WIDTHS = (1, 8, 16, 32, 64)

ICMP_PREDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")

BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")

# Recognizable LLVM we deliberately do not support, for error taxonomy.
UNSUPPORTED_KEYWORDS = frozenset({
    "switch", "invoke", "unreachable", "indirectbr", "resume", "callbr",
    "udiv", "sdiv", "urem", "srem", "fadd", "fsub", "fmul", "fdiv", "frem",
    "fcmp", "fneg", "ptrtoint", "inttoptr", "bitcast", "addrspacecast",
    "extractvalue", "insertvalue", "extractelement", "insertelement",
    "shufflevector", "atomicrmw", "cmpxchg", "fence", "landingpad", "va_arg",
    "float", "double", "half", "fp128", "x86_fp80", "ppc_fp128", "ptr",
    "void", "global", "constant", "declare", "freeze",
})

IGNORED_FLAGS = frozenset({
    "nuw", "nsw", "exact", "inbounds", "volatile", "tail", "musttail",
    "notail", "fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn",
    "reassoc", "disjoint",
})

# Attribute-ish words that may trail a function header or decorate params.
ATTRIBUTE_WORDS = frozenset({
    "nounwind", "uwtable", "readonly", "readnone", "writeonly", "norecurse",
    "willreturn", "mustprogress", "nofree", "nosync", "noinline", "alwaysinline",
    "optsize", "minsize", "ssp", "sspstrong", "sspreq", "sanitize_address",
    "speculatable", "argmemonly", "inaccessiblememonly", "noundef", "nocapture",
    "nonnull", "noalias", "signext", "zeroext", "inreg", "returned",
    "dereferenceable", "align", "local_unnamed_addr", "unnamed_addr",
    "dso_local", "dso_preemptable", "internal", "private", "external",
    "linkonce", "linkonce_odr", "weak", "weak_odr", "common", "appending",
    "hidden", "protected", "default", "ccc", "fastcc", "coldcc",
})


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# One match per token: the whitespace and comments before it (group 1,
# dropped), then one alternative per token class, named after the kind it
# yields and capturing the token's text without sigil, colon or quotes.
# Every class is ASCII: any other character is illegal.  `end` matches
# once, after the last token, so trailing whitespace is read only once.
_LL_TOKEN = re.compile(r"""
    ((?:[ \t\r\n]+|;[^\n]*)*)
    (?:
        %(?P<local>[0-9]+|[A-Za-z$._][A-Za-z0-9$._]*)
      | (?P<punct>[(){}\[\],=*<>])
      | (?P<type>i[0-9]+)(?![A-Za-z0-9$._:])
      | (?P<label>[A-Za-z$._][A-Za-z0-9$._]*):
      | (?P<keyword>[A-Za-z$._][A-Za-z0-9$._]*)
      | (?P<int>-?[0-9]+)
      | @(?P<global>[0-9]+|[A-Za-z$._][A-Za-z0-9$._]*)
      | !(?P<metadata>[A-Za-z0-9$._]*)
      | (?P<attribute_group>\#[0-9]*)
      | "(?P<string>[^"\n]*)"
      | (?P<colon>:)
      | (?P<dangling>[%@-])
      | (?P<unterminated>")
      | (?P<illegal>.)
      | (?P<end>\Z)
    )""", re.VERBOSE | re.DOTALL)

_KINDS = frozenset({
    "keyword", "local", "global", "label", "int", "type", "punct", "string", "metadata"})
_LEX_ERRORS = {"dangling": "dangling '{}'", "unterminated": "unterminated string",
               "illegal": "illegal character {!r}"}


class Tokens:
    """The tokens of one .ll source as three parallel lists: each token's
    kind (keyword | local | global | label | int | type | punct | string |
    metadata), its text, and the offset of its first character in source.
    Line and column are derived from the offset where they are reported."""

    __slots__ = ("source", "kinds", "texts", "starts")

    def __init__(self, source: str, kinds: list[str], texts: list[str], starts: list[int]):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)

    def position(self, i: int) -> tuple[int, int]:
        """Line and column, both from 1, of token i."""
        return _line_col(self.source, self.starts[i])

    def rows(self) -> list[tuple[str, str, int, int]]:
        """(kind, text, line, col) of every token, in order."""
        source, rows, line, seen = self.source, [], 1, 0
        for kind, text, start in zip(self.kinds, self.texts, self.starts):
            line += source.count("\n", seen, start)
            seen = start
            rows.append((kind, text, line, start - source.rfind("\n", 0, start)))
        return rows


def _line_col(source: str, offset: int) -> tuple[int, int]:
    """Line and column, both from 1, of the character at offset."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> Tokens:
    """Split .ll text into tokens in one pass of `_LL_TOKEN`, building no
    object per token; comments (';' to end of line) and whitespace are
    dropped.  Raises LexError, with line:col, on a character that starts
    no token."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for m in _LL_TOKEN.finditer(source):
        kind = m.lastgroup
        if kind in _KINDS:
            kinds.append(kind)
        elif kind == "attribute_group":
            kinds.append("metadata")
        elif kind == "end":
            break
        elif kind == "colon":  # numeric labels arrive as int followed by ':'
            if not kinds or kinds[-1] != "int" or texts[-1][0] == "-":
                raise LexError("unexpected ':'", *_line_col(source, m.end(1)))
            kinds[-1] = "label"
            continue
        else:
            raise LexError(_LEX_ERRORS[kind].format(m[kind]), *_line_col(source, m.end(1)))
        texts.append(m[kind])
        starts.append(m.end(1))
    return Tokens(source, kinds, texts, starts)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reg:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


Operand = Reg | Const


@dataclass(frozen=True)
class Instruction:
    """One non-phi, non-terminator instruction.  The parser records the
    kind ("i1".."i64" or "addr") of each operand use and of the result
    where it reads them off the text; nothing downstream re-derives them
    from the opcode."""
    opcode: str
    result: str | None = None
    operands: tuple[Operand, ...] = ()
    width: int | None = None       # value width in bits: binop/icmp operands,
                                   # select arms, conversion source, load/store/call value
    to_width: int | None = None    # conversion target width
    pred: str | None = None        # icmp predicate
    elem_width: int | None = None  # gep/alloca element width in bits
    idx_width: int | None = None   # gep index width in bits
    callee: str | None = None
    arg_kinds: tuple[str, ...] = ()  # kind each operand is used at; none for alloca's count
    kind: str | None = None        # kind of the result register, None without one


@dataclass(frozen=True)
class Phi:
    result: str
    kind: str  # "i1".."i64" or "addr"
    incomings: tuple[tuple[Operand, str], ...]  # (value, predecessor label)


@dataclass(frozen=True)
class Br:
    cond: Operand | None
    targets: tuple[str, ...]  # (target,) or (if_true, if_false)


@dataclass(frozen=True)
class Ret:
    width: int
    value: Operand


Terminator = Br | Ret


@dataclass(frozen=True)
class BasicBlock:
    label: str
    phis: tuple[Phi, ...]
    body: tuple[Instruction, ...]
    terminator: Terminator

    @functools.cached_property
    def _phi_index(self) -> dict[str, dict[int, Operand]]:
        """Per predecessor label, phi position -> the value it lists first
        (the parser rejects a second, different one)."""
        index: dict[str, dict[int, Operand]] = {}
        for k, phi in enumerate(self.phis):
            for value, pred in phi.incomings:
                index.setdefault(pred, {}).setdefault(k, value)
        return index

    def phi_values(self, pred: str) -> tuple[Operand | None, ...]:
        """The value each phi takes on the edge from pred, in phi order,
        None where a phi lists none: the arguments of that jump."""
        if not self.phis:
            return ()
        row = self._phi_index.get(pred, {})
        return tuple(map(row.get, range(len(self.phis))))


@dataclass(frozen=True)
class LlvmFunction:
    name: str
    ret_width: int
    params: tuple[tuple[str, str], ...]  # (name, kind)
    blocks: tuple[BasicBlock, ...]

    @functools.cached_property
    def kinds(self) -> dict[str, str]:
        """Kind of every register the function defines, params included;
        one dict shared by every reader, which must not change it."""
        kinds = dict(self.params)
        for block in self.blocks:
            for phi in block.phis:
                kinds[phi.result] = phi.kind
            for inst in block.body:
                if inst.result is not None:
                    kinds[inst.result] = inst.kind
        return kinds

    @functools.cached_property
    def _by_label(self) -> dict[str, BasicBlock]:
        return {b.label: b for b in reversed(self.blocks)}  # the first wins

    def block(self, label: str) -> BasicBlock:
        """The first block with this label; KeyError if there is none."""
        return self._by_label[label]


@dataclass(frozen=True)
class LlvmModule:
    functions: tuple[LlvmFunction, ...]
    aliases: dict[str, str] = field(default_factory=dict)
    target_notes: tuple[str, ...] = ()

    @functools.cached_property
    def _by_name(self) -> dict[str, LlvmFunction]:
        return {f.name: f for f in reversed(self.functions)}  # the first wins

    def function(self, name: str) -> LlvmFunction:
        """The first function with this name; KeyError if there is none."""
        return self._by_name[name]


def width_of(kind: str) -> int:
    """Bit width of a value kind; addresses are 32-bit."""
    if kind == "addr":
        return 32
    return int(kind[1:])


@functools.lru_cache(maxsize=1 << 16)
def mangle_register(name: str) -> str:
    """Emission name for a register: '.' becomes '_dot_', other specials
    become '_', purely numeric names gain a '_' prefix.  Memoized: the
    translator asks for each register's name at every use."""
    if name.isdigit():
        return "_" + name
    out = []
    for ch in name:
        if ch == ".":
            out.append("_dot_")
        elif ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


def mangle_label(label: str) -> str:
    """Emission name fragment for a block label: leading '.' dropped, then
    the register rules."""
    return mangle_register(label.lstrip("."))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the flat lists of `Tokens`.  A token is its
    index into them; `pos` is the next token's."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.end = len(tokens)
        # two entries past the end, so that peek(1) reads no bound
        self.kinds = tokens.kinds + [None, None]
        self.texts = tokens.texts + ["", ""]
        self.starts = tokens.starts + [len(tokens.source)] * 2
        self.pos = 0
        self.label = ""  # the label of the block being parsed
        # (block, predecessor token) of the function's phis
        self.phi_labels: list[tuple[str, int]] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> str | None:
        """The kind of the token ahead of pos, None past the end."""
        return self.kinds[self.pos + ahead]

    def next(self) -> int:
        if self.pos == self.end:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return self.pos - 1

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kinds[self.pos] == kind and (text is None or self.texts[self.pos] == text)

    def keyword_in(self, i: int, words: Collection[str]) -> bool:
        """Whether token i is a keyword in words."""
        return self.kinds[i] == "keyword" and self.texts[i] in words

    def expect(self, kind: str, text: str | None = None) -> int:
        i = self.pos
        if self.kinds[i] != kind or (text is not None and self.texts[i] != text):
            if i == self.end:
                raise ParseError(f"expected {text or kind}, found end of input")
            raise ParseError(f"expected {text or kind}, found {self.texts[i]!r}",
                             *self.tokens.position(i))
        self.pos += 1
        return i

    def expect_text(self, kind: str) -> str:
        return self.texts[self.expect(kind)]

    def line_end(self, i: int) -> int:
        """The offset of the newline that ends token i's line, or of the
        end of input: a later token is on i's line if it starts before."""
        end = self.tokens.source.find("\n", self.starts[i])
        return len(self.tokens.source) if end < 0 else end

    def fail(self, message: str, i: int | None = None, error: type[ParseError] = ParseError):
        """Raise error at token i, or at pos."""
        i = self.pos if i is None else i
        if i == self.end:
            raise error(message)
        raise error(f"{message} (at {self.texts[i]!r})", *self.tokens.position(i))

    def unsupported(self, message: str, i: int | None = None):
        self.fail(message, i, UnsupportedConstructError)

    def number(self, i: int, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than int()'s digit limit
            raise ParseError(f"bad number {self.texts[i][:40]!r}",
                             *self.tokens.position(i)) from None

    # -- module ------------------------------------------------------------

    def parse_module(self) -> LlvmModule:
        functions: list[LlvmFunction] = []
        aliases: dict[str, str] = {}
        notes: list[str] = []
        while (kind := self.peek()) is not None:
            text = self.texts[self.pos]
            if kind == "keyword" and text == "define":
                functions.append(self.parse_function())
            elif kind == "keyword" and text == "target":
                notes.append(self.parse_target_line())
            elif kind == "global":
                self.parse_alias(aliases)
            elif kind == "keyword" and text == "attributes":
                self.skip_attribute_group()
            elif kind == "metadata":
                self.skip_metadata_line()
            elif kind == "keyword" and text in UNSUPPORTED_KEYWORDS:
                self.unsupported(f"module-level construct '{text}' is outside the subset")
            else:
                self.fail("expected a module-level item")
        dup = _first_repeated([f.name for f in functions])
        if dup is not None:
            raise ParseError(f"function @{dup} defined more than once")
        module = LlvmModule(tuple(functions), aliases, tuple(notes))
        _validate_module(module)
        return module

    def parse_target_line(self) -> str:
        self.expect("keyword", "target")
        what = self.next()
        if not self.keyword_in(what, ("datalayout", "triple")):
            self.fail("expected 'datalayout' or 'triple' after 'target'", what)
        self.expect("punct", "=")
        s = self.next()
        if self.kinds[s] != "string":
            self.fail("expected a string after 'target ... ='", s)
        return f'target {self.texts[what]} = "{self.texts[s]}"'

    def parse_alias(self, aliases: dict[str, str]):
        name = self.expect("global")
        self.expect("punct", "=")
        saw_alias = False
        while self.keyword_in(self.pos, ATTRIBUTE_WORDS | {"alias"}):
            if self.texts[self.next()] == "alias":
                saw_alias = True
                break
        if not saw_alias:
            self.unsupported("global definitions other than aliases are outside the subset",
                             name)
        # Aliases occupy one source line; the last global token on the line
        # names the target, everything before it is type noise we discard.
        line_end = self.line_end(name)
        target: int | None = None
        while self.starts[self.pos] < line_end:
            i = self.next()
            if self.kinds[i] == "global":
                target = i
        if target is None:
            self.fail("alias needs a global target on the same line", name)
        if self.texts[name] in aliases:
            raise ParseError(f"alias @{self.texts[name]} defined more than once",
                             *self.tokens.position(name))
        aliases[self.texts[name]] = self.texts[target]

    def skip_attribute_group(self):
        self.expect("keyword", "attributes")
        self.next()  # #N
        self.expect("punct", "=")
        self.expect("punct", "{")
        depth = 1
        while depth:
            i = self.next()
            if self.kinds[i] == "punct" and self.texts[i] == "{":
                depth += 1
            elif self.kinds[i] == "punct" and self.texts[i] == "}":
                depth -= 1

    def skip_metadata_line(self):
        line_end = self.line_end(self.next())  # leading !name / !N
        while self.starts[self.pos] < line_end:
            self.pos += 1

    # -- types -------------------------------------------------------------

    def parse_int_width(self, *, context: str) -> int:
        i = self.next()
        if self.kinds[i] != "type":
            if self.keyword_in(i, UNSUPPORTED_KEYWORDS):
                self.unsupported(f"type '{self.texts[i]}' in {context} is outside the subset", i)
            if self.kinds[i] == "punct" and self.texts[i] == "<":
                self.unsupported(f"vector type in {context} is outside the subset", i)
            self.fail(f"expected an integer type in {context}", i)
        width = self.number(i, self.texts[i][1:])
        if width not in WIDTHS:
            raise UnsupportedConstructError(
                f"integer width i{width} in {context} is outside the subset (use i1/i8/i16/i32/i64)",
                *self.tokens.position(i))
        return width

    def parse_value_kind(self, *, context: str) -> str:
        """iN or iN* — returns 'iN' or 'addr'."""
        width = self.parse_int_width(context=context)
        if self.at("punct", "*"):
            self.pos += 1
            if self.at("punct", "*"):
                self.unsupported(f"multi-level pointer in {context} is outside the subset")
            return "addr"
        return f"i{width}"

    # -- operands ------------------------------------------------------------

    def parse_operand(self, kind: str, *, context: str) -> Operand:
        i = self.next()
        tok_kind, text = self.kinds[i], self.texts[i]
        if tok_kind == "local":
            return Reg(text)
        if tok_kind == "int":
            return Const(self.number(i, text) % (1 << width_of(kind)))
        if tok_kind == "keyword" and text in ("true", "false"):
            if kind != "i1":
                self.fail(f"boolean literal for non-i1 operand in {context}", i)
            return Const(1 if text == "true" else 0)
        if tok_kind == "keyword" and text in ("null", "undef", "poison", "zeroinitializer"):
            self.unsupported(f"'{text}' operand in {context} is outside the subset", i)
        self.fail(f"expected a register or integer constant in {context}", i)

    # -- functions -----------------------------------------------------------

    def parse_function(self) -> LlvmFunction:
        self.expect("keyword", "define")
        self.skip_words(ATTRIBUTE_WORDS)
        ret_width = self.parse_int_width(context="function return type")
        if self.at("punct", "*"):
            self.unsupported("pointer return types are outside the subset")
        name = self.expect_text("global")
        self.expect("punct", "(")
        params: list[tuple[str, str]] = []
        if not self.at("punct", ")"):
            while True:
                kind = self.parse_value_kind(context=f"parameters of @{name}")
                self.skip_words(ATTRIBUTE_WORDS, numbers=True)
                if not self.at("local"):
                    self.unsupported(f"unnamed parameters of @{name} are outside the subset")
                params.append((self.texts[self.next()], kind))
                if self.at("punct", ","):
                    self.pos += 1
                    continue
                break
        self.expect("punct", ")")
        self.skip_words(ATTRIBUTE_WORDS, numbers=True, metadata=True)
        self.expect("punct", "{")
        self.phi_labels = []
        blocks = self.parse_blocks(name)
        self.expect("punct", "}")
        fn = LlvmFunction(name, ret_width, tuple(params), tuple(blocks))
        _validate_function(fn)
        self.check_phi_labels(fn)
        return fn

    def check_phi_labels(self, fn: LlvmFunction):
        """As LLVM's verifier does, reject a phi entry whose label is not a
        predecessor of the phi's block, a label no block has included."""
        preds: dict[str, set[str]] = {}
        for block in fn.blocks:
            if isinstance(block.terminator, Br):
                for target in block.terminator.targets:
                    preds.setdefault(target, set()).add(block.label)
        for label, pred in self.phi_labels:
            if self.texts[pred] not in preds.get(label, ()):
                self.fail(f"phi lists %{self.texts[pred]}, which is not a predecessor "
                          f"of %{label}", pred)

    def parse_blocks(self, fn_name: str) -> list[BasicBlock]:
        blocks: list[BasicBlock] = []
        first = True
        while not self.at("punct", "}"):
            if self.at("label"):
                label = self.texts[self.next()]
            elif first:
                label = "0"  # unlabelled entry block
            else:
                self.fail("expected a block label")
            first = False
            blocks.append(self.parse_block(label))
        if not blocks:
            raise ParseError(f"function @{fn_name} has no blocks")
        return blocks

    def parse_block(self, label: str) -> BasicBlock:
        self.label = label
        phis: list[Phi] = []
        body: list[Instruction] = []
        terminator: Terminator | None = None
        while terminator is None:
            start, kind = self.pos, self.peek()
            if kind is None:
                raise ParseError(f"block {label}: input ended before a terminator")
            if kind == "label" or (kind == "punct" and self.texts[start] == "}"):
                raise ParseError(f"block {label} lacks a terminator",
                                 *self.tokens.position(start))
            item = self.parse_instruction()
            if isinstance(item, (Br, Ret)):
                terminator = item
            elif isinstance(item, Phi):
                if body:
                    raise ParseError(f"block {label}: phi after a non-phi instruction",
                                     *self.tokens.position(start))
                phis.append(item)
            else:
                body.append(item)
        return BasicBlock(label, tuple(phis), tuple(body), terminator)

    # -- instructions --------------------------------------------------------

    def parse_instruction(self) -> Instruction | Phi | Br | Ret:
        kind, text = self.peek(), self.texts[self.pos]
        if kind == "local":
            self.pos += 1
            self.expect("punct", "=")
            return self.parse_rhs(text)
        if kind == "keyword":
            if text == "br":
                return self.parse_br()
            if text == "ret":
                return self.parse_ret()
            if text == "store":
                return self.parse_store()
            if text in ("call", "tail"):  # a value-discarding call
                return self.parse_rhs(None)
            if text in UNSUPPORTED_KEYWORDS:
                self.unsupported(f"opcode '{text}' is outside the subset")
        self.fail("expected an instruction")

    def parse_rhs(self, result: str | None) -> Instruction | Phi:
        at = self.next()
        if self.kinds[at] != "keyword":
            self.fail("expected an opcode", at)
        op = self.texts[at]
        while op in IGNORED_FLAGS:
            op = self.expect_text("keyword")
        parse = _RHS_PARSERS.get(op)
        if parse is None:
            if op in UNSUPPORTED_KEYWORDS:
                self.unsupported(f"opcode '{op}' is outside the subset", at)
            self.fail(f"unknown opcode '{op}'", at)
        if result is None and op != "call":
            self.fail(f"'{op}' needs a result register", at)
        return parse(self, op, result, at)

    def skip_words(self, words: frozenset[str], *, numbers: bool = False,
                   metadata: bool = False):
        """Drop a run of keywords from words; with numbers each may carry
        one integer (align N), and with metadata !md tokens may sit among
        them."""
        while True:
            if self.keyword_in(self.pos, words):
                self.pos += 1
                if numbers and self.at("int"):
                    self.pos += 1
            elif metadata and self.at("metadata"):
                self.pos += 1
            else:
                return

    def parse_pointee(self, op: str, context: str, what: str, at: int) -> int:
        """The width N of `iN* %p` (classic) or `iN, iN* %p` (two-type)."""
        width = self.parse_int_width(context=context)
        if self.at("punct", "*"):
            self.pos += 1
        else:
            self.expect("punct", ",")
            if self.parse_int_width(context=f"{op} pointer type") != width:
                self.fail(f"{op} {what} and pointer types disagree", at)
            self.expect("punct", "*")
        return width

    def parse_address(self, op: str, what: str, at: int) -> Reg:
        """A pointer operand, which must be a register."""
        ptr = self.parse_operand("addr", context=op)
        if not isinstance(ptr, Reg):
            self.fail(f"{op} {what} must be a register", at)
        return ptr

    def skip_tail_annotations(self, at: int):
        """Drop trailing ', align N' / ', !md ...' noise on the line of token at."""
        if not self.at("punct", ","):
            return
        line_end = self.line_end(at)
        while self.at("punct", ",") and self.starts[self.pos + 1] < line_end \
                and (self.keyword_in(self.pos + 1, ("align",)) or self.peek(1) == "metadata"):
            self.pos += 1
            if self.keyword_in(self.next(), ("align",)):
                self.expect("int")
            else:
                while self.starts[self.pos] < line_end and self.peek() in ("metadata", "int"):
                    self.pos += 1

    def parse_binop(self, op: str, result: str, at: int) -> Instruction:
        self.skip_words(IGNORED_FLAGS)
        width = self.parse_int_width(context=op)
        kind = f"i{width}"
        a = self.parse_operand(kind, context=op)
        self.expect("punct", ",")
        b = self.parse_operand(kind, context=op)
        self.skip_tail_annotations(at)
        return Instruction(op, result, (a, b), width=width, arg_kinds=(kind, kind), kind=kind)

    def parse_icmp(self, op: str, result: str, at: int) -> Instruction:
        pred = self.expect("keyword")
        if self.texts[pred] not in ICMP_PREDS:
            self.fail(f"unknown icmp predicate '{self.texts[pred]}'", pred)
        kind = self.parse_value_kind(context="icmp")
        if kind == "addr":
            self.unsupported("icmp over pointers is outside the subset", at)
        a = self.parse_operand(kind, context="icmp")
        self.expect("punct", ",")
        b = self.parse_operand(kind, context="icmp")
        self.skip_tail_annotations(at)
        return Instruction("icmp", result, (a, b), width=width_of(kind), pred=self.texts[pred],
                           arg_kinds=(kind, kind), kind="i1")

    def parse_conversion(self, op: str, result: str, at: int) -> Instruction:
        from_kind = self.parse_value_kind(context=op)
        if from_kind == "addr":
            self.unsupported(f"{op} over pointers is outside the subset", at)
        x = self.parse_operand(from_kind, context=op)
        self.expect("keyword", "to")
        to_width = self.parse_int_width(context=op)
        if self.at("punct", "*"):
            self.unsupported(f"{op} to a pointer is outside the subset")
        from_width = width_of(from_kind)
        if op in ("zext", "sext") and not from_width < to_width:
            self.fail(f"{op} must widen (i{from_width} to i{to_width})", at)
        if op == "trunc" and not from_width > to_width:
            self.fail(f"trunc must narrow (i{from_width} to i{to_width})", at)
        self.skip_tail_annotations(at)
        return Instruction(op, result, (x,), width=from_width, to_width=to_width,
                           arg_kinds=(from_kind,), kind=f"i{to_width}")

    def parse_select(self, op: str, result: str, at: int) -> Instruction:
        ckind = self.parse_value_kind(context="select condition")
        if ckind != "i1":
            self.fail("select condition must be i1", at)
        cond = self.parse_operand("i1", context="select")
        self.expect("punct", ",")
        kind = self.parse_value_kind(context="select")
        if kind == "addr":
            self.unsupported("select over pointers is outside the subset", at)
        a = self.parse_operand(kind, context="select")
        self.expect("punct", ",")
        kind2 = self.parse_value_kind(context="select")
        if kind2 != kind:
            self.fail("select arms must share one type", at)
        b = self.parse_operand(kind, context="select")
        self.skip_tail_annotations(at)
        return Instruction("select", result, (cond, a, b), width=width_of(kind),
                           arg_kinds=("i1", kind, kind), kind=kind)

    def parse_gep(self, op: str, result: str, at: int) -> Instruction:
        self.skip_words(IGNORED_FLAGS)
        elem_width = self.parse_pointee(op, "getelementptr element type", "element", at)
        if elem_width == 1:
            self.unsupported("getelementptr over i1 elements is outside the subset", at)
        base = self.parse_address(op, "base", at)
        self.expect("punct", ",")
        idx_width = self.parse_int_width(context="getelementptr index")
        idx_kind = f"i{idx_width}"
        idx = self.parse_operand(idx_kind, context="getelementptr")
        if self.at("punct", ",") and self.peek(1) == "type":
            self.unsupported("getelementptr with more than one index is outside the subset", at)
        self.skip_tail_annotations(at)
        return Instruction("getelementptr", result, (base, idx), elem_width=elem_width,
                           idx_width=idx_width, arg_kinds=("addr", idx_kind), kind="addr")

    def parse_load(self, op: str, result: str, at: int) -> Instruction:
        self.skip_words(IGNORED_FLAGS)
        width = self.parse_pointee(op, "load", "value", at)
        if width == 1:
            self.unsupported("load of i1 is outside the subset", at)
        ptr = self.parse_address(op, "address", at)
        self.skip_tail_annotations(at)
        return Instruction("load", result, (ptr,), width=width, arg_kinds=("addr",),
                           kind=f"i{width}")

    def parse_store(self) -> Instruction:
        at = self.expect("keyword", "store")
        self.skip_words(IGNORED_FLAGS)
        width = self.parse_int_width(context="store")
        if width == 1:
            self.unsupported("store of i1 is outside the subset", at)
        kind = f"i{width}"
        value = self.parse_operand(kind, context="store")
        self.expect("punct", ",")
        w2 = self.parse_int_width(context="store pointer type")
        if w2 != width:
            self.fail("store value and pointer types disagree", at)
        self.expect("punct", "*")
        ptr = self.parse_address("store", "address", at)
        self.skip_tail_annotations(at)
        return Instruction("store", None, (value, ptr), width=width, arg_kinds=(kind, "addr"))

    def parse_alloca(self, op: str, result: str, at: int) -> Instruction:
        elem_width = self.parse_int_width(context="alloca")
        if elem_width == 1:
            self.unsupported("alloca of i1 is outside the subset", at)
        count: Operand = Const(1)
        if self.at("punct", ",") and self.peek(1) == "type":
            self.pos += 1
            cwidth = self.parse_int_width(context="alloca count")
            count = self.parse_operand(f"i{cwidth}", context="alloca count")
            if not isinstance(count, Const):
                self.unsupported("alloca with a non-constant count is outside the subset", at)
        self.skip_tail_annotations(at)
        return Instruction("alloca", result, (count,), elem_width=elem_width, kind="addr")

    def parse_phi(self, op: str, result: str, at: int) -> Phi:
        kind = self.parse_value_kind(context="phi")
        incomings: list[tuple[Operand, int]] = []
        while True:
            self.expect("punct", "[")
            value = self.parse_operand(kind, context="phi")
            self.expect("punct", ",")
            pred = self.expect("local")
            self.expect("punct", "]")
            incomings.append((value, pred))
            self.phi_labels.append((self.label, pred))
            if self.at("punct", ","):
                self.pos += 1
                continue
            break
        if len(incomings) < 2:
            self.fail("phi needs at least two incoming edges", at)
        first: dict[str, Operand] = {}
        for value, pred in incomings:
            if first.setdefault(self.texts[pred], value) != value:
                self.fail(f"phi lists predecessor %{self.texts[pred]} twice with different "
                          "values", pred)
        return Phi(result, kind, tuple((value, self.texts[pred]) for value, pred in incomings))

    def parse_call(self, op: str, result: str | None, at: int) -> Instruction:
        self.skip_words(IGNORED_FLAGS)
        self.skip_words(ATTRIBUTE_WORDS)
        if self.at("keyword", "void"):
            self.unsupported("calls to void functions are outside the subset")
        width = self.parse_int_width(context="call return type")
        if self.at("punct", "*"):
            self.unsupported("calls returning pointers are outside the subset")
        if self.at("punct", "("):  # full function-type spelling: iN (args)* @f
            depth = 0
            while True:
                i = self.next()
                if self.kinds[i] == "punct" and self.texts[i] == "(":
                    depth += 1
                elif self.kinds[i] == "punct" and self.texts[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
            if self.at("punct", "*"):
                self.pos += 1
        callee = self.expect_text("global")
        self.expect("punct", "(")
        args: list[Operand] = []
        arg_kinds: list[str] = []
        if not self.at("punct", ")"):
            while True:
                kind = self.parse_value_kind(context=f"call of @{callee}")
                self.skip_words(ATTRIBUTE_WORDS)
                args.append(self.parse_operand(kind, context=f"call of @{callee}"))
                arg_kinds.append(kind)
                if self.at("punct", ","):
                    self.pos += 1
                    continue
                break
        self.expect("punct", ")")
        while self.at("metadata"):
            self.pos += 1
        self.skip_tail_annotations(at)
        return Instruction("call", result, tuple(args), width=width, callee=callee,
                           arg_kinds=tuple(arg_kinds),
                           kind=None if result is None else f"i{width}")

    def parse_br(self) -> Br:
        at = self.expect("keyword", "br")
        if self.at("keyword", "label"):
            self.pos += 1
            target = self.expect_text("local")
            self._reject_extra_br_operand(at)
            return Br(None, (target,))
        width = self.parse_int_width(context="br condition")
        if width != 1:
            self.fail("br condition must be i1", at)
        cond = self.parse_operand("i1", context="br")
        self.expect("punct", ",")
        self.expect("keyword", "label")
        if_true = self.expect_text("local")
        self.expect("punct", ",")
        self.expect("keyword", "label")
        if_false = self.expect_text("local")
        self._reject_extra_br_operand(at)
        return Br(cond, (if_true, if_false))

    def _reject_extra_br_operand(self, at: int):
        if self.at("punct", ",") and self.keyword_in(self.pos + 1, ("label",)):
            raise ParseError("br takes one or three operands", *self.tokens.position(self.pos + 1))
        self.skip_tail_annotations(at)

    def parse_ret(self) -> Ret:
        at = self.expect("keyword", "ret")
        if self.at("keyword", "void"):
            self.unsupported("ret void is outside the subset")
        width = self.parse_int_width(context="ret")
        if self.at("punct", "*"):
            self.unsupported("returning a pointer is outside the subset")
        value = self.parse_operand(f"i{width}", context="ret")
        self.skip_tail_annotations(at)
        return Ret(width, value)


_RHS_PARSERS = {
    **dict.fromkeys(BINOPS, _Parser.parse_binop),
    **dict.fromkeys(("zext", "sext", "trunc"), _Parser.parse_conversion),
    "icmp": _Parser.parse_icmp, "select": _Parser.parse_select,
    "getelementptr": _Parser.parse_gep, "load": _Parser.parse_load,
    "alloca": _Parser.parse_alloca, "phi": _Parser.parse_phi, "call": _Parser.parse_call,
}


# ---------------------------------------------------------------------------
# Module/function validation
# ---------------------------------------------------------------------------

def _first_repeated(names: list[str]) -> str | None:
    """The first name in names that occurs more than once, None if none
    does: in [a, b, b, a] that is a, not b."""
    counts = Counter(names)
    if len(counts) == len(names):
        return None
    return next(name for name in names if counts[name] > 1)


def _validate_function(fn: LlvmFunction):
    seen: dict[str, str] = {}
    for name, _ in fn.params:
        if name in seen:
            raise ParseError(f"@{fn.name}: parameter %{name} repeated")
        seen[name] = "param"
    dup = _first_repeated([b.label for b in fn.blocks])
    if dup is not None:
        raise ParseError(f"@{fn.name}: block label {dup} repeated")
    for block in fn.blocks:
        for phi in block.phis:
            if phi.result in seen:
                raise ParseError(
                    f"@{fn.name}: register %{phi.result} assigned more than once (SSA)")
            seen[phi.result] = "phi"
        for inst in block.body:
            if inst.result is not None:
                if inst.result in seen:
                    raise ParseError(
                        f"@{fn.name}: register %{inst.result} assigned more than once (SSA)")
                seen[inst.result] = "inst"
    entry = fn.blocks[0].label
    for block in fn.blocks:
        if isinstance(block.terminator, Br) and entry in block.terminator.targets:
            raise ParseError(f"@{fn.name}: entry block may not have predecessors")
    # operand kinds must agree with each register's defining kind
    kinds = fn.kinds
    for block in fn.blocks:
        for inst in block.body:
            for op, want in zip(inst.operands, inst.arg_kinds):
                have = kinds.get(op.name) if isinstance(op, Reg) else None
                if have is not None and have != want:
                    raise ParseError(
                        f"@{fn.name}: %{op.name} is {have} but {inst.opcode} uses it as {want}")
        for phi in block.phis:
            for value, _ in phi.incomings:
                if isinstance(value, Reg):
                    have = kinds.get(value.name)
                    if have is not None and have != phi.kind:
                        raise ParseError(
                            f"@{fn.name}: %{value.name} is {have} but phi %{phi.result} "
                            f"uses it as {phi.kind}")
        term = block.terminator
        if isinstance(term, Ret):
            if term.width != fn.ret_width:
                raise ParseError(
                    f"@{fn.name}: ret i{term.width} disagrees with return type i{fn.ret_width}")
            if isinstance(term.value, Reg):
                have = kinds.get(term.value.name)
                if have is not None and have != f"i{term.width}":
                    raise ParseError(
                        f"@{fn.name}: ret uses %{term.value.name} as i{term.width}, "
                        f"defined as {have}")
        elif term.cond is not None and isinstance(term.cond, Reg):
            have = kinds.get(term.cond.name)
            if have is not None and have != "i1":
                raise ParseError(f"@{fn.name}: br condition %{term.cond.name} is {have}, not i1")


def _validate_module(module: LlvmModule):
    fn_names = {f.name for f in module.functions}
    for alias in module.aliases:
        if alias in fn_names:
            raise ParseError(f"@{alias} is both a function and an alias")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

@collector_paused()
def parse_module(tokens: Tokens) -> LlvmModule:
    return _Parser(tokens).parse_module()


def parse_text(source: str) -> LlvmModule:
    return parse_module(tokenize(source))


def parse_file(path: str) -> LlvmModule:
    return parse_text(read_utf8(path, lambda head, what: LexError(what, *_line_col(head, len(head)))))


def resolve_aliases(module: LlvmModule) -> LlvmModule:
    """Chase every alias to its defining function and rewrite call sites;
    afterwards the alias map is empty.  Cycles and dangling targets are
    rejected."""
    if not module.aliases:
        return module
    aliases, fn_names = module.aliases, {f.name for f in module.functions}
    resolved: dict[str, str] = {}
    for alias in aliases:
        # follow the chain to a function or to an alias resolved before,
        # then resolve every alias on the way: each is followed once
        target, chain = alias, set()
        while target in aliases and target not in resolved:
            if target in chain:
                raise ParseError(f"alias cycle through @{alias}")
            chain.add(target)
            target = aliases[target]
        target = resolved.get(target, target)
        if target not in fn_names:
            raise ParseError(f"alias @{alias} resolves to undefined global @{target}")
        resolved.update(dict.fromkeys(chain, target))

    def fix_inst(inst: Instruction) -> Instruction:
        if inst.opcode == "call" and inst.callee in resolved:
            return replace(inst, callee=resolved[inst.callee])
        return inst

    functions = tuple(
        LlvmFunction(f.name, f.ret_width, f.params, tuple(
            BasicBlock(b.label, b.phis, tuple(fix_inst(i) for i in b.body), b.terminator)
            for b in f.blocks))
        for f in module.functions)
    return LlvmModule(functions, {}, module.target_notes)


# ---------------------------------------------------------------------------
# Printer (canonical classic syntax; parse of the output reproduces the AST)
# ---------------------------------------------------------------------------

def _operand_text(op: Operand) -> str:
    return f"%{op.name}" if isinstance(op, Reg) else str(op.value)


def _kind_text(kind: str) -> str:
    return "i64*" if kind == "addr" else kind


def _instruction_text(inst: Instruction) -> str:
    ops = inst.operands
    if inst.opcode in BINOPS:
        return (f"%{inst.result} = {inst.opcode} i{inst.width} "
                f"{_operand_text(ops[0])}, {_operand_text(ops[1])}")
    if inst.opcode == "icmp":
        return (f"%{inst.result} = icmp {inst.pred} i{inst.width} "
                f"{_operand_text(ops[0])}, {_operand_text(ops[1])}")
    if inst.opcode in ("zext", "sext", "trunc"):
        return (f"%{inst.result} = {inst.opcode} i{inst.width} "
                f"{_operand_text(ops[0])} to i{inst.to_width}")
    if inst.opcode == "select":
        return (f"%{inst.result} = select i1 {_operand_text(ops[0])}, "
                f"i{inst.width} {_operand_text(ops[1])}, i{inst.width} {_operand_text(ops[2])}")
    if inst.opcode == "getelementptr":
        return (f"%{inst.result} = getelementptr i{inst.elem_width}* "
                f"{_operand_text(ops[0])}, i{inst.idx_width} {_operand_text(ops[1])}")
    if inst.opcode == "load":
        return f"%{inst.result} = load i{inst.width}* {_operand_text(ops[0])}"
    if inst.opcode == "store":
        return f"store i{inst.width} {_operand_text(ops[0])}, i{inst.width}* {_operand_text(ops[1])}"
    if inst.opcode == "alloca":
        count = ops[0]
        suffix = "" if isinstance(count, Const) and count.value == 1 else f", i32 {_operand_text(count)}"
        return f"%{inst.result} = alloca i{inst.elem_width}{suffix}"
    if inst.opcode == "call":
        args = ", ".join(f"{_kind_text(k)} {_operand_text(a)}"
                         for k, a in zip(inst.arg_kinds, ops))
        head = f"%{inst.result} = " if inst.result is not None else ""
        return f"{head}call i{inst.width} @{inst.callee}({args})"
    raise AssertionError(inst.opcode)


def function_to_text(fn: LlvmFunction) -> str:
    params = ", ".join(f"{_kind_text(kind)} %{name}" for name, kind in fn.params)
    lines = [f"define i{fn.ret_width} @{fn.name}({params}) {{"]
    for index, block in enumerate(fn.blocks):
        if index > 0:
            lines.append("")
            lines.append(f"{block.label}:")
        elif block.label != "0":
            lines.append(f"{block.label}:")
        for phi in block.phis:
            arms = ", ".join(f"[ {_operand_text(v)}, %{lbl} ]" for v, lbl in phi.incomings)
            lines.append(f"  %{phi.result} = phi {_kind_text(phi.kind)} {arms}")
        for inst in block.body:
            lines.append("  " + _instruction_text(inst))
        term = block.terminator
        if isinstance(term, Ret):
            lines.append(f"  ret i{term.width} {_operand_text(term.value)}")
        elif term.cond is None:
            lines.append(f"  br label %{term.targets[0]}")
        else:
            lines.append(f"  br i1 {_operand_text(term.cond)}, "
                         f"label %{term.targets[0]}, label %{term.targets[1]}")
    lines.append("}")
    return "\n".join(lines)


def module_to_text(module: LlvmModule) -> str:
    chunks = list(module.target_notes)
    for alias, target in module.aliases.items():
        chunks.append(f"@{alias} = alias @{target}")
    for fn in module.functions:
        chunks.append(function_to_text(fn))
    return "\n\n".join(chunks) + "\n"
