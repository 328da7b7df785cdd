"""The single-threaded state discipline: the loader admits only programs
that thread the state linearly and use every value at its sort, and a run
stores into memory it owns, in place, without touching the caller's
states."""

import pathlib
import random
import sys
import time
from dataclasses import replace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from llgen import gen_program  # noqa: E402

from ll2fun import (  # noqa: E402
    BudgetExhausted, EvalFault, LoadError, emit_sexpr, load_program, make_state,
    parse_file, parse_text, rd_n, translate_module, wr_n,
)
from ll2fun import state as st_mod  # noqa: E402
from ll2fun.evaluator import ProgramEvaluator  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# p[j & mask] = j + 1 for j in [0, n); returns the sum of the stored values.
FILL_LL = """\
define i64 @fill(i64* %p, i32 %n, i64 %mask) {
  %g = icmp eq i32 %n, 0
  br i1 %g, label %done, label %loop

loop:
  %j = phi i64 [ %j.next, %loop ], [ 0, %0 ]
  %acc = phi i64 [ %acc.next, %loop ], [ 0, %0 ]
  %k = and i64 %j, %mask
  %slot = getelementptr inbounds i64* %p, i64 %k
  %j.next = add i64 %j, 1
  store i64 %j.next, i64* %slot, align 8
  %acc.next = add i64 %acc, %j.next
  %j.32 = trunc i64 %j.next to i32
  %exit = icmp eq i32 %j.32, %n
  br i1 %exit, label %done, label %loop

done:
  %sum = phi i64 [ 0, %0 ], [ %acc.next, %loop ]
  ret i64 %sum
}
"""
ALL = (1 << 64) - 1
BASE = 0x10000


@pytest.fixture(scope="module")
def fill():
    return ProgramEvaluator(translate_module(parse_text(FILL_LL)))


def _preset(words: int) -> dict[int, int]:
    rng = random.Random(words)
    return {BASE + 8 * j + k: rng.randrange(1, 256) for j in range(words) for k in (0, 3)}


def _snapshot(st):
    return replace(st, mem=dict(st.mem)), st.mem


def _assert_unchanged(st, snapshot):
    copy, mem = snapshot
    assert st.mem is mem
    assert st == copy


def _released(ev: ProgramEvaluator) -> bool:
    """The namespace of `ev` no longer holds the memory of a run."""
    return ev._ns["_memory"].mem is None


# ---------------------------------------------------------------------------
# Runs never change the caller's states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("checking", [False, True])
def test_input_state_unchanged_after_success(fill, checking):
    st = make_state(mem=_preset(80))
    snapshot = _snapshot(st)
    result = fill.run("fill", (BASE, 64, ALL), st, checking=checking)
    _assert_unchanged(st, snapshot)
    assert result.state.mem is not st.mem
    want = st.mem
    for j in range(64):
        want = wr_n(8, BASE + 8 * j, j + 1, want)
    assert result.state.mem == want
    assert result.state.retval == 64 * 65 // 2
    assert _released(fill)


def test_input_state_unchanged_after_fault_mid_loop(fill):
    # stores j = 0..9 fit below 2^32; the eleventh crosses it
    p = (1 << 32) - 8 * 10 - 4
    st = make_state(mem={p: 7, p + 8: 9})
    snapshot = _snapshot(st)
    with pytest.raises(EvalFault, match="exceeds 32-bit memory"):
        fill.run("fill", (p, 100, ALL), st, checking=False)
    _assert_unchanged(st, snapshot)
    assert _released(fill)


def test_input_state_unchanged_after_budget_exhaustion(fill):
    st = make_state(mem=_preset(120))
    snapshot = _snapshot(st)
    with pytest.raises(BudgetExhausted):
        fill.run("fill", (BASE, 100, ALL), st, checking=False, budget=50)
    _assert_unchanged(st, snapshot)
    assert _released(fill)


def test_second_run_leaves_first_result_unchanged(fill):
    st = make_state(mem=_preset(40))
    first = fill.run("fill", (BASE, 32, ALL), st, checking=False).state
    snapshot = _snapshot(first)
    second = fill.run("fill", (BASE + 8, 32, ALL), first, checking=False).state
    _assert_unchanged(first, snapshot)
    assert second.mem is not first.mem
    assert rd_n(8, BASE, second.mem) == 1 and rd_n(8, BASE + 8, second.mem) == 1
    assert rd_n(8, BASE + 8, first.mem) == 2


def test_run_without_stores_copies_nothing():
    program = load_program("""(defun peek (a st)
  (declare (xargs :signature ((addr_p stp) stp)))
  (update-retval (wfrombytes 8 (loadbytes 8 a st)) st))
""")
    st = make_state(mem={0x100: 5})
    final = ProgramEvaluator(program).run("peek", (0x100,), st).state
    assert final.retval == 5 and final.mem is st.mem


def test_run_copies_only_the_pages_it_stores_to(fill):
    """A run that stores into one page of a four-page memory copies that
    page and no other: the final memory shares every other page with the
    caller's, whose pages keep their bytes."""
    pages = [BASE + k * st_mod.PAGE_SIZE for k in range(4)]
    st = make_state(mem={p + 8 * j + 1: (j + k) % 255 + 1 for k, p in enumerate(pages)
                         for j in range(16)})
    snapshot = _snapshot(st)
    before = {p: (id(page), bytes(page)) for p, page in st.mem.pages.items()}
    final = fill.run("fill", (pages[2] + 64, 32, ALL), st, checking=False).state
    _assert_unchanged(st, snapshot)
    assert {p: (id(page), bytes(page)) for p, page in st.mem.pages.items()} == before
    stored = pages[2] >> st_mod.PAGE_BITS
    assert final.mem is not st.mem and final.mem.pages.keys() == st.mem.pages.keys()
    assert [p for p, page in final.mem.pages.items() if page is not st.mem.pages[p]] == [stored]
    assert all(rd_n(8, pages[2] + 64 + 8 * j, final.mem) == j + 1 for j in range(32))


COPY_FUN = """(defun copy (a b c st)
  (declare (xargs :signature ((addr_p addr_p addr_p stp) stp)))
  (let* ((st (storebytes 8 b (loadbytes 8 a st) st))
         (st (storebytes 4 c (loadbytes 4 b st) st))
         (st (storebytes 8 a (loadbytes 8 c st) st)))
    st))
"""


def test_plain_storebytes_of_loadbytes_stores_in_place(monkeypatch):
    """Without the fused form, storebytes of a loaded run writes every
    store of the run into one dict, the run's own, and agrees with
    folding the copying wr_n."""
    ev = ProgramEvaluator(load_program(COPY_FUN))
    assert "_storebytes(" in ev.source and "_store_word(" not in ev.source
    written = []
    original = st_mod._write_in_place

    def recording(n, addr, value, mem):
        written.append(id(mem))
        return original(n, addr, value, mem)

    rng = random.Random(11)
    for _ in range(30):
        mem = {a: rng.randrange(1, 256) for a in range(0x100, 0x120) if rng.random() < 0.7}
        a, b, c = (rng.randrange(0x100, 0x118) for _ in range(3))
        st = make_state(mem=mem)
        snapshot = _snapshot(st)
        want = wr_n(8, b, rd_n(8, a, mem), mem)
        want = wr_n(4, c, rd_n(4, b, want), want)
        want = wr_n(8, a, rd_n(8, c, want), want)
        written.clear()
        with monkeypatch.context() as m:
            m.setattr(st_mod, "_write_in_place", recording)
            final = ev.run("copy", (a, b, c), st, checking=False).state
        assert written == [id(final.mem)] * 3
        assert final.mem == want
        _assert_unchanged(st, snapshot)


def test_run_memory_offers_its_own_pages_only_to_its_own_states():
    """`RunMemory.owned` gives a compiled loop the pages it may write in
    place: none before the run's first store, the run memory's own pages
    to a state that holds it, and none to a state of another memory (an
    image's memory owns its pages too), once the run memory's bytes are
    counted, or in a traced run."""
    run = st_mod.RunMemory()
    st = make_state(mem=st_mod.parse_memory_image("w 8 0x1000 5"))
    assert st.mem._own and run.owned(st) == {}
    after = run.store_word(8, 0x1008, 7, st)
    assert run.owned(after) is after.mem._own and list(after.mem._own) == [1]
    assert run.owned(st) == {}
    run.traced = True
    assert run.owned(after) == {}
    run.traced = False
    assert len(after.mem) == 2 and run.owned(after) == {}


# ---------------------------------------------------------------------------
# Cost: O(bytes stored)
# ---------------------------------------------------------------------------

def test_million_stores_under_ten_seconds(fill):
    n = 1_000_000
    t0 = time.perf_counter()
    result = fill.run("fill", (BASE, n, 511), make_state(), checking=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    assert result.state.retval == n * (n + 1) // 2
    for j in range(n - 512, n):
        assert rd_n(8, BASE + 8 * (j & 511), result.state.mem) == j + 1


# ---------------------------------------------------------------------------
# The loader's linearity and sort checks
# ---------------------------------------------------------------------------

def _def(body: str, params: str = "a", kinds: str = "addr_p") -> str:
    return f"""(defun g (x st)
  (declare (xargs :signature ((natp stp) natp stp)))
  (mvlist x st))

(defun f ({params} st)
  (declare (xargs :signature (({kinds} stp) stp)))
  {body})
"""


STORE = "(storebytes 8 a (wtobytes 8 1) st)"

REJECTED = {
    "aliasing st": (
        f"(let* ((old st) (st {STORE})) "
        "(update-retval (wfrombytes 8 (loadbytes 8 a old)) st))", "old is bound to a state"),
    "aliasing through metlist": (
        "(metlist ((v s2) (g a st)) s2)", "s2 is bound to a state"),
    "two consuming uses": (
        f"(update-retval (retval {STORE}) st)", "used after"),
    "consume then consume in one argument list": (
        "(storebytes 8 a (loadbytes 8 a (alloca 8 st)) st)", "used after"),
    "read after the consuming argument": (
        f"(let* ((x (retval {STORE})) (y (wfrombytes 8 (loadbytes 8 a st)))) "
        "(update-retval y st))", "used after"),
    "consumed in one arm, used after the if": (
        f"(let* ((x (if (= a 0) (retval {STORE}) 0))) (update-retval x st))", "used after"),
    "byte run where a natural is wanted": (
        "(update-retval (wfrombytes 8 a) st)", "must be a byte run, got a natural"),
    "state where a natural is wanted": (
        "(update-retval (+ st 1) st)", "must be a natural, got a state"),
    "state as an if condition": (
        "(if st st st)", "must be a natural, got a state"),
    "st bound to a natural": ("(let* ((st 5)) st)", "st is bound to a natural"),
    "natural returned as the state": ("a", "body yields"),
    "arms of different sorts": (
        "(update-retval (if (= a 0) 1 (loadbytes 8 a st)) st)", "different sorts"),
    "state passed for a natural parameter": (
        "(metlist ((v st) (g st st)) st)", "argument 1 of g must be a natural"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_loader_rejects_nonlinear_or_ill_sorted(case):
    body, message = REJECTED[case]
    with pytest.raises(LoadError, match=message):
        load_program(_def(body))


ACCEPTED = [
    # reads before the consuming argument, left to right
    "(update-retval (wfrombytes 8 (loadbytes 8 a st)) st)",
    f"(storebytes 8 (stack st) (loadbytes 8 a st) {STORE})",
    # the arms of an if are checked separately
    f"(if (= a 0) {STORE} (alloca 8 st))",
    f"(let* ((st (if (= (retval st) 0) {STORE} st))) (update-retval (retval st) st))",
    # a binding of st starts a fresh state
    f"(let* ((st {STORE}) (v (wfrombytes 8 (loadbytes 8 a st))) (st {STORE})) "
    "(update-retval v st))",
    "(metlist ((v st) (g a st)) (update-retval v st))",
    # byte runs may be bound to names
    f"(let* ((r (loadbytes 8 a st)) (st {STORE})) (storebytes 8 a r st))",
]


@pytest.mark.parametrize("body", ACCEPTED)
def test_loader_accepts_linear_programs(body):
    load_program(_def(body))


def test_translated_programs_pass_the_checks():
    modules = [parse_file(str(FIXTURES / name)) for name in ("occurrences.ll", "nestsum.ll")]
    rng = random.Random(0x11E4)
    modules += [parse_text(gen_program(rng)) for _ in range(300)]
    for module in modules:
        text = emit_sexpr(translate_module(module))
        assert emit_sexpr(load_program(text)) == text
