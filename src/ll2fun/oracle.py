"""List-level specification of the occurrences pipeline, used as a test
oracle against the translated program.

liftlist abstracts the in-memory array to a list of 64-bit words with the
same index/done arithmetic as the compiled loop (increment at 64 bits,
compare at 32); occurlist counts; occurrences_spec combines them.  The
equivalence checker runs the translated program and the spec side by side
and reports rather than raises on disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BudgetExhausted
from .evaluator import ProgramEvaluator
from .fun_ir import FunProgram
from .prims import bits
from .state import MachineState, rd_n, wr_n

DEFAULT_LIFT_BUDGET = 1 << 22


def liftlist(done: int, j: int, array: int, n: int, st: MachineState,
             budget: int | None = DEFAULT_LIFT_BUDGET) -> list[int]:
    """The words the loop would visit: empty once done=1, else the 8-byte
    word at array+8j followed by the lift at j+1.  The done bit is computed
    exactly like the loop's: increment j at 64 bits, compare its low 32 bits
    against n."""
    out: list[int] = []
    steps = 0
    while done != 1:
        if budget is not None and steps >= budget:
            raise BudgetExhausted(
                f"liftlist budget of {budget} exhausted (j={j}, n={n})")
        steps += 1
        ptr = array + j * 8
        out.append(rd_n(8, ptr, st.mem))
        j = bits(j + 1, 63, 0)
        done = 1 if bits(j, 31, 0) == n else 0
    return out


def occurlist(val: int, xs: list[int]) -> int:
    return sum(1 for x in xs if x == val)


def occurrences_spec(val: int, n: int, array: int, st: MachineState,
                     budget: int | None = DEFAULT_LIFT_BUDGET) -> int:
    if n == 0:
        return 0
    return bits(occurlist(val, liftlist(0, 0, array, n, st, budget)), 63, 0)


# ---------------------------------------------------------------------------
# Differential checking
# ---------------------------------------------------------------------------

@dataclass
class EquivReport:
    passed: bool
    val: int
    n: int
    array: int
    translated: int
    spec: int

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{status} val={self.val} n={self.n} array={self.array:#x} "
                f"translated={self.translated} spec={self.spec}")


def check_occurrences_equiv(program: FunProgram, val: int, n: int, array: int,
                            st: MachineState, *, entry: str = "occurrences",
                            budget: int | None = None,
                            checking: bool = False) -> EquivReport:
    """retval of the translated program vs the list-level specification."""
    return _equiv(ProgramEvaluator(program), val, n, array, st, entry=entry,
                  budget=budget, checking=checking)


def _equiv(ev: ProgramEvaluator, val: int, n: int, array: int, st: MachineState, *,
           entry: str, budget: int | None = None, checking: bool = False) -> EquivReport:
    translated = ev.run(entry, (val, n, array), st, checking=checking,
                        budget=budget).state.retval
    spec = occurrences_spec(val, n, array, st)
    return EquivReport(translated == spec, val, n, array, translated, spec)


@dataclass
class TrialSummary:
    trials: int
    failures: list[EquivReport]
    seed: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def report(self) -> str:
        lines = [r.line() for r in self.failures]
        status = "pass" if self.passed else "FAIL"
        lines.append(f"{status}: {self.trials} trials, "
                     f"{len(self.failures)} failures, seed {self.seed}")
        return "\n".join(lines)


def run_equiv_trials(program: FunProgram, trials: int, seed: int, *,
                     n_max: int = 64, entry: str = "occurrences") -> TrialSummary:
    """Randomized equivalence campaign: random n <= n_max, 64-bit val, array
    placement and contents.  Values are drawn from a small pool so that
    matches actually occur."""
    rng = random.Random(seed)
    ev = ProgramEvaluator(program)
    failures: list[EquivReport] = []
    for _ in range(trials):
        n = rng.randint(0, n_max)
        array = rng.randrange(0, (1 << 32) - 8 * max(n, 1), 8)
        pool = [rng.getrandbits(64) for _ in range(4)] + [0, 1]
        val = rng.choice(pool + [rng.getrandbits(64)])
        mem: dict[int, int] = {}
        for k in range(n):
            if rng.random() < 0.85:  # leave some slots at the zero default
                mem = wr_n(8, array + 8 * k, rng.choice(pool), mem)
        st = MachineState(retval=0, stack=0xFFFF0000, frame=0xFFFF0000, mem=mem)
        report = _equiv(ev, val, n, array, st, entry=entry)
        if not report.passed:
            failures.append(report)
    return TrialSummary(trials, failures, seed)
