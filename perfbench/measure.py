"""Measurement rounds for one workload, untraced and traced.

A round runs every pipeline stage on a fresh evaluator: translate,
setup, unchecked execution, checked execution.  Every call is checked
against the oracle.  A stage whose call takes less than `BATCH_S` is
timed in `SAMPLES` batches of calls of at least `BATCH_S` each, so short
stages get more samples per round than long ones; every reported time is
the median of the samples over all rounds.

Times are corrected for contention.  On a shared machine the speed of
this process drifts by tens of percent over seconds, which no number of
rounds in one run averages out.  So every timed sample is bracketed by
`REFERENCE_LOOPS` runs of a fixed reference loop on each side, and the
sample is reported as `wall seconds * REFERENCE_S / reference loop
seconds`: the time the stage would take while the reference loop runs at
its uncontended speed.  The reference time is the median of the loops
run within the sample's own duration before and after it (see
`Contention.scale`), so a 3 s translation is corrected by the contention
of the seconds around it, a 50 ms batch by that of its neighbours.  The
plain wall-clock medians are printed beside the metrics.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import random
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from ll2fun import ll_parser, ssa, state

import pipeline
from spans import LAYERS, Span, Tracer
from workloads import Workload

MIN_ROUNDS = 3
BATCH_S = 0.05         # repeat calls shorter than this within a batch
SAMPLES = 4            # batches per round of a stage whose calls are short
REFERENCE_LOOPS = 3    # reference loops on each side of a timed sample
MIN_WINDOW_S = 0.02    # a sample's correction looks at least this far around it
MICRO_BATCHES = 5
MICRO_BATCH_S = 0.05
RD_N_SAMPLES = 2000
# The reference loop's uncontended time (its 5th percentile over 25 s) on
# the 2-vCPU Xeon VM this benchmark was tuned on.
REFERENCE_S = 0.0049
E2E_TIMES = ("translate_s", "setup_s", "exec_s", "exec_checked_s")
_COPIED = {a: a & 0xFF for a in range(0x10000, 0x10000 + 40_000)}


def reference_loop_seconds() -> float:
    """Wall time of a fixed mix of the work the code under test does:
    interpreter arithmetic, small-dict stores and tuple allocation, then
    whole copies of a memory-like dict (as `store_word` and `make_state`
    make).  Contention slows the two parts differently, and the stages
    mix them, so the correction needs both.  The collector is paused so
    that the loop times the machine, not the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[int, tuple[int, int]] = {}
        acc = 0
        for i in range(25_000):
            acc = (acc + i * 7) & 0xFFFF
            table[i & 1023] = (acc, i)
        for _ in range(6):
            dict(_COPIED)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Contention:
    """The reference loops run so far in this process, on one timeline."""

    def __init__(self):
        self.refs: list[tuple[float, float]] = []  # (midpoint, seconds)

    def _reference(self):
        for _ in range(REFERENCE_LOOPS):
            t = time.perf_counter()
            seconds = reference_loop_seconds()
            self.refs.append((t + seconds / 2, seconds))

    def timed(self, fn):
        """Run `fn` between reference loops; returns (its result, its
        (start, end) on the timeline)."""
        self._reference()
        t0 = time.perf_counter()
        value = fn()
        t1 = time.perf_counter()
        self._reference()
        return value, (t0, t1)

    def scale(self, interval: tuple[float, float]) -> float:
        """REFERENCE_S / the median reference loop within the interval's
        own length (at least MIN_WINDOW_S) before and after it.  Call it
        once the loops after the interval have run."""
        t0, t1 = interval
        d = max(t1 - t0, MIN_WINDOW_S)
        lo = bisect.bisect_left(self.refs, (t0 - d,))
        hi = bisect.bisect_right(self.refs, (t1 + d,))
        return REFERENCE_S / statistics.median(s for _, s in self.refs[lo:hi])


CONTENTION = Contention()


class Ops:
    """The run's operations, one per stage label, with the failures
    reported once each on stderr.

    Every call of a stage is checked, but the stage counts as one
    operation, which fails if any of its calls raised or mismatched.
    A run repeats stages for as long as `--seconds` lasts, so counting
    calls would make `attempted` and `failed` depend on the machine's
    speed; counted per stage they depend only on the program."""

    def __init__(self):
        self.labels: dict[str, bool] = {}     # stage label -> failed
        self.calls = 0
        self.failed_calls = 0
        self.wrong: Counter[str] = Counter()  # mismatched outputs per layer
        self._reported: set[str] = set()

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return sum(self.labels.values())

    @property
    def correct(self) -> bool:
        return sum(self.wrong.values()) == 0

    def attempt(self, label: str, layer: str, fn, check=None):
        """Run `fn` once; returns (value or None if it raised, wall seconds)."""
        self.calls += 1
        self.labels.setdefault(label, False)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as e:  # an operation boundary: count it and go on
            seconds = time.perf_counter() - t0
            self._fail(label, f"{type(e).__name__}: {e}")
            return None, seconds
        seconds = time.perf_counter() - t0
        bad = check(value) if check else []
        if bad:
            self.wrong[layer] += 1
            self._fail(label, "; ".join(bad))
        return value, seconds

    def _fail(self, label: str, message: str):
        self.failed_calls += 1
        self.labels[label] = True
        line = f"perfbench: {label} failed: {message}"
        if line not in self._reported:
            self._reported.add(line)
            print(line, file=sys.stderr)


class Determinism:
    """Every translation of a seed must emit the first one's text."""

    def __init__(self):
        self.text: str | None = None

    def check(self, tr: pipeline.Translation) -> list[str]:
        if self.text is None:
            self.text = tr.text
        return [] if tr.text == self.text else \
            ["translation is not byte-identical to the first one"]


@dataclass
class Sample:
    interval: tuple[float, float]  # of the batch on the Contention timeline
    wall: float                    # seconds per call

    @property
    def seconds(self) -> float:
        """Per call, corrected for contention."""
        return self.wall * CONTENTION.scale(self.interval)


@dataclass
class Round:
    samples: dict[str, list[Sample]] = field(default_factory=dict)  # per "<stage>_s"
    spans: dict[str, Span] = field(default_factory=dict)
    translation: pipeline.Translation | None = None
    evaluator: object = None
    state: object = None
    result: object = None


def one_round(w: Workload, ops: Ops, det: Determinism, tracer: Tracer | None = None,
              batch_s: float = BATCH_S, checked: bool = True,
              label: str = "") -> Round | None:
    """One pass through the pipeline; None if translate or setup never
    succeeded, so there is nothing to run.  `label` prefixes the stage
    names under which `ops` counts the operations."""
    gc.collect()
    r = Round()

    def stage(name: str, layer: str, fn, check=None, min_s: float = 0.0):
        def batch():
            with tracer.span(f"bench.{name}") if tracer else nullcontext() as span:
                value, total, calls = None, 0.0, 0
                while calls == 0 or total < min_s:
                    v, seconds = ops.attempt(label + name, layer, fn, check)
                    value = v if v is not None else value
                    total += seconds
                    calls += 1
            return value, total / calls, span

        samples, value = r.samples.setdefault(f"{name}_s", []), None
        while len(samples) < SAMPLES:
            (v, wall, r.spans[name]), interval = CONTENTION.timed(batch)
            value = v if v is not None else value
            samples.append(Sample(interval, wall))
            if wall >= min_s:  # one call filled the batch: the stage is long
                break
        return value

    r.translation = stage("translate", "fun_ir", lambda: pipeline.translate(w.ll_text),
                          det.check, batch_s)
    if r.translation is None:
        return None
    text = r.translation.text
    setup = stage("setup", "state", lambda: pipeline.setup(text, w), min_s=batch_s)
    if setup is None:
        return None
    r.evaluator, r.state = ev, st = setup

    def check(result):
        return pipeline.result_mismatches(w, result)

    r.result = stage("exec", "evaluator",
                     lambda: pipeline.execute(ev, w, st, False), check, batch_s)
    if checked:
        stage("exec_checked", "evaluator", lambda: pipeline.execute(ev, w, st, True),
              check, batch_s)
    return r


def check_references(w: Workload, r: Round, ops: Ops):
    ops.attempt("reference oracles", "bench",
                lambda: pipeline.reference_mismatches(w, r.translation.module, r.state),
                lambda bad: bad)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _rounds(w: Workload, ops: Ops, det: Determinism, seconds: float):
    """Yield each round, stripped of its outputs so that its state is freed
    before the next, until `seconds` have passed and at least MIN_ROUNDS
    ran (or twice `seconds`, whichever comes first)."""
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (count >= MIN_ROUNDS or elapsed >= 2 * seconds):
            return
        r = one_round(w, ops, det)
        if r is None:
            return
        if count == 0:
            check_references(w, r, ops)
        count += 1
        r = _stripped(r)
        yield r


def _stripped(r: Round) -> Round:
    """The round's times and spans without its outputs, so they can be freed."""
    return dataclasses.replace(r, translation=None, evaluator=None, state=None, result=None)


def _round_seconds(r: Round) -> float:
    """One pass through every stage: the sum of their mean samples."""
    return sum(statistics.fmean(s.seconds for s in samples) for samples in r.samples.values())


def _stage_scale(r: Round, stage: str) -> float:
    """The correction of the stage's last sample (its only one when traced)."""
    return CONTENTION.scale(r.samples[f"{stage}_s"][-1].interval)


def _median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no stage completed a single time")
    return statistics.median(values)


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)
# ---------------------------------------------------------------------------

def measure(w: Workload, seconds: float):
    """End-to-end metrics, plus the uncorrected wall-clock medians."""
    ops = Ops()
    rounds = list(_rounds(w, ops, Determinism(), seconds))
    metrics = {name: _median([s.seconds for r in rounds for s in r.samples[name]])
               for name in E2E_TIMES}
    wall = {name: _median([s.wall for r in rounds for s in r.samples[name]])
            for name in E2E_TIMES}
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["ok_ratio"] = (ops.attempted - ops.failed) / ops.attempted
    return metrics, wall, ops


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

class CallCounter:
    """A `trace_out` sink that counts definition entries ("-> name ...")."""

    def __init__(self):
        self.calls = 0

    def write(self, text: str):
        if text.startswith("-> "):
            self.calls += 1

    def flush(self):
        pass


def _per_call_us(call, args: list[tuple]) -> float:
    """Median over batches of the corrected mean cost of `call(*a)`, in
    microseconds; each batch runs through `args` until MICRO_BATCH_S."""
    def batch():
        calls, t0 = 0, time.perf_counter()
        while True:
            for a in args:
                call(*a)
            calls += len(args)
            elapsed = time.perf_counter() - t0
            if elapsed >= MICRO_BATCH_S:
                return elapsed / calls * 1e6

    samples = [Sample(interval, us) for us, interval in
               (CONTENTION.timed(batch) for _ in range(MICRO_BATCHES))]
    return statistics.median(s.seconds for s in samples)


def _ssa_passes(tracer: Tracer, module) -> tuple[dict[str, int], Span, tuple[float, float]]:
    """Each public ssa pass called on its own, as direct children of one
    span; returns the analysis counts, that span and its interval on the
    Contention timeline."""
    counts = {"ssa.blocks": 0, "ssa.loops": 0, "ssa.block_params": 0}

    def passes():
        with tracer.span("bench.ssa_passes") as span:
            for fn in module.functions:
                cfg = ssa.build_cfg(fn)
                ssa.compute_liveness(cfg, fn)
                signatures = ssa.compute_block_params(cfg, fn)
                loops = ssa.detect_loops(cfg, fn)
                ssa.order_definitions(cfg, fn, loops)
                counts["ssa.blocks"] += len(fn.blocks)
                counts["ssa.loops"] += len(loops)
                counts["ssa.block_params"] += sum(len(s.params) for s in signatures.values())
        return span

    span, interval = CONTENTION.timed(passes)
    return counts, span, interval


def measure_traced(w: Workload, half: Workload, seconds: float, seed: int):
    """Per-layer metrics from spans.  Untraced rounds fill a third of
    `seconds`; as many traced rounds follow, each with the ssa passes on
    their own and a half-size round for the doubling ratios.  Span times
    are corrected by the factor of the stage they ran in."""
    ops = Ops()
    det, half_det = Determinism(), Determinism()
    untraced = list(_rounds(w, ops, det, seconds / 3))

    tracer = Tracer()
    tracer.install()
    try:
        full, halves, ssa_runs = [], [], []
        last = None
        while len(full) < len(untraced):
            r = one_round(w, ops, det, tracer, batch_s=0)
            if r is None:
                break
            last = r
            full.append(_stripped(r))
            counts, span, interval = _ssa_passes(tracer, r.translation.module)
            ssa_runs.append((span, interval))
            h = one_round(half, ops, half_det, tracer, batch_s=0, checked=False,
                          label="half-size ")
            if h is not None:
                halves.append(_stripped(h))
            h = None
        if last is None or not halves:
            raise RuntimeError("the traced run completed no round")

        counter = CallCounter()
        last.evaluator.trace_out = counter
        ops.attempt("traced execution", "evaluator",
                    lambda: pipeline.execute_traced(last.evaluator, w, last.state),
                    lambda res: pipeline.result_mismatches(w, res))
    finally:
        tracer.uninstall()

    final = last.result.state if last.result is not None else last.state
    metrics = _layer_metrics(tracer, full, halves, ssa_runs)
    metrics.update(counts)
    metrics.update(_counts(w, last, final, counter))
    exec_s = metrics.pop("exec_s")
    iterations = metrics["evaluator.iterations"]
    metrics["evaluator.instr_per_s"] = metrics["evaluator.instr"] / exec_s
    metrics["evaluator.ns_per_iter"] = exec_s * 1e9 / max(iterations, 1)

    rng = random.Random(f"micro-{seed}")
    base, words = w.region
    addrs = [base + 8 * rng.randrange(words) for _ in range(RD_N_SAMPLES)]
    metrics["state.rd_n_us"] = _per_call_us(state.rd_n, [(8, a, final.mem) for a in addrs])
    metrics["state.store_word_us"] = _per_call_us(
        state.store_word, [(8, a, rng.getrandbits(64), final) for a in addrs[:8]])

    failed = tracer.failed_origins()
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = failed[layer] + ops.wrong[layer]
    overhead = statistics.median(map(_round_seconds, full)) - \
        statistics.median(map(_round_seconds, untraced))
    return metrics, ops, tracer, overhead


def _layer_metrics(tracer: Tracer, full: list[Round], half: list[Round],
                   ssa_runs: list[tuple[Span, tuple[float, float]]]) -> dict[str, float]:
    """Medians over rounds of corrected span times."""
    t = tracer

    def med(fn, rounds=full):
        return statistics.median(fn(r) for r in rounds)

    def total(stage: str, name: str):
        return lambda r: t.total(r.spans[stage], name) * _stage_scale(r, stage)

    def translate_self(r: Round) -> float:
        return _stage_scale(r, "translate") * sum(
            t.self_seconds(s, "ssa")
            for s in t.find(r.spans["translate"], "fun_ir.translate_module"))

    translate = med(total("translate", "fun_ir.translate_module"))
    image = med(total("setup", "state.parse_memory_image"))
    exec_s = med(total("exec", "evaluator.run"))
    out = {
        "ll_parser.tokenize_s": med(total("translate", "ll_parser.tokenize")),
        "ll_parser.parse_s": med(total("translate", "ll_parser.parse_module")),
        "fun_ir.translate_s": translate,
        "fun_ir.translate_self_s": med(translate_self),
        "fun_ir.emit_s": med(total("translate", "fun_ir.emit_sexpr")),
        "fun_ir.translate_doubling":
            translate / med(total("translate", "fun_ir.translate_module"), half),
        "fun_ir.load_s": med(total("setup", "fun_ir.load_program")),
        "fun_ir.validate_s": med(total("setup", "fun_ir.validate_program")),
        "evaluator.codegen_s": med(total("setup", "evaluator.codegen")),
        "evaluator.check_ratio": med(total("exec_checked", "evaluator.run")) / exec_s,
        "state.exec_doubling": exec_s / med(total("exec", "evaluator.run"), half),
        "state.image_s": image,
        "state.image_doubling": image / med(total("setup", "state.parse_memory_image"), half),
        "exec_s": exec_s,
    }
    for metric, name in (("ssa.cfg_s", "ssa.build_cfg"),
                         ("ssa.liveness_s", "ssa.compute_liveness"),
                         ("ssa.block_params_s", "ssa.compute_block_params"),
                         ("ssa.loops_s", "ssa.detect_loops"),
                         ("ssa.order_s", "ssa.order_definitions")):
        out[metric] = statistics.median(
            t.total(span, name, direct=True) * CONTENTION.scale(interval)
            for span, interval in ssa_runs)
    return out


def _counts(w: Workload, r: Round, final, counter: CallCounter) -> dict[str, float]:
    module = r.translation.module
    iterations = r.result.iterations if r.result is not None else 0
    return {
        "ll_parser.tokens": len(ll_parser.tokenize(w.ll_text)),
        "ll_parser.instructions": sum(len(b.phis) + len(b.body) + 1
                                      for fn in module.functions for b in fn.blocks),
        "fun_ir.defs": len(r.translation.program.defs),
        "fun_ir.fun_bytes": len(r.translation.text.encode()),
        "evaluator.source_bytes": len(r.evaluator.source.encode()),
        "evaluator.iterations": iterations,
        "evaluator.def_calls": counter.calls,
        "evaluator.instr": pipeline.instructions_per_iteration(module) * iterations,
        "state.image_lines": sum(1 for line in w.image_text.splitlines() if line.strip()),
        "state.mem_bytes_in": len(r.state.mem),
        "state.mem_bytes_out": len(final.mem),
    }
