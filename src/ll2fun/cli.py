"""Command line: translate .ll files, run translated programs, benchmark.

Exit codes (stable, also listed in the README):
    0   success
    10  malformed input (.ll or .fun)
    11  unsupported construct (recognizable LLVM outside the subset)
    12  analysis rejection (CFG / liveness / loop structure)
    13  runtime fault (bad address, signature violation, ...)
    14  step budget exhausted
    15  usage or I/O error
"""

from __future__ import annotations

import argparse
import sys
import time

from .collector import collector_paused
from .errors import (
    AnalysisError, BudgetExhausted, EvalFault, LexError, LoadError, ParseError,
    UnsupportedConstructError,
)
from .evaluator import ProgramEvaluator
from .fun_ir import emit_sexpr, load_program_file, translate_module
from .ll_parser import parse_file, resolve_aliases
from .prims import decimal
from .ssa import analysis_report, analyze_function
from .state import MachineState, changed_bytes, load_memory_image

EXIT_OK = 0
EXIT_PARSE = 10
EXIT_UNSUPPORTED = 11
EXIT_ANALYSIS = 12
EXIT_FAULT = 13
EXIT_BUDGET = 14
EXIT_USAGE = 15


def _natural(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:  # not a numeral, or past int()'s digit limit
        raise argparse.ArgumentTypeError(f"invalid number {text[:40]!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("expected a natural number")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive number")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to EXIT_USAGE; subcommand parsers
    inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ll2fun",
        description="Translate a subset of LLVM IR to a functional S-expression "
                    "form and execute it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("translate", help="translate a .ll file to a .fun program")
    p_tr.add_argument("input", help="input .ll path")
    p_tr.add_argument("--out", help="output path (default: input with .fun suffix)")
    p_tr.add_argument("--dump-analysis", action="store_true",
                      help="print the CFG/signature/loop report")

    def add_run_config(p):
        p.add_argument("program", help=".fun program path")
        p.add_argument("--entry", required=True, help="entry definition name")
        p.add_argument("--args", nargs="*", type=_natural, default=[],
                       metavar="N", help="entry arguments (decimal or 0x-hex naturals)")
        p.add_argument("--mem-image", help="memory image file applied to a fresh state")
        p.add_argument("--stack", type=_natural, default=0xFFFF0000,
                       help="initial stack pointer (default 0xffff0000)")
        p.add_argument("--frame", type=_natural, default=0xFFFF0000,
                       help="initial frame pointer (default 0xffff0000)")
        p.add_argument("--no-check", action="store_true",
                       help="disable dynamic signature checking")
        p.add_argument("--budget", type=_positive, default=None,
                       help="loop-iteration budget")

    p_run = sub.add_parser("run", help="run a translated program")
    add_run_config(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="log every definition entry/exit and the state diff")

    p_bench = sub.add_parser("bench", help="measure execution throughput")
    add_run_config(p_bench)
    p_bench.add_argument("--instr-per-iter", type=_positive, required=True,
                         help="source instructions per loop iteration")
    p_bench.add_argument("--repeat", type=_positive, default=1,
                         help="number of timed repetitions")
    return parser


def _initial_state(args) -> MachineState:
    mem = load_memory_image(args.mem_image) if args.mem_image else {}
    return MachineState(retval=0, stack=args.stack, frame=args.frame, mem=mem)


def cmd_translate(args) -> int:
    module = parse_file(args.input)
    if args.dump_analysis:
        with collector_paused():
            for fn in resolve_aliases(module).functions:
                print(analysis_report(analyze_function(fn)))
    program = translate_module(module)
    out_path = args.out or (args.input.removesuffix(".ll") + ".fun")
    text = emit_sexpr(program)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    blocks = sum(len(f.blocks) for f in module.functions)
    loops = sum(d.general_recursive for d in program.defs)
    print(f"wrote {out_path}: {len(program.defs)} definitions from "
          f"{len(module.functions)} function(s), {blocks} block(s), {loops} loop(s)")
    return EXIT_OK


def cmd_run(args) -> int:
    program = load_program_file(args.program)
    st = _initial_state(args)
    ev = ProgramEvaluator(program)
    result = ev.run(args.entry, tuple(args.args), st,
                    checking=not args.no_check, budget=args.budget,
                    trace=args.trace)
    print(decimal(result.state.retval))
    if args.trace:
        written = changed_bytes(st.mem, result.state.mem)
        print(f"# {result.iterations} loop iterations; "
              f"{len(written)} byte address(es) changed", file=sys.stderr)
        for name, count in sorted(result.per_while.items()):
            print(f"# while {name}: {count} iterations", file=sys.stderr)
        for a, old, new in written:
            print(f"# mem {a:#x}: {old:#x} -> {new:#x}", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    program = load_program_file(args.program)
    st = _initial_state(args)
    ev = ProgramEvaluator(program)
    best = None
    for rep in range(args.repeat):
        t0, cpu0 = time.perf_counter(), time.process_time()
        result = ev.run(args.entry, tuple(args.args), st,
                        checking=not args.no_check, budget=args.budget)
        elapsed = max(time.perf_counter() - t0, 1e-9)
        cpu = time.process_time() - cpu0
        rate = result.iterations * args.instr_per_iter / elapsed
        print(f"run {rep + 1}: {elapsed:.3f} s ({cpu:.4f} s CPU), {result.iterations} "
              f"iterations, {rate:,.0f} instructions/second")
        if best is None or rate > best[0]:
            best = (rate, elapsed, result.iterations, result.state.retval)
    rate, elapsed, iters, retval = best
    print(f"best: {rate:,.0f} instructions/second "
          f"({iters} x {args.instr_per_iter} instructions in {elapsed:.3f} s, "
          f"retval {decimal(retval)})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "translate":
            return cmd_translate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except UnsupportedConstructError as e:
        print(f"ll2fun: unsupported construct: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (LexError, ParseError, LoadError) as e:
        print(f"ll2fun: {e}", file=sys.stderr)
        return EXIT_PARSE
    except AnalysisError as e:
        print(f"ll2fun: analysis: {e}", file=sys.stderr)
        return EXIT_ANALYSIS
    except BudgetExhausted as e:
        print(f"ll2fun: {e}", file=sys.stderr)
        for name, count in sorted(e.counts.items()):
            print(f"ll2fun:   {name}: {count} iterations", file=sys.stderr)
        return EXIT_BUDGET
    except EvalFault as e:
        print(f"ll2fun: runtime fault: {e}", file=sys.stderr)
        return EXIT_FAULT
    except OSError as e:
        print(f"ll2fun: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
