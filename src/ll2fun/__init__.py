"""ll2fun: a translator from a subset of LLVM textual IR into a pure
functional S-expression form, with an executable evaluator over a
byte-addressable machine state and differential test oracles."""

from .errors import (
    AnalysisError, BudgetExhausted, EvalFault, LexError, Ll2FunError, LoadError,
    ParseError, SignatureViolation, UnsupportedConstructError,
)
from .ll_parser import (
    LlvmFunction, LlvmModule, module_to_text, parse_file, parse_module,
    parse_text, resolve_aliases, tokenize,
)
from .ssa import (
    BlockSignature, ControlFlowGraph, LoopInfo, analysis_report,
    analyze_function, build_cfg, compute_block_params, detect_loops,
    order_definitions,
)
from .fun_ir import (
    FunDef, FunProgram, emit_sexpr, load_program, load_program_file,
    translate_function, translate_module, validate_program,
)
from .state import (
    MachineState, Memory, begin_stack_frame, end_stack_frame, init_stack_frame,
    load_memory_image, loadbytes, make_state, parse_memory_image, rd_n,
    storebytes, update_retval, wr_n,
)
from .prims import PRIMS, bits
from .evaluator import ProgramEvaluator, eval_def
from .llvm_interp import interp_function
from .oracle import (
    check_occurrences_equiv, liftlist, occurlist, occurrences_spec,
    run_equiv_trials,
)

__version__ = "0.1.0"
