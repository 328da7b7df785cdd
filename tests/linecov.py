"""List the lines of src/ that tier 1 never runs.

    PYTHONPATH=src python tests/linecov.py [extra pytest args]

A stdlib line tracer (sys.settrace), not a gate: it runs the tier-1 suite
in process, minus the acceptance file, and prints each executable line of
src/ll2fun that no test ran, as file:line and the line's text.  The CLI
subprocesses the tests start are traced too: a temporary `sitecustomize`
on PYTHONPATH starts the same tracer in each of them and writes its hits to
a temporary directory when the process exits.  A line counts as executable
when some code object compiled from the file maps an instruction to it.
The file's name does not start with `test_`, so pytest does not collect it.

A thread that hits the host recursion limit loses its tracer (the
interpreter drops a trace function that raises, and calling it raises
there too), so what that thread runs afterwards goes unseen.
"""

import atexit
import os
import pathlib
import shutil
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ll2fun"

# The tracer itself, one module, imported by this process and by each
# subprocess's sitecustomize.  It records (file, line) for every line event
# and every call event in a frame whose code comes from SRC.
TRACER = '''\
import atexit
import os
import sys
import threading

_SRC = os.environ["LINECOV_SRC"]
_OUT = os.environ["LINECOV_OUT"]
hits = set()


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, "%d.hits" % os.getpid()), "w") as f:
        f.writelines("%s\\t%d\\n" % hit for hit in hits)


sys.settrace(_global)
threading.settrace(_global)
atexit.register(dump)
'''


def executable_lines(path: pathlib.Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="linecov-"))
    out = tmp / "hits"
    out.mkdir()
    (tmp / "_linecov_trace.py").write_text(TRACER)
    (tmp / "sitecustomize.py").write_text("import _linecov_trace\n")
    os.environ["LINECOV_SRC"] = str(SRC)
    os.environ["LINECOV_OUT"] = str(out)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(tmp), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    sys.path[:0] = [str(tmp), str(ROOT / "src")]

    try:
        import _linecov_trace  # starts tracing this process
        import pytest
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                     "--ignore", str(ROOT / "tests" / "test_acceptance.py"),
                     *argv])
        _linecov_trace.dump()
        atexit.unregister(_linecov_trace.dump)
        hits = set()
        for f in out.iterdir():
            for row in f.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                hits.add((name, int(line)))
    finally:
        shutil.rmtree(tmp)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        missed = sorted(executable_lines(path)
                        - {line for name, line in hits if name == str(path)})
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{total} unreached lines in {SRC.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
