"""Lines of the library that a test run never executes.

    python3 tools/linetrace.py [PYTEST_ARGS ...]

Starts a ``sys.settrace`` collector (and ``threading.settrace``, for the
tests' worker threads) before the library is imported, runs pytest in this
process with the given arguments (by default the whole ``tests`` directory,
quiet), and then prints, per module of ``src/coarsedouble``, each executable
line that never ran, followed by the totals.  A line is executable when a
code object compiled from the module lists it in ``co_lines``; an abstract
stub, a line that reads ``raise NotImplementedError``, is counted apart,
since it runs only when a subclass forgets a method.

Python 3.11 has no ``sys.monitoring``, so every traced line costs a Python
call: a full test run takes several times as long as an untraced one.  This
is a development aid, not a tier-1 step.  Standard library and pytest only.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "coarsedouble"
STUB = "raise NotImplementedError"


def executable_lines(path):
    """The line numbers that the code objects compiled from path list."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)  # None and 0 mark no line
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(argv):
    lib = str(LIB) + "/"
    seen = set()
    traced = {}  # code object -> whether its file is a library module

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        mine = traced.get(code)
        if mine is None:
            mine = traced[code] = code.co_filename.startswith(lib)
        return local if mine else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        import pytest
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = never = stubs = 0
    for path in sorted(LIB.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(n for n in lines if (str(path), n) not in seen)
        total += len(lines)
        never += len(missed)
        for n in missed:
            text = source[n - 1].strip()
            stubs += text == STUB
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
    print(f"{never} of {total} executable lines never ran: {stubs} abstract stubs "
          f"and {never - stubs} others (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
