"""Lines of the library that a test run, or the benchmark's traffic, never
executes.

    python3 tools/linetrace.py [PYTEST_ARGS ...]
    python3 tools/linetrace.py --traffic

Starts a ``sys.settrace`` collector (and ``threading.settrace``, for the
tests' worker threads) before the library is imported, runs pytest in this
process with the given arguments (by default the whole ``tests`` directory,
quiet), and then prints, per module of ``src/coarsedouble``, each executable
line that never ran and the module's count, followed by the totals.  A line
is executable when a code object compiled from the module lists it in
``co_lines``; an abstract stub, a line that reads ``raise
NotImplementedError``, is counted apart, since it runs only when a subclass
forgets a method.

Under pytest every other line is expected to run.  The few that may stay
never-run are listed in ``KEEP`` below, keyed by module and stripped line
text, each with the reason it stays; a listed line is printed with its
reason.  The exit status is pytest's when the tests fail, else 1 when a
line that is neither a stub nor listed never ran, else 0.

With ``--traffic`` the same collector runs the benchmark's traffic in place
of pytest: ``bench/workloads.py``, imported and not changed, builds each
workload on each seed of ``SEEDS`` (1 and the held-out 7955) and runs and
checks one round of it, as ``bench/run.py`` checks its reference round.  The
lines it never runs are the ones no workload needs, which a change that
deletes a path can cite.  The exit status is 1 when an answer fails its
check, else 0, however many lines never ran.

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

# (module, stripped line text) -> why the line may stay never-run
KEEP = {
}
# the benchmark's default seed and its held-out seed
SEEDS = (1, 7955)


def executable_lines(path):
    """The line numbers that the code objects compiled from path list."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)  # None and 0 mark no line
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def traffic():
    """One checked round of each benchmark workload on each seed of SEEDS,
    construction included; the number of answers that fail their check."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    wrong = 0
    for seed in SEEDS:
        for name, make in workloads.WORKLOADS.items():
            workload = make(seed)
            answers = [workload.run(q) for q in workload.deck]
            bad = sum(reason is not None for reason in workload.check(answers))
            print(f"{name} seed {seed}: {len(answers)} queries, {bad} failed their check")
            wrong += bad
    return wrong


def main(argv):
    on_traffic = argv == ["--traffic"]
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
        if on_traffic:
            status = min(traffic(), 1)
        else:
            import pytest
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = never = stubs = kept = 0
    for path in sorted(LIB.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(n for n in lines if (str(path), n) not in seen)
        total += len(lines)
        never += len(missed)
        for n in missed:
            text = source[n - 1].strip()
            reason = KEEP.get((path.name, text))
            stubs += text == STUB
            kept += reason is not None
            note = f"  [kept: {reason}]" if reason else ""
            print(f"{path.relative_to(ROOT)}:{n}: {text}{note}")
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} never ran")
    others = never - stubs
    run_by = "traffic" if on_traffic else "pytest"
    print(f"{never} of {total} executable lines never ran: {stubs} abstract stubs "
          f"and {others} others, {kept} of them kept ({run_by} exit status {int(status)})")
    if status or on_traffic:
        return int(status)
    return 1 if others > kept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
