"""Fail when the Tier-1 suite leaves a statement or a branch arm of ``src/polygevrey`` untaken.

Usage (from the repository root):

    python3 tests/data/unexecuted.py [pytest arguments]

Runs the test suite in this process under one ``sys.settrace`` tracer.  In
frames of ``src/polygevrey`` it turns on opcode events and records the lines
that run, the code objects that run and, after each conditional jump, the
instruction that runs next; frames of any other file are not traced.  Then it
prints ``path:line: source`` for every executable line of the package that no
test ran (docstrings skipped), and ``path:line: source  [arm: ...]`` for every
arm that no test took.  An arm is one edge of a conditional jump
(``POP_JUMP_*_IF_*``, ``JUMP_IF_*_OR_POP``, ``FOR_ITER``) in a code object
that ran: the edge to its target and the edge to the next instruction must
both have been traversed.  So an ``if`` with no ``else`` needs a test where
its test fails, a ternary both values, ``and``/``or`` and a chained
comparison each operand deciding the outcome, a ``for`` or ``while`` loop a
pass through its body and a normal exit.  Two jumps are not arms: the one
after ``CHECK_EXC_MATCH`` (an ``except`` clause that does not match) and the
one after ``WITH_EXCEPT_START`` (a ``with`` whose exit does not suppress).

Tests that run the program in a subprocess cover nothing here.  Hypothesis
draws from the fixed seed ``HYPOTHESIS_SEED``, so a line or an arm that only
some draws reach cannot make two runs disagree; pytest's own report is
printed only when a test fails, so two runs print the same lines.

The exit status is pytest's when a test fails, else 1 when a line or an arm
outside ``EXCEPTIONS`` is listed or an exception lists nothing, else 0.  CI
runs it on CPython 3.11, whose jump opcodes ``OUTCOMES`` names, so a
statement or an arm that no test reaches fails the build: give it a test, or
delete it and say why no caller reaches it.  Tracing makes the suite about
three to four times slower (one to one and a half minutes).
"""

import contextlib
import dis
import io
import linecache
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "polygevrey"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

HYPOTHESIS_SEED = 20250808

#: (module file, stripped source line, arm or None for the line itself) -> why no in-process test reaches it
EXCEPTIONS = {
    ("cli.py", 'if __name__ == "__main__":', '`__name__ == "__main__"` never true'):
        "the __main__ guard runs only when the module is the program (python -m polygevrey.cli)",
    ("cli.py", "raise SystemExit(main())", None):
        "the __main__ guard runs only when the module is the program (python -m polygevrey.cli)",
    ("transforms.py", "while stack:", "`stack` never false (jump 1 of 2)"):
        "a loop's entry test: the stack starts with the whole interval",
    ("transforms.py", "while b * (top + 2 + k) / (k + 1) > 0.125 * _EPS:",
     "`b * (top + 2 + k) / (k + 1) > 0.125 * _EPS` never false (jump 1 of 2)"):
        "a loop's entry test: at k = 0 it reads top + 2 > eps / 8, true for every top >= 0",
}

#: conditional jump opcode -> (the outcome that takes its target, the one that runs the next instruction)
OUTCOMES = {
    **dict.fromkeys(("POP_JUMP_FORWARD_IF_FALSE", "POP_JUMP_BACKWARD_IF_FALSE", "JUMP_IF_FALSE_OR_POP"),
                    ("false", "true")),
    **dict.fromkeys(("POP_JUMP_FORWARD_IF_TRUE", "POP_JUMP_BACKWARD_IF_TRUE", "JUMP_IF_TRUE_OR_POP"),
                    ("true", "false")),
    **dict.fromkeys(("POP_JUMP_FORWARD_IF_NONE", "POP_JUMP_BACKWARD_IF_NONE"), ("None", "other than None")),
    **dict.fromkeys(("POP_JUMP_FORWARD_IF_NOT_NONE", "POP_JUMP_BACKWARD_IF_NOT_NONE"),
                    ("other than None", "None")),
    "FOR_ITER": ("runs out", "runs its body"),
}
#: a jump right after one of these settles exception handling, not a branch of the source
SKIPPED_AFTER = ("CHECK_EXC_MATCH", "WITH_EXCEPT_START")


def conditional_jumps(code) -> dict[int, tuple[int, tuple]]:
    """offset -> (line, ((target, arm), (next offset, arm))) for each arm-bearing jump of ``code``.

    The offset is the one a trace event reports: that of the jump's ``EXTENDED_ARG``
    prefix when it has one, since the interpreter does not trace the jump after it.
    Each ``arm`` names the outcome that takes its edge, of the source span of the
    instruction before the jump (what the jump tests), or of the loop for a
    ``FOR_ITER``.  Where several jumps of ``code`` test one span (a chained
    comparison), the arm adds the jump's place among them.
    """
    found, before, start = [], None, None
    instructions = list(dis.get_instructions(code))
    for ins, after in zip(instructions, instructions[1:]):
        start = ins.offset if start is None else start
        if ins.opname == "EXTENDED_ARG":
            continue
        if ins.opname in OUTCOMES and before.opname not in SKIPPED_AFTER:
            span = None if ins.opname == "FOR_ITER" else before.positions
            found.append((start, ins.positions.lineno, span, (ins.argval, after.offset), OUTCOMES[ins.opname]))
        before, start = ins, None
    spans = [span for _, _, span, _, _ in found]
    jumps = {}
    for k, (start, line, span, dests, outcomes) in enumerate(found):
        subject, place = "the loop", ""
        if span is not None:
            subject = f"`{_source(code.co_filename, span)}`"
            if spans.count(span) > 1:
                place = f" (jump {spans[:k + 1].count(span)} of {spans.count(span)})"
        arms = (f"{subject} never {outcome}{place}" for outcome in outcomes)
        jumps[start] = (line, tuple(zip(dests, arms)))
    return jumps


def _source(file: str, span) -> str:
    """The source text of a ``dis.Positions`` span (its columns count UTF-8 bytes), on one line."""
    first, last, col, end_col = span
    lines = [linecache.getline(file, n).encode() for n in range(first, last + 1)]
    lines[-1] = lines[-1][:end_col]
    lines[0] = lines[0][col:]
    return " ".join(b" ".join(lines).decode().split())


class Recorder:
    """The tracer: lines, code objects and edges out of conditional jumps, in frames of files under ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.lines = set()  # (file, line) of each line event
        self.jumps = {}  # code -> conditional_jumps(code) for each code object that ran, None for one outside root
        self.edges = set()  # (code, jump offset, offset of the instruction that ran next)

    def __call__(self, frame, event, arg):
        """The global trace function: it sees each call and returns the local one for frames under ``root``."""
        code = frame.f_code
        if code not in self.jumps:
            self.jumps[code] = conditional_jumps(code) if code.co_filename.startswith(self.root) else None
        jumps = self.jumps[code]
        if jumps is None:
            return None
        frame.f_trace_opcodes = True
        file, lines, edges, last = code.co_filename, self.lines, self.edges, -1

        def local(frame, event, arg):
            nonlocal last
            if event == "opcode":
                if last in jumps:
                    edges.add((code, last, frame.f_lasti))
                last = frame.f_lasti
            elif event == "line":
                lines.add((file, frame.f_lineno))
            return local

        return local

    @contextlib.contextmanager
    def tracing(self):
        """Trace this thread (no test runs package code in another), then restore the previous tracer."""
        previous = sys.gettrace()
        sys.settrace(self)
        try:
            yield self
        finally:
            sys.settrace(previous)

    def untaken_arms(self) -> list[tuple[str, int, str]]:
        """(file, line, arm) of each edge of a conditional jump in a code object that ran that no run took."""
        return [(code.co_filename, line, arm)
                for code, jumps in self.jumps.items() if jumps is not None
                for offset, (line, edges) in jumps.items()
                for dest, arm in edges if (code, offset, dest) not in self.edges]


def unexecuted(lines: set) -> list[tuple[str, int, None]]:
    """(file, line, None) of each executable line of the package that is not in ``lines``."""
    ran = {(Path(name).resolve(), line) for name, line in lines}
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        # the executable lines of the file's code objects, less its docstrings
        for line in sorted(trace._find_executable_linenos(str(path))):
            if line > 0 and (path, line) not in ran:  # 3.11 reports some code objects' line as 0
                missed.append((str(path), line, None))
    return missed


def main(args: list[str]) -> int:
    recorder = Recorder(str(PACKAGE))
    argv = ["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}", str(ROOT / "tests"), *args]
    report = io.StringIO()  # pytest's report ends with its wall time: kept back unless a test fails
    with contextlib.redirect_stdout(report), recorder.tracing():
        status = int(pytest.main(argv))
    if status:
        print(report.getvalue())
    sources, listed, seen = {}, 0, set()
    entries = unexecuted(recorder.lines) + recorder.untaken_arms()
    for file, line, arm in sorted(entries, key=lambda e: (e[0], e[1], e[2] or "")):
        path = Path(file)
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        key = (path.name, text, arm)
        seen.add(key)
        reason = EXCEPTIONS.get(key)
        listed += reason is None
        print(f"{path.relative_to(ROOT)}:{line}: {text}" + (f"  [arm: {arm}]" if arm else "")
              + (f"  [excepted: {reason}]" if reason else ""))
    stale = sorted(set(EXCEPTIONS) - seen, key=str)
    for name, text, arm in stale:
        print(f"stale exception: {name}: {text}" + (f"  [arm: {arm}]" if arm else "") + ": nothing lists it")
    print(f"{listed} untaken statement line(s) and arm(s) outside the exceptions, {len(stale)} stale "
          f"exception(s); pytest exit status {status}")
    return status or int(listed + len(stale) > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
