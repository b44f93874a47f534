"""Fail when the Tier-1 suite leaves a statement of ``src/polygevrey`` unexecuted.

Usage (from the repository root):

    python3 tests/data/unexecuted.py [pytest arguments]

Runs the test suite in this process under the standard library's ``trace``
module, then prints ``path:line: source`` for every executable line of
``src/polygevrey`` that no test ran, docstrings skipped, and a count.  Tests
that run the program in a subprocess cover nothing here.  Hypothesis draws
from the fixed seed ``HYPOTHESIS_SEED``, so a line that only some draws reach
cannot make two runs disagree; pytest's own report is printed only when a
test fails, so two runs print the same lines.

The exit status is pytest's when a test fails, else 1 when a line outside
``EXCEPTIONS`` is listed, else 0.  CI runs it, so a statement that no test
reaches fails the build: give it a test, or delete it and say why no caller
reaches it.  Tracing makes the suite about three times slower (about a
minute).
"""

import contextlib
import io
import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "polygevrey"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

HYPOTHESIS_SEED = 20250808

#: (module file, stripped source line) -> why no in-process test can run it
EXCEPTIONS = {
    ("cli.py", "raise SystemExit(main())"):
        "the __main__ guard runs only when the module is the program (python -m polygevrey.cli)",
}


def unexecuted(counts: dict) -> list[tuple[Path, int]]:
    """(file, line) of each executable line of the package absent from ``counts``."""
    ran = {(Path(name).resolve(), line) for name, line in counts}
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        # the executable lines of the file's code objects, less its docstrings
        for line in sorted(trace._find_executable_linenos(str(path))):
            if line > 0 and (path, line) not in ran:  # 3.11 reports some code objects' line as 0
                missed.append((path, line))
    return missed


def main(args: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    # Trace caches its ignore decision per module base name, so a library's ``errors.py`` or
    # ``__init__.py`` would hide the package's own: decide by path, and trace the package only
    tracer.ignore.names = lambda filename, modulename: not filename.startswith(str(PACKAGE))
    argv = ["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}", str(ROOT / "tests"), *args]
    report = io.StringIO()  # pytest's report ends with its wall time: kept back unless a test fails
    with contextlib.redirect_stdout(report):
        status = int(tracer.runfunc(pytest.main, argv))
    if status:
        print(report.getvalue())
    sources, listed = {}, 0
    for path, line in unexecuted(tracer.results().counts):
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        reason = EXCEPTIONS.get((path.name, text))
        listed += reason is None
        print(f"{path.relative_to(ROOT)}:{line}: {text}" + (f"  [excepted: {reason}]" if reason else ""))
    print(f"{listed} unexecuted statement line(s) outside the exceptions; pytest exit status {status}")
    return status or int(listed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
