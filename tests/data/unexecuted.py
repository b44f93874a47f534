"""List the statements of ``src/polygevrey`` that the Tier-1 suite never executes.

Usage (from the repository root):

    python3 tests/data/unexecuted.py [pytest arguments]

Runs the test suite in this process under the standard library's ``trace``
module, then prints ``path:line: source`` for every executable line of
``src/polygevrey`` that no test ran, docstrings skipped, and a count.  Tests
that run the program in a subprocess cover nothing here.  Tracing makes the
suite several times slower (over a minute), so it is a tool, not a CI step.
"""

import sys
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "polygevrey"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402


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
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    sources = {}
    missed = unexecuted(tracer.results().counts)
    for path, line in missed:
        lines = sources.setdefault(path, path.read_text().splitlines())
        print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{len(missed)} unexecuted statement line(s); pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
