"""The arm rule of ``tests/data/unexecuted.py``, on small synthetic functions traced in-process."""

import dis
import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent / "data" / "unexecuted.py"
_spec = importlib.util.spec_from_file_location("unexecuted", _TOOL)
unexecuted = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unexecuted)

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="the tool's jump opcodes are CPython 3.11's, the version CI runs it on")

SOURCE = '''\
import contextlib


def sample(x, n, items):
    if x > 0:
        x = -x
    if n:
        y = 1
    else:
        y = 2
    z = "a" if x else "b"
    both = x and n
    either = n or x
    if 0 < n < 5:
        y += 1
    for item in items:
        y += item
    while n > 0:
        n -= 1
    try:
        y += int(z)
    except ValueError:
        y -= 1
    with contextlib.suppress(KeyError):
        y += {}[z]
    return y, both, either


def first_positive(items):
    for item in items:
        if item > 0:
            return item
    return None


def long(x):
    if x:
''' + "        y = 1\n" * 200 + '''\
    return x
'''


def _untaken(tmp_path, calls) -> list[tuple[int, str]]:
    """(line, arm) of each arm of SOURCE that ``calls`` (name, args) leave untaken."""
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    recorder = unexecuted.Recorder(str(tmp_path))
    with recorder.tracing():
        for name, args in calls:
            namespace[name](*args)
    return sorted((line, arm) for _, line, arm in recorder.untaken_arms())


def test_one_call_leaves_the_other_arm_of_each_test(tmp_path):
    # x > 0, n = 2 and one item: every test goes one way; the except clause matches and the
    # with suppresses, and the jumps that would say otherwise are not arms
    assert _untaken(tmp_path, [("sample", (1, 2, [1]))]) == [
        (5, "`x > 0` never false"),  # if with no else: its target runs either way
        (7, "`n` never false"),  # if/else
        (11, "`x` never false"),  # ternary
        (12, "`x` never false"),  # and
        (13, "`n` never false"),  # or
        (14, "`0 < n < 5` never false (jump 1 of 2)"),  # chained comparison: 0 < n
        (14, "`0 < n < 5` never false (jump 2 of 2)"),  # and n < 5
        (18, "`n > 0` never false (jump 1 of 2)"),  # while: the entry test
    ]


def test_no_arm_left_once_each_outcome_ran(tmp_path):
    calls = [("sample", (1, 2, [1])), ("sample", (0, 0, [])), ("sample", (-1, 7, [])),
             ("first_positive", ([-1, 1],)), ("first_positive", ([],)), ("long", (1,))]
    assert _untaken(tmp_path, calls) == [(37, "`x` never false")]
    assert _untaken(tmp_path, calls + [("long", (0,))]) == []


def test_for_loop_arms(tmp_path):
    # no item: the body never runs, so neither arm of its if is taken either
    assert _untaken(tmp_path, [("first_positive", ([],))]) == [
        (30, "the loop never runs its body"), (31, "`item > 0` never false"), (31, "`item > 0` never true"),
    ]
    # a return from the first pass: the loop never runs out
    assert _untaken(tmp_path, [("first_positive", ([1],))]) == [
        (30, "the loop never runs out"), (31, "`item > 0` never false"),
    ]


def test_a_jump_after_an_extended_arg_is_keyed_by_the_prefix(tmp_path):
    # long's jump over 200 lines needs an EXTENDED_ARG, and the interpreter traces that prefix, not the jump
    namespace = {}
    exec(compile(SOURCE, str(tmp_path / "synthetic.py"), "exec"), namespace)
    code = namespace["long"].__code__
    prefixes = [ins.offset for ins in dis.get_instructions(code) if ins.opname == "EXTENDED_ARG"]
    assert len(prefixes) == 1
    assert list(unexecuted.conditional_jumps(code)) == prefixes
