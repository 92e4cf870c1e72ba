"""The direct command-line parser against argparse.

``cli.parse_direct`` reads the plain ``cmd --flag value ...`` form without
importing argparse.  Wherever it accepts an argv, its namespace must be the
one ``build_parser().parse_args`` returns; every other argv goes to
argparse, whose output for help, usage errors and the other accepted forms
is pinned byte for byte in ``cli_pins.json``.  The pins were recorded, per
Python version, from the argparse-only parser of commit 518777d.

Of the package this module imports only ``starramsey.cli`` and
``starramsey.cliparser``, and the commands it runs need no numpy, so its
test functions can also be called directly on an interpreter that has
neither numpy nor pytest.
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starramsey import cli, cliparser

PINS = Path(__file__).with_name("cli_pins.json")

# Argv forms the direct parser must leave to argparse, with their pins.
PINNED = {
    "help": ["--help"],
    "h": ["-h"],
    "empty": [],
    "unknown-command": ["nope", "--n", "4"],
    **{f"{name}-help": [name, "--help"] for name in (
        "compute", "bounds", "construct", "verify", "oracle", "table", "sample-check")},
    "flag-help": ["compute", "--n", "4", "--t", "2", "--s", "1", "-h"],
    "abbreviation": ["oracle", "--n", "2", "--t", "3", "--s", "1", "--max", "6"],
    "equals": ["compute", "--n=4", "--t", "2", "--s", "1"],
    "choice-equals": ["table", "--t", "2", "--s", "1", "--n-from", "2", "--n-to", "4",
                      "--format=csv"],
    "negative": ["compute", "--n", "-4", "--t", "2", "--s", "1"],
    "plus": ["compute", "--n", "+4", "--t", "2", "--s", "1"],
    "underscore": ["compute", "--n", "5_0", "--t", "2", "--s", "1"],
    "space": ["compute", "--n", " 4", "--t", "2", "--s", "1"],
    "arabic-digit": ["compute", "--n", "٤", "--t", "2", "--s", "1"],
    "5000-digits": ["compute", "--n", "9" * 5000, "--t", "2", "--s", "1"],
    "duplicate": ["compute", "--n", "4", "--n", "5", "--t", "2", "--s", "1"],
    "unknown-flag": ["compute", "--n", "4", "--t", "2", "--s", "1", "--x", "1"],
    "short-flag": ["compute", "-n", "4", "--t", "2", "--s", "1"],
    "missing-flag": ["compute", "--n", "3"],
    "missing-value": ["compute", "--n", "4", "--t", "2", "--s"],
    "positional": ["compute", "4", "--n", "4", "--t", "2", "--s", "1"],
    "double-dash-end": ["compute", "--n", "4", "--t", "2", "--s", "1", "--"],
    "double-dash-first": ["compute", "--", "--n", "4", "--t", "2", "--s", "1"],
    "dash-value": ["verify", "--file", "-x", "--n", "2", "--s", "1"],
    "bad-choice": ["table", "--t", "2", "--s", "1", "--n-from", "2", "--n-to", "4",
                   "--format", "xml"],
    "non-integer": ["bounds", "--n", "5", "--t", "four", "--l", "2"],
}

# Argv forms the direct parser must accept.
WELL_FORMED = [
    ["compute", "--n", "4", "--t", "2", "--s", "1"],
    ["compute", "--s", "1", "--t", "2", "--n", "007"],
    ["bounds", "--n", "5", "--t", "4", "--l", "2"],
    ["construct", "--n", "3", "--t", "3", "--s", "1"],
    ["construct", "--n", "3", "--t", "3", "--s", "1", "--out", "k7.coloring"],
    ["verify", "--file", "k7.coloring", "--n", "3", "--s", "1"],
    ["verify", "--file", "", "--n", "3", "--s", "1"],
    ["verify", "--file", "a b=c", "--n", "3", "--s", "1"],
    ["oracle", "--n", "2", "--t", "3", "--s", "1", "--max-p", "6"],
    ["oracle", "--n", "2", "--t", "3", "--s", "1", "--max-p", "6",
     "--edge-budget", "10", "--threads", "2"],
    ["table", "--t", "3", "--s", "1", "--n-from", "2", "--n-to", "40"],
    ["table", "--t", "3", "--s", "1", "--n-from", "2", "--n-to", "40", "--format", "csv"],
    ["sample-check", "--n", "2", "--t", "3", "--s", "1", "--p", "5",
     "--trials", "500", "--seed", "18446744073709551616"],
    ["compute", "--n", "4", "--t", "9" * 4000, "--s", "1"],
]


@functools.cache
def _parser():
    return cliparser.build_parser()


def _argparse_namespace(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return _parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(f"argparse refuses {argv!r}: {err.getvalue()}") from None


def assert_agrees(argv):
    """The direct parser's namespace for ``argv``, after checking that it
    is argparse's; None when the direct parser leaves argv to argparse."""
    direct = cli.parse_direct(argv)
    if direct is not None:
        assert vars(direct) == vars(_argparse_namespace(argv)), argv
    return direct


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return [rc, out.getvalue(), err.getvalue()]


def test_well_formed_argv_is_parsed_directly():
    for argv in WELL_FORMED:
        assert assert_agrees(argv) is not None, argv


def test_other_forms_go_to_argparse():
    for argv in PINNED.values():
        assert cli.parse_direct(argv) is None, argv[:4]


@functools.cache
def _pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", list(PINNED))
def test_fallback_output_is_pinned(label):
    version = "%d.%d" % sys.version_info[:2]
    if version not in _pins():
        pytest.skip(f"no pins recorded for Python {version}")
    assert run(PINNED[label]) == _pins()[version][label]


# Tokens that break the strict form, alone or in place of a value.
JUNK = ("-h", "--help", "--", "-", "-x", "--n=4", "--max", "--nope", "-n", "-4", "+4",
        "4_0", " 4", "٤", "", "x", "xml", "compute", "9" * 5000)


def _value(draw, flag):
    """Mostly a value argparse reads, one time in ten a junk token."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(JUNK))
    if flag.kind is int:
        return str(draw(st.integers(0, 10 ** 20)))
    if flag.kind is str:
        return draw(st.sampled_from(("k7.coloring", "a b", "compute", "")))
    return draw(st.sampled_from(flag.kind))


@st.composite
def argvs(draw):
    """A command with some of its flags in any order, sometimes one flag
    twice, with junk tokens at a few places."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, flags = cli.COMMANDS[name]
    argv = [name]
    for flag in draw(st.permutations(flags)):
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing flag
        argv += [flag.option, _value(draw, flag)]
    if draw(st.integers(0, 9)) == 0:
        flag = draw(st.sampled_from(flags))
        argv += [flag.option, _value(draw, flag)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_direct_parser_agrees_with_argparse(argv):
    assert_agrees(argv)
