"""Command-line surface.

Each command's handler returns ``(exit code, record)``, the record a
dict of ``key -> value`` in print order, and ``main`` prints every
record as ``key value`` lines: one place prints a command's result.
``table`` (each row as it is computed) and ``construct`` to stdout (the
certificate, through ``_write_all``) stream their output instead and
return an empty record.

Exit codes: 0 on pass/success, 1 on fail/counterexample; ``main`` maps
errors by class, 1 for ``ConstructionFailedError`` and 2 for every other
``StarRamseyError`` and every ``OSError`` (a missing file, say), so a
new error class exits 2.  The error line goes to stderr; a closed or
missing stderr loses the line, not the code.  Exit 141 (128 + SIGPIPE)
means the reader of stdout closed it early; nothing is printed then.

Start-up is most of the time of ``compute``, ``bounds``, ``table`` and
``oracle``, so each command imports only the modules it runs:

* ``compute`` and ``table`` load ``formulas`` and ``exact``, ``bounds``
  ``formulas`` alone;
* ``oracle`` loads ``oracle``;
* ``construct`` loads ``constructions`` (with ``exact``, ``coloring``
  and ``verify``) and ``fileio``;
* ``verify`` loads ``fileio``, ``bulkparser`` and ``verify``, and
  ``lineparser`` only for a file the bulk path declines;
* ``sample-check`` loads ``verify`` and ``exact``, and ``constructions``
  only for a counterexample.

No command imports numpy: the certificate layers work on ``bytes``.
Modules are called through their attributes (``formulas.classify``),
never through names imported from them, so a wrapper installed on a
module attribute sees every call.

Every command and flag is declared once, in ``COMMANDS``.  ``main`` reads
the plain form that scripts and the benchmark use (a command name, then
``--flag value`` pairs, each flag spelled in full and given once) with
``parse_direct``, which does not import argparse: importing it, with
``gettext`` and ``locale``, and building its parser cost about 4.5 ms
of a 35 ms ``compute`` launch with no bytecode cache.  Every other argv
(``-h``, abbreviations, ``--flag=value``, signs or underscores in
integers, repeated or unknown flags, ``--``) goes to the argparse parser
that ``cliparser.build_parser`` makes from the same table, so help
text, usage errors and exit codes are argparse's; ``main`` imports
``cliparser`` only then.

``python -m starramsey`` and the installed ``starramsey`` command both
call ``run``: it calls ``main``, flushes stdout and stderr, and ends the
process through ``os._exit``, skipping the interpreter's teardown (on a
2-vCPU VM about 10 ms after ``compute``, and 30 ms once numpy was
loaded, against 1-4 ms to leave through ``os._exit``).  That teardown
would also run ``atexit`` handlers, flush and close other open files and
join non-daemon threads, so the skip is safe only while these hold:

* every file a command writes is closed before ``main`` returns
  (``fileio.write_coloring`` writes in a ``with`` block);
* the package registers no ``atexit`` handler;
* the package starts no thread.

An exception that escapes ``main`` never reaches ``os._exit``: it gets
the interpreter's traceback and exit status.  ``main(argv)`` returns its
code, so tests and the benchmark's in-process runner call it directly.
A stdout missing since launch (fd 1 closed, so ``sys.stdout`` is None)
counts as a closed pipe once a command has run: exit 141, nothing on
stderr.
"""

import os
import sys
from types import SimpleNamespace

from .errors import ConstructionFailedError, InvalidParameterError, StarRamseyError

# Exit status when stdout is closed under us, as for a process that
# SIGPIPE ends (Python ignores the signal, so the write fails instead).
EXIT_BROKEN_PIPE = 141


def _write_all(text: str) -> None:
    """Write ``text`` to stdout through its binary layer, to the last byte.
    Unbuffered (PYTHONUNBUFFERED), that layer is the raw file, whose write
    may stop short when the reader closes the pipe mid-write; writing the
    rest then raises BrokenPipeError, as a buffered write does.  A missing
    stdout is passed over, as print passes over it, and a stdout without a
    binary layer (an in-process capture) takes the text."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        if out is not None:
            out.write(text)
        return
    out.flush()
    data = memoryview(text.encode("ascii"))
    while data:
        data = data[raw.write(data) or 0:]


def _cmd_compute(args) -> tuple[int, dict]:
    from . import formulas

    verdict = formulas.classify(args.n, args.t, args.s)
    record = {"value": verdict.value, "case": verdict.case_tag}
    if verdict.x is not None:
        record.update(x=verdict.x, q=verdict.q, r=verdict.r)
    record["witness"] = verdict.witness.describe()
    return 0, record


def _cmd_bounds(args) -> tuple[int, dict]:
    from . import formulas

    return 0, formulas.general_bounds(args.n, args.t, args.l)._asdict()


def _cmd_construct(args) -> tuple[int, dict]:
    from . import constructions, fileio

    coloring, recipe = constructions.witness_coloring(args.n, args.t, args.s)
    if not args.out:
        _write_all(fileio.serialize_coloring(coloring))
        return 0, {}
    fileio.write_coloring(args.out, coloring)
    return 0, {"order": coloring.p, "colors": coloring.t,
               "witness": recipe.describe(), "out": args.out}


def _cmd_verify(args) -> tuple[int, dict]:
    from . import fileio, verify

    coloring = fileio.read_coloring(args.file)
    cert = verify.check_certificate(coloring, args.n, args.s)
    record = {"verdict": "pass" if cert.passed else "fail",
              "min_star_colors": "no-star" if cert.min_colors is None else cert.min_colors}
    if not cert.passed:
        record.update(offending_vertex=cert.offending_vertex,
                      offending_colors=",".join(map(str, cert.offending_colors)),
                      covered_edges=cert.covered_edges)
    return int(not cert.passed), record


def _cmd_oracle(args) -> tuple[int, dict]:
    from . import oracle

    result = oracle.ramsey_value(args.n, args.t, args.s, args.max_p, threads=args.threads)
    value = f"exceeds_p_max={args.max_p}" if result.value is None else result.value
    return 0, {"value": value, **result.stats._asdict()}


def _cmd_table(args) -> tuple[int, dict]:
    from . import formulas

    if args.n_from > args.n_to or args.n_from < 1:
        raise InvalidParameterError(
            f"empty or invalid range: n-from={args.n_from}, n-to={args.n_to}")
    # The last row sets the value column's width.  Computing it first also
    # raises any error before a line is printed: at n >= 1, classify's
    # errors depend on (t, s) alone.
    width = max(len(str(formulas.classify(args.n_to, args.t, args.s).value)), 5)
    if args.format == "csv":
        print("n,value,case")
        row = "{},{},{}".format
    else:
        print(f"{'n':>4} {'value':>{width}}  case")
        row = f"{{:>4}} {{:>{width}}}  {{}}".format
    for n in range(args.n_from, args.n_to + 1):
        verdict = formulas.classify(n, args.t, args.s)
        print(row(n, verdict.value, verdict.case_tag))
    return 0, {}


def _cmd_sample_check(args) -> tuple[int, dict]:
    from . import verify

    result = verify.sample_upper_check(args.p, args.n, args.t, args.s,
                                       args.trials, args.seed)
    return int(not result.passed), {
        "verdict": "pass" if result.passed else "counterexample", "trials": result.trials}


class Flag:
    """One ``--option value`` of a command.  ``kind`` is ``int``, ``str``
    or a tuple of choices.  (A plain class: a namedtuple class costs about
    ten times as much to create, at every launch, and a flag needs no
    tuple behaviour.)"""

    __slots__ = ("option", "dest", "kind", "required", "default", "help")

    def __init__(self, option: str, kind, required: bool = True,
                 default=None, help: str | None = None):
        self.option = option
        self.dest = option[2:].replace("-", "_")
        self.kind = kind
        self.required = required
        self.default = default
        self.help = help


_NTS = (
    Flag("--n", int, help="star size (leaf count)"),
    Flag("--t", int, help="number of colors"),
    Flag("--s", int, help="color budget for the star"),
)

# Every command, in help order, as (handler, help, flags); the direct
# parser and ``cliparser.build_parser`` both read this table.
COMMANDS = {
    "compute": (_cmd_compute, "exact value for s in {t-1, t-2}", _NTS),
    "bounds": (_cmd_bounds, "general lower/upper bounds for l = t-s", (
        Flag("--n", int),
        Flag("--t", int),
        Flag("--l", int, help="number of missing colors"),
    )),
    "construct": (_cmd_construct, "write a verified certificate of K_{R-1}", (
        *_NTS,
        Flag("--out", str, required=False, help="output file (default: stdout)"),
    )),
    "verify": (_cmd_verify, "check a coloring file against (n, s)", (
        Flag("--file", str),
        Flag("--n", int),
        Flag("--s", int),
    )),
    "oracle": (_cmd_oracle, "exhaustive small-instance value", (
        *_NTS,
        Flag("--max-p", int),
        Flag("--edge-budget", int, required=False, help="ignored: a node budget bounds the search"),
        Flag("--threads", int, required=False, default=1),
    )),
    "table": (_cmd_table, "value table over a range of n", (
        Flag("--t", int),
        Flag("--s", int),
        Flag("--n-from", int),
        Flag("--n-to", int),
        Flag("--format", ("text", "csv"), required=False, default="text"),
    )),
    "sample-check": (
        _cmd_sample_check, "check R <= p: pass, or a counterexample of K_p", (
            *_NTS,
            Flag("--p", int),
            Flag("--trials", int),
            Flag("--seed", int),
        )),
}


def _value(kind, text: str):
    """``text`` read as a value of ``kind`` exactly as argparse reads it,
    or None where argparse might read it otherwise or refuse it."""
    if kind is int:
        # int() also reads signs, underscores, spaces and non-ASCII digits
        if not (text.isascii() and text.isdigit()):
            return None
        try:
            return int(text)
        except ValueError:  # over the int-string digit limit
            return None
    if kind is str:
        # argparse may take a leading '-' for an option
        return None if text.startswith("-") else text
    return text if text in kind else None


def parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``cliparser.build_parser().parse_args(argv)``
    returns, when ``argv`` is a command name followed by ``--flag value``
    pairs with each flag spelled in full, given at most once, and every
    required flag present; otherwise None.

    Values: an int is ASCII digits, a str does not start with '-', a
    choice is one of its choices.  Every other form (help, abbreviations,
    ``--flag=value``, signs, ``--``, unknown or repeated flags) is left
    to argparse, which also owns every usage error.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, declared = COMMANDS[argv[0]]
    flags = {flag.option: flag for flag in declared}
    values = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        flag = flags.pop(option, None)
        if flag is None:  # unknown, abbreviated or repeated
            return None
        value = _value(flag.kind, text)
        if value is None:
            return None
        values[flag.dest] = value
    for flag in flags.values():  # the flags not given
        if flag.required:
            return None
        values[flag.dest] = flag.default
    return SimpleNamespace(command=argv[0], func=func, **values)


def _drop_stdout() -> None:
    """Point stdout at devnull, so that the flush at interpreter exit does
    not fail again on the closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return  # not a file descriptor (captured or replaced stdout)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _report(line: str) -> None:
    """Print ``line`` on stderr.  A missing stderr (fd 2 closed at launch)
    or one that refuses the write (its reader gone) loses the line, and
    the exit code stands."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_direct(argv)
    if args is None:
        from .cliparser import build_parser
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        code, record = args.func(args)
        for key, value in record.items():
            print(key, value)
        if sys.stdout is None:  # print dropped what the command printed
            return EXIT_BROKEN_PIPE
        sys.stdout.flush()  # a closed pipe may show only when the buffer is written
        return code
    except BrokenPipeError:  # an OSError, so caught ahead of the next clause
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except ConstructionFailedError as exc:
        _report(f"construction failed: {exc}")
        return 1
    except (StarRamseyError, OSError) as exc:
        _report(f"error: {exc}")
        return 2


def run():
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and end the
    process with its code through ``os._exit`` (see the module docstring
    for what that skips).  A stdout flush that hits a closed pipe ends it
    with 141, as in ``main``; ``os._exit`` writes no buffer, so the failed
    one needs no devnull.  A missing stdout has nothing to flush."""
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            code = EXIT_BROKEN_PIPE
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
