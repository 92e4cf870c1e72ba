"""Command-line surface.

All commands print line-oriented ``key value`` pairs with stable keys.
Exit codes: 0 on pass/success, 1 on fail/counterexample (including a
failed construction), 2 on usage errors, 141 (128 + SIGPIPE) when the
reader of stdout closes it early; nothing is printed then.

Start-up is most of the time of ``compute``, ``bounds``, ``table`` and
``oracle``, so each command imports only the modules it runs:

* ``compute``, ``bounds`` and ``table`` load ``formulas``;
* ``oracle`` loads ``oracle``;
* ``construct`` loads ``constructions`` (with ``formulas``, ``coloring``
  and ``verify``) and ``fileio``;
* ``verify`` loads ``fileio`` and ``verify``; ``sample-check`` loads
  ``verify``.

Only the last three import numpy.  Modules are called through their
attributes (``formulas.classify``), never through names imported from
them, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    ColoringFormatError,
    ConstructionFailedError,
    InfeasibleInstanceError,
    InvalidParameterError,
    UnsupportedParametersError,
)

if TYPE_CHECKING:
    from .formulas import CaseVerdict

# Exit status when stdout is closed under us, as for a process that
# SIGPIPE ends (Python ignores the signal, so the write fails instead).
EXIT_BROKEN_PIPE = 141

USAGE_ERRORS = (
    InvalidParameterError,
    UnsupportedParametersError,
    ColoringFormatError,
    InfeasibleInstanceError,
)


def _emit(key: str, value) -> None:
    print(f"{key} {value}")


def _emit_verdict_fields(verdict: CaseVerdict) -> None:
    _emit("value", verdict.value)
    _emit("case", verdict.case_tag)
    if verdict.x is not None:
        _emit("x", verdict.x)
        _emit("q", verdict.q)
        _emit("r", verdict.r)
    _emit("witness", verdict.witness.describe())


def _cmd_compute(args) -> int:
    from . import formulas

    verdict = formulas.classify(args.n, args.t, args.s)
    _emit_verdict_fields(verdict)
    return 0


def _cmd_bounds(args) -> int:
    from . import formulas

    interval = formulas.general_bounds(args.n, args.t, args.l)
    _emit("lower", interval.lower)
    _emit("upper", interval.upper)
    _emit("y", interval.y)
    _emit("epsilon", interval.epsilon)
    _emit("t_prime", interval.t_prime)
    return 0


def _cmd_construct(args) -> int:
    from . import constructions, fileio

    coloring, recipe = constructions.witness_coloring(args.n, args.t, args.s)
    text = fileio.serialize_coloring(coloring)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        _emit("order", coloring.p)
        _emit("colors", coloring.t)
        _emit("witness", recipe.describe())
        _emit("out", args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from . import fileio, verify

    coloring = fileio.read_coloring(args.file)
    cert = verify.check_certificate(coloring, args.n, args.s)
    _emit("verdict", "pass" if cert.passed else "fail")
    _emit("min_star_colors",
          "no-star" if cert.min_colors is None else cert.min_colors)
    if not cert.passed:
        _emit("offending_vertex", cert.offending_vertex)
        _emit("offending_colors", ",".join(str(c) for c in cert.offending_colors))
        _emit("covered_edges", cert.covered_edges)
    return 0 if cert.passed else 1


def _cmd_oracle(args) -> int:
    from . import oracle

    edge_budget = (oracle.DEFAULT_EDGE_BUDGET if args.edge_budget is None
                   else args.edge_budget)
    result = oracle.ramsey_value(
        args.n, args.t, args.s, args.max_p,
        edge_budget=edge_budget, threads=args.threads,
    )
    if result.value is None:
        _emit("value", f"exceeds_p_max={args.max_p}")
    else:
        _emit("value", result.value)
    stats = result.stats
    _emit("nodes", stats.nodes)
    _emit("canonical_skips", stats.canonical_skips)
    _emit("bound_prunes", stats.bound_prunes)
    return 0


def _cmd_table(args) -> int:
    from . import formulas

    if args.n_from > args.n_to or args.n_from < 1:
        raise InvalidParameterError(
            f"empty or invalid range: n-from={args.n_from}, n-to={args.n_to}"
        )
    # Rows need no witness recipe, whose class list may have t entries.
    # The last row sets the value column's width.  Computing it first also
    # raises any error before a line is printed: classify's errors depend
    # on (t, s) alone, except that n = 1 never raises.
    width = max(len(str(formulas._case_value(args.n_to, args.t, args.s).value)), 5)
    if args.format == "csv":
        print("n,value,case")
        row = "{},{},{}".format
    else:
        print(f"{'n':>4} {'value':>{width}}  case")
        row = f"{{:>4}} {{:>{width}}}  {{}}".format
    for n in range(args.n_from, args.n_to + 1):
        verdict = formulas._case_value(n, args.t, args.s)
        print(row(n, verdict.value, verdict.case_tag))
    return 0


def _cmd_sample_check(args) -> int:
    from . import verify

    result = verify.sample_upper_check(
        args.p, args.n, args.t, args.s, args.trials, args.seed
    )
    _emit("verdict", "pass" if result.passed else "counterexample")
    _emit("trials", result.trials)
    if not result.passed:
        _emit("trial", result.trial_index)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starramsey",
        description="Star Ramsey numbers under color budgets: exact values, "
                    "bounds, certificates, and an exhaustive oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_nts(p):
        p.add_argument("--n", type=int, required=True, help="star size (leaf count)")
        p.add_argument("--t", type=int, required=True, help="number of colors")
        p.add_argument("--s", type=int, required=True, help="color budget for the star")

    p = sub.add_parser("compute", help="exact value for s in {t-1, t-2}")
    common_nts(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bounds", help="general lower/upper bounds for l = t-s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l", type=int, required=True, help="number of missing colors")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="write a verified certificate of K_{R-1}")
    common_nts(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring file against (n, s)")
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive small-instance value")
    common_nts(p)
    p.add_argument("--max-p", type=int, required=True, dest="max_p")
    # default: oracle.DEFAULT_EDGE_BUDGET, read when the command runs
    p.add_argument("--edge-budget", type=int, dest="edge_budget")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", help="value table over a range of n")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True, dest="n_from")
    p.add_argument("--n-to", type=int, required=True, dest="n_to")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sample-check",
                       help="seeded random sampling of the upper-bound property")
    common_nts(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample_check)

    return parser


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe may show only when the buffer is written
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except ConstructionFailedError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
