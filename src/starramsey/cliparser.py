"""The argparse parser of ``cli.COMMANDS``: ``cli.main`` loads it only for
an argv that ``cli.parse_direct`` declines, so a launch in the plain form
compiles none of it and imports no argparse.
"""

import argparse

from .cli import COMMANDS, _report


class Parser(argparse.ArgumentParser):  # its subparsers take its class
    def error(self, message):
        _report(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``: it parses every command line
    the direct parser declines, and prints help and usage errors.  A
    usage error prints argparse's usage and error lines through
    ``_report``, so a missing or closed stderr loses them and the exit
    code stays 2.  argparse's own ``error`` puts the usage on stdout when
    stderr is missing, and some versions (3.10, 3.11.2) raise on a missing
    or closed one."""
    parser = Parser(
        prog="starramsey",
        description="Star Ramsey numbers under color budgets: exact values, "
                    "bounds, certificates, and an exhaustive oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            choices = flag.kind if isinstance(flag.kind, tuple) else None
            p.add_argument(flag.option, dest=flag.dest,
                           type=int if flag.kind is int else None, choices=choices,
                           required=flag.required, default=flag.default, help=flag.help)
        p.set_defaults(func=func)
    return parser
