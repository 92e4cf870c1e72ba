"""README's examples, run as written.

Each ``$ starramsey ...`` line of the command-line block runs through
``cli.main`` in one temporary directory, in order, so a file written by one
command is there for the next.  The lines shown under a command must be
its stdout; a closing ``...`` line means more output follows.  The
Library block is executed as is, and the oracle's node table is checked
against the search.
"""

import re
import shlex
from pathlib import Path

from starramsey.cli import main
from starramsey.oracle import ramsey_value

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, fence: str) -> str:
    section = README[README.index(heading):]
    match = re.search(rf"```{fence}\n(.*?)```", section, re.S)
    return match.group(1)


def _commands() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) for every command of the command-line block."""
    examples = []
    for chunk in _block_after("## Command line", "text").split("$ starramsey ")[1:]:
        head, *shown = chunk.strip("\n").split("\n")
        examples.append((shlex.split(head), shown))
    return examples


def test_readme_commands_print_what_readme_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = _commands()
    assert len(examples) >= 7
    for argv, shown in examples:
        main(argv)
        out = capsys.readouterr().out.splitlines()
        if shown and shown[-1] == "...":
            shown = shown[:-1]
            assert len(out) > len(shown), argv
            out = out[:len(shown)]
        assert out == shown, argv


def test_readme_library_block_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block_after("## Library", "python"), "README.md", "exec"), {})


def test_readme_oracle_node_table_matches_the_search():
    # each row's R and top-down node count: the root settles K_R, so the
    # one order searched is K_{R-1}
    section = README[README.index("| Instance | `R` |"):]
    header, _, *rows = section[:section.index("\n\n")].splitlines()
    column = [c.strip() for c in header.split("|")].index("Nodes (top-down, least-loaded)")
    assert len(rows) == 7
    for row in rows:
        cells = [c.strip() for c in row.split("|")]
        n, t, s = map(int, cells[1].strip("()").split(","))
        r = int(cells[2])
        nodes = int(re.match(r"[\d,]+", cells[column]).group().replace(",", ""))
        res = ramsey_value(n, t, s, r)
        assert (res.value, res.stats.nodes) == (r, nodes), cells[1]
