"""The package's public surface: ``starramsey.__all__``, as README states it."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import starramsey
from starramsey import Certificate, EdgeColoring, oracle

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# names the package exported once and no longer has
DELETED = ("ClassLayout", "regular_layout", "near_regular_layout", "ramsey_star_t_minus_1",
           "ramsey_star_t_minus_2", "threshold_predicate", "regular_coloring",
           "three_color_balanced_coloring")


def test_every_exported_name_resolves():
    for name in starramsey.__all__:
        assert getattr(starramsey, name) is not None, name


def test_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import starramsey; "
            "print(*sorted(m for m in sys.modules if m.startswith('starramsey.')))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert name not in starramsey.__all__
    with pytest.raises(AttributeError):
        getattr(starramsey, name)


def test_dropped_arguments_are_refused():
    assert "recipe" not in Certificate._fields
    assert not hasattr(oracle, "max_min_star_colors")
    with pytest.raises(TypeError, match="max_colors"):
        oracle.ramsey_value(2, 2, 1, 5, max_colors=5)
    # one work bound, NODE_BUDGET, replaced the edge and color budgets
    assert not hasattr(oracle, "DEFAULT_EDGE_BUDGET") and not hasattr(oracle, "DEFAULT_MAX_COLORS")
    with pytest.raises(TypeError, match="edge_budget"):
        oracle.ramsey_value(2, 2, 1, 5, edge_budget=21)
    coloring = EdgeColoring(2, 1, {(1, 2): 1})
    assert not hasattr(coloring, "missing") and not hasattr(coloring, "unexpected")


def test_readme_states_the_public_surface():
    table = README[README.index("| Module | Names |"):]
    table = table[:table.index("\n\n")]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    assert set(rows) == {*starramsey._EXPORTS, "oracle"}
    for module, names in starramsey._EXPORTS.items():
        assert set(re.findall(r"`(\w+)`", rows[module])) == set(names), module
    assert set(starramsey.__all__) == {n for names in starramsey._EXPORTS.values()
                                       for n in names} | {"oracle"}
