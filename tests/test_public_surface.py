"""The package's public surface: ``starramsey.__all__``, as README states it."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import starramsey
from starramsey import (BoundsInterval, CaseVerdict, Certificate, EdgeColoring,
                        SampleCheckResult, WitnessRecipe, oracle)

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


# Every result record, with its fields in order and its defaults.
RECORDS = [
    (WitnessRecipe, ("tag", "params"), {}),
    (CaseVerdict, ("value", "case_tag", "witness", "x", "q", "r"),
     {"x": None, "q": None, "r": None}),
    (BoundsInterval, ("lower", "upper", "y", "epsilon", "t_prime"), {}),
    (Certificate, ("coloring", "n", "s", "passed", "min_colors", "offending_vertex",
                   "offending_colors", "covered_edges"),
     {"offending_vertex": None, "offending_colors": (), "covered_edges": 0}),
    (SampleCheckResult, ("passed", "trials", "counterexample"), {"counterexample": None}),
    (oracle.SearchStats, ("nodes", "canonical_skips", "bound_prunes"), {}),
    (oracle.OracleResult, ("value", "stats"), {}),
    (oracle.RamseyResult, ("value", "checked"), {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_result_records_behave_as_readme_states(cls, fields, defaults):
    assert cls._fields == fields and cls._field_defaults == defaults
    values = tuple(range(1, len(fields) + 1))
    record = cls(*values)
    # read-only fields, and no attribute dict to take new ones
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert not hasattr(record, "__dict__")
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value}" for name, value in zip(fields, values)) + ")"
    assert hash(record) == hash(values)
    # a tuple: it iterates, indexes and equals the plain tuple of its fields
    assert tuple(record) == values and record[-1] == values[-1] and record == values
    assert record._asdict() == dict(zip(fields, values))
    replaced = record._replace(**{fields[-1]: 0})
    assert type(replaced) is cls and replaced == (*values[:-1], 0)
    required = values[:len(fields) - len(defaults)]
    assert cls(*required) == (*required, *defaults.values())
