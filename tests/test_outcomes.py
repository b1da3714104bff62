"""The outcome table's comparison with its reference (``tools/outcomes.py``);
no simulation runs here."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("outcomes", TOOLS / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def row(**fields):
    base = {"name": "seed1", "done": 1, "targets": (13, 13), "false": 0, "ticks": 2000, "dist": 700.0,
            "loc_err_late": 0.5}
    return base | fields


def test_a_printed_row_parses_back(tool):
    r = row(name="seed0_r6", done=0, targets=(12, 13), false=1, ticks=8000, dist=713.9, loc_err_late=0.517)
    assert tool.parse(tool.format_row(r) + "\n\n") == {"seed0_r6": r}


def test_the_reference_holds_every_row(tool):
    reference = tool.parse(tool.REFERENCE.read_text())
    assert list(reference) == list(tool.ROWS)


@pytest.mark.parametrize(
    "fields, why",
    [
        ({"done": 0, "targets": (12, 13), "ticks": 8000}, "lost completion"),
        ({"targets": (12, 13)}, "targets 13 -> 12"),
        ({"false": 1}, "false visits 0 -> 1"),
        ({"ticks": 2201}, "ticks 2000 -> 2201"),
        ({"loc_err_late": 0.61}, "loc_err_late 0.5 -> 0.61"),
    ],
)
def test_each_way_a_row_gets_worse(tool, fields, why):
    assert why in tool.worse(row(**fields), row())


@pytest.mark.parametrize(
    "fields",
    [{"ticks": 2200}, {"ticks": 1000}, {"loc_err_late": 0.59}, {"loc_err_late": 0.1}, {"dist": 900.0}],
)
def test_moves_within_tolerance_or_for_the_better_are_not_worse(tool, fields):
    assert tool.worse(row(**fields), row()) == []


def test_a_row_that_does_not_complete_and_loses_targets_is_worse(tool):
    ref = row(done=0, targets=(12, 13), false=1, ticks=8000)
    assert tool.worse(row(done=0, targets=(6, 13), false=1, ticks=8000), ref) == ["targets 12 -> 6"]


def test_a_row_that_gains_completion_is_not_worse(tool):
    ref = row(done=0, targets=(12, 13), ticks=8000)
    assert tool.worse(row(ticks=3000), ref) == []


def test_compare_names_worse_missing_and_moved_rows(tool):
    reference = {"seed1": row(), "seed2": row(name="seed2"), "seed3": row(name="seed3")}
    rows = [row(false=2), row(name="seed2", ticks=1500), row(name="seed3"), row(name="seed4")]
    bad, moved = tool.compare(rows, reference)
    assert bad == ["seed1: false visits 0 -> 2", "seed4: no reference line"]
    assert len(moved) == 1 and moved[0].startswith("seed2: ")


def test_mean_ticks_over_rows_that_complete_in_both(tool):
    reference = {"seed1": row(ticks=3000), "seed2": row(name="seed2", done=0, ticks=8000)}
    rows = [row(ticks=2000), row(name="seed2", ticks=4000)]
    assert tool.mean_ticks(rows, reference) == (2000.0, 3000.0)
    assert tool.mean_ticks([row(done=0)], reference) is None


def test_first_divergence_gives_the_line_on_each_side(tool):
    assert tool.first_divergence(["a", "b"], ["a", "b"]) is None
    assert tool.first_divergence(["a", "b", "c"], ["a", "x"]) == "line 2: here b | there x"
    assert tool.first_divergence(["a"], ["a", "b"]) == "line 2: here end | there b"
