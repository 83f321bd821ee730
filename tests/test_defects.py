"""A catalogue of semantic defects: each named defect, patched in, must make
every check that reads it exit 1 ("a check failed")."""

import operator
import subprocess
import sys

import pytest

from percolab import core, measures
from percolab.cli import main


def _rows_rotated(laws):
    """Each class takes the next class's law."""
    return laws[1:] + laws[:1]


def _zero_one_swapped(laws):
    """Every class puts its 0 mass on 1 and its 1 mass on 0."""
    return tuple(row[::-1] for row in laws)


def _mixed_qmark_on_one(laws):
    """MIXED's ? mass moved onto 1."""
    zero, qmark, one = laws[1]
    return laws[0], (zero, (0, 0, 0), tuple(map(operator.add, qmark, one))), laws[2]


TABLE_DEFECTS = {"rows rotated": _rows_rotated, "0 and 1 swapped": _zero_one_swapped,
                 "MIXED ? on 1": _mixed_qmark_on_one}

# Every check that reads the rule table, at its cheapest setting that still
# holds a point where the defect shows.
TABLE_CHECKS = (("lemmas", "--grid", "fine"), ("kernel", "--p", "1/4", "--q", "1/4"),
                ("formulas", "--measures", "1"), ("weights", "--measures", "1", "--grid", "1/4"))


@pytest.fixture
def fresh_formula_grid():
    """The module-level formula points hold their kernels in their memos; they
    are emptied before and after, so no kernel built under one table is read
    under another."""
    for params in measures.FORMULA_GRID:
        params.memo.clear()
    yield
    for params in measures.FORMULA_GRID:
        params.memo.clear()


@pytest.mark.parametrize("defect", TABLE_DEFECTS.values(), ids=TABLE_DEFECTS.keys())
@pytest.mark.parametrize("check", TABLE_CHECKS, ids=lambda argv: argv[0])
def test_a_defective_rule_table_fails_every_check(monkeypatch, fresh_formula_grid, defect, check):
    monkeypatch.setattr(core, "CLASS_LAWS", defect(core.CLASS_LAWS))
    assert main(["verify", *check]) == 1


def test_a_defective_rule_table_fails_under_python_O():
    # python -O strips every assert, so a check that leaned on one would pass
    code = ("import sys\n"
            "from percolab import cli, core\n"
            "core.CLASS_LAWS = core.CLASS_LAWS[1:] + core.CLASS_LAWS[:1]\n"
            "sys.stderr.write(f'debug={__debug__}')\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, "verify", "lemmas", "--grid", "fine"],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == "debug=False"
    assert proc.returncode == 1
