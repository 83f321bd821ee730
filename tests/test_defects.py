"""A catalogue of semantic defects: each named defect, patched in, must make
every check that reads it exit 1 ("a check failed")."""

import operator
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from percolab import core, game, pca
from percolab.cli import main
from percolab.core import GameVersion, Params

import oracles


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


@pytest.mark.parametrize("defect", TABLE_DEFECTS.values(), ids=TABLE_DEFECTS.keys())
@pytest.mark.parametrize("check", TABLE_CHECKS, ids=lambda argv: argv[0])
def test_a_defective_rule_table_fails_every_check(monkeypatch, defect, check):
    monkeypatch.setattr(core, "CLASS_LAWS", defect(core.CLASS_LAWS))
    assert main(["verify", *check]) == 1


def _trap_target_swapped(rule):
    """The game's one-site rule with a trap read as a target and back."""
    return lambda label, successors: rule(2 - label, successors)


# The game's rule against the kernel check.  The point needs p != q: at
# p = q a trap and a target carry equal masses, so swapping them cannot show.
GAME_RULE_CHECK = ("verify", "kernel", "--p", "1/3", "--q", "1/5")


def test_a_defective_game_rule_fails_the_kernel_check(monkeypatch):
    assert main(list(GAME_RULE_CHECK)) == 0
    monkeypatch.setattr(core, "site_class", _trap_target_swapped(core.site_class))
    assert main(list(GAME_RULE_CHECK)) == 1


def test_a_defective_game_rule_fails_under_python_O():
    code = ("import sys\n"
            "from percolab import cli, core\n"
            "rule = core.site_class\n"
            "core.site_class = lambda label, successors: rule(2 - label, successors)\n"
            "sys.stderr.write(f'debug={__debug__}')\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, *GAME_RULE_CHECK],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == "debug=False"
    assert proc.returncode == 1


# The vectorised site rule, read by pca.step and game.classify_line, against
# the two exact comparisons that read it: the law of step at a point with
# p != q (else a trap and a target carry equal masses) against CLASS_LAWS,
# and classify_line against core.site_class on the 81 (label, triple) cases.
# Each returns its mismatches, so none leans on an assert.
SITE_RULE_POINT = Params(Fraction(1, 3), Fraction(1, 5))


def _site_rule_mismatches():
    return (oracles.step_law_mismatches(SITE_RULE_POINT), oracles.line_rule_mismatches())


def test_a_defective_site_rule_fails_both_line_comparisons(monkeypatch):
    assert _site_rule_mismatches() == ([], [])
    swapped = _trap_target_swapped(pca.site_classes)
    monkeypatch.setattr(pca, "site_classes", swapped)
    monkeypatch.setattr(game, "site_classes", swapped)
    step_law, line_rule = _site_rule_mismatches()
    assert step_law and line_rule


def test_a_defective_site_rule_fails_under_python_O():
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from fractions import Fraction\n"
            "import oracles\n"
            "from percolab import game, pca\n"
            "from percolab.core import Params\n"
            "rule = pca.site_classes\n"
            "pca.site_classes = game.site_classes = lambda labels, successors: (\n"
            "    rule(2 - labels, successors))\n"
            "point = Params(Fraction(1, 3), Fraction(1, 5))\n"
            "print(__debug__, len(oracles.step_law_mismatches(point)),\n"
            "      len(oracles.line_rule_mismatches()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    debug, step_law, line_rule = proc.stdout.split()
    assert debug == "False" and int(step_law) > 0 and int(line_rule) > 0


# A version's offset off by one: V3 read at offset 0, as V1 and V2 are.  Two
# comparisons read it: the offset against the one read off V3's moves, and
# V3's draws in the README game against V4's, which solves the same label
# field.  Each returns its mismatches, so none leans on an assert.
def _v3_at_offset_0(version):
    return 0 if version in (GameVersion.V1, GameVersion.V2, GameVersion.V3) else -1


def _offset_mismatches():
    columns = oracles.readme_columns()
    return ([v for v in GameVersion if oracles.move_offset(v) != v.offset],
            [(a, b) for a, b in ((GameVersion.V1, GameVersion.V2),
                                 (GameVersion.V3, GameVersion.V4)) if columns[a] != columns[b]])


def test_a_version_offset_off_by_one_fails_both_comparisons(monkeypatch):
    assert _offset_mismatches() == ([], [])
    monkeypatch.setattr(GameVersion, "offset", property(_v3_at_offset_0))
    assert _offset_mismatches() == ([GameVersion.V3], [(GameVersion.V3, GameVersion.V4)])


def test_a_version_offset_off_by_one_fails_under_python_O():
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import oracles\n"
            "from percolab.core import GameVersion\n"
            "GameVersion.offset = property(lambda v: 0 if v is not GameVersion.V4 else -1)\n"
            "columns = oracles.readme_columns()\n"
            "print(__debug__, [v.value for v in GameVersion if oracles.move_offset(v) != v.offset],\n"
            "      columns[GameVersion.V3] != columns[GameVersion.V4])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "['V3']", "True"]


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
