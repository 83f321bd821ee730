"""Source rules that no runtime test can see."""

import ast
from pathlib import Path

import percolab

SRC = Path(percolab.__file__).resolve().parent


def test_no_assert_in_src():
    # assert is stripped under python -O, so no check may rely on it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
