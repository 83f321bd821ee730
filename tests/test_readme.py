"""The Python examples in README.md run as written and give the values they state."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_and_give_the_values_they_state():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 2
    stated = []
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        # a line whose comment calls its value exact must give Fractions, and
        # the one a comment names exactly
        for line in block.splitlines():
            code, _, comment = line.partition("  # ")
            if "exact" not in comment:
                continue
            value = eval(code, namespace)
            values = value if isinstance(value, list) else [value]
            assert values and all(isinstance(v, Fraction) for v in values), line
            named = re.search(r"Fraction\(\d+, \d+\)", comment)
            if named:
                stated.append((value, eval(named.group(), {"Fraction": Fraction})))
    assert [want for _, want in stated] == [Fraction(387, 2000)]
    assert all(got == want for got, want in stated)
