from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_values() -> dict[str, object]:
    """Run the README's "Library quick tour" block; map the source of each
    top-level expression statement to its value."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\s+```python\n(.*?)```", text, re.S).group(1)
    namespace: dict[str, object] = {}
    values = {}
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    return values


def test_the_readme_quick_tour_runs_and_gives_the_values_it_states():
    values = quick_tour_values()
    assert values["data.ness_lambda"] == Fraction(313, 520)
    assert values["certify_family(5).verdict"] is True
    assert abs(values['certify_named("T2").ness.lam'] - 43 / 42) <= 1e-12
    # 3/4 + c^2/|h|^2 with c = 1/4 and |h|^2 = 43/4.
    assert abs(values["flow(s0_tensor(4), step_size=1.0).lam"] - 65 / 86) <= 1e-6
    assert values["reduce_to_s0(t).residual"] < 1e-13
