"""Every name a library module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nonfree"
# certify imports flow only so that perfbench's tracer test can read the
# wrapped name there.
ALLOWED = {("certify", "flow")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .tensor import apply, norm\nnorm(math.pi)\n"
    assert unused_imports(source) == ["apply"]


# The package's __init__ imports names to export them.
@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_a_module_uses_every_name_it_imports(module):
    names = unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [name for name in names if (module, name) not in ALLOWED] == []
