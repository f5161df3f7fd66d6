"""Every name a library module imports is used in that module, every
public name a module defines is used by the package, and every ValueError
subclass the package defines is named in one of its except clauses."""

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


def public_names(source: str) -> set[str]:
    """Top-level functions, classes and constants not starting with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def unreached(sources: dict[str, str]) -> list[str]:
    """The public names of the modules that no module reads as a name or
    imports; `np.linalg.norm` is an attribute and reads no `norm`."""
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(set().union(*map(public_names, sources.values())) - used)


def test_the_check_sees_an_unreached_name():
    sources = {
        "tensor": "import numpy as np\nLIMIT = 3\ndef norm(t):\n    return np.linalg.norm(t)\n"
                  "def size(t):\n    return min(t.size, LIMIT)\nclass Box:\n    pass\n",
        "cli": "from .tensor import size\nprint(size)\n",
    }
    assert unreached(sources) == ["Box", "norm"]


def test_the_package_uses_every_public_name_it_defines():
    sources = {
        p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.stem != "__init__"
    }
    assert unreached(sources) == []


def uncaught_value_errors(sources: dict[str, str]) -> list[str]:
    """The ValueError subclasses, direct or not, that the modules define and
    no except clause of theirs names: a ValueError alone already gives exit 2."""
    bases, caught = {}, set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    subclasses, grown = set(), {"ValueError"}
    while grown:
        grown = {name for name, parents in bases.items() if parents & grown} - subclasses
        subclasses |= grown
    return sorted(subclasses - caught)


def test_the_check_sees_an_uncaught_value_error_subclass():
    sources = {
        "tensor": "class FormatError(ValueError):\n    pass\nclass DimsError(FormatError):\n    pass\n"
                  "class Mismatch(KeyError):\n    pass\n",
        "cli": "class Stop(ValueError):\n    pass\ntry:\n    run()\nexcept (Stop, Mismatch):\n    pass\n",
    }
    assert uncaught_value_errors(sources) == ["DimsError", "FormatError"]


def test_every_value_error_subclass_is_caught_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert uncaught_value_errors(sources) == []
