"""Every name a library module imports is used in that module, every
public name a module defines is used by the package, every private
module-level name is referenced by the package, every public property or
dataclass field of a library class is read by the package, every
ValueError subclass the package defines is named in one of its except
clauses, and every norm the package takes goes through `tensor._norm`."""

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


def module_names(source: str) -> set[str]:
    """Top-level functions, classes and constants, dunders aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def public_names(source: str) -> set[str]:
    return {name for name in module_names(source) if not name.startswith("_")}


def references(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """The names the modules read or import, and the attributes they read."""
    names, attributes = set(), set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def library_sources() -> dict[str, str]:
    """The package's modules but __init__, which imports names to export them."""
    return {
        p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.stem != "__init__"
    }


def unreached(sources: dict[str, str]) -> list[str]:
    """The public names of the modules that no module reads as a name or
    imports; `np.linalg.norm` is an attribute and reads no `norm`."""
    names, _ = references(sources)
    return sorted(set().union(*map(public_names, sources.values())) - names)


def test_the_check_sees_an_unreached_name():
    sources = {
        "tensor": "import numpy as np\nLIMIT = 3\nSPARE = 4\n"
                  "def norm(t):\n    return np.linalg.norm(t)\n"
                  "def size(t):\n    return min(t.size, LIMIT)\nclass Box:\n    pass\n",
        "cli": "from .tensor import size\nprint(size)\n",
    }
    assert unreached(sources) == ["Box", "SPARE", "norm"]


def test_the_package_uses_every_public_name_it_defines():
    assert unreached(library_sources()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names of the modules that no module reads as a
    name, imports, or reads as an attribute (`moment._action`)."""
    used = set().union(*references(sources))
    private = {
        f"{module}.{name}"
        for module, source in sources.items()
        for name in module_names(source) - public_names(source)
    }
    return sorted(name for name in private if name.split(".")[1] not in used)


def test_the_check_sees_an_unreferenced_private_name():
    sources = {
        "tensor": "_LIMIT = 3\ndef _norm(t):\n    return t\n"
                  "def _size(t):\n    return min(t, _LIMIT)\nclass _Box:\n    pass\n",
        "cli": "from .tensor import _size\nprint(_size)\n",
    }
    assert unreferenced_private_names(sources) == ["tensor._Box", "tensor._norm"]


def test_the_package_references_every_private_name_it_defines():
    assert unreferenced_private_names(library_sources()) == []


def decorators(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    """The plain names a class or function is decorated with, called or not."""
    calls = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {d.id for d in calls if isinstance(d, ast.Name)}


def class_surface(source: str) -> set[tuple[str, str]]:
    """(class, attribute) for each public property and dataclass field of the
    module's top-level classes."""
    surface = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and "property" in decorators(item):
                surface.add((node.name, item.name))
            elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and "dataclass" in decorators(node)):
                surface.add((node.name, item.target.id))
    return {(cls, name) for cls, name in surface if not name.startswith("_")}


def unread_attributes(sources: dict[str, str]) -> list[str]:
    """The public properties and dataclass fields of the modules' classes that
    no module reads as an attribute, of any object: a field filled by its
    constructor and never read back is surface that nothing needs."""
    _, read = references(sources)
    surface = set().union(*map(class_surface, sources.values()))
    return sorted(f"{cls}.{name}" for cls, name in surface if name not in read)


def test_the_check_sees_an_unread_property_and_field():
    sources = {
        "tensor": "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass Box:\n"
                  "    dims: tuple\n    label: str\n    _cache: dict\n"
                  "    @property\n    def size(self):\n        return len(self.dims)\n"
                  "    @property\n    def rank(self):\n        return 3\n"
                  "class Plain:\n    count: int\n",
        "cli": "from .tensor import Box\nbox = Box((2,), 'x', {})\nbox.size\nbox.label = 'y'\n",
    }
    assert unread_attributes(sources) == ["Box.label", "Box.rank"]


def test_the_package_reads_every_property_and_field_it_defines():
    assert unread_attributes(library_sources()) == []


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


def linalg_norm_references(sources: dict[str, str]) -> list[str]:
    """module.py:line for each reference to numpy.linalg.norm (or any
    linalg.norm), as an attribute (`np.linalg.norm`, `linalg.norm`) or
    imported by name: every norm goes through `tensor._norm`, the one kernel,
    with np.linalg.norm's bits, so one change to its reduction reaches them all."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == "norm":
                owner = node.value
                if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                    found.append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found.extend((module, node.lineno) for a in node.names if a.name == "norm")
    return [f"{module}.py:{line}" for module, line in sorted(found)]


def test_the_check_sees_a_linalg_norm():
    sources = {
        "tensor": "import numpy as np\nfrom numpy import linalg\n"
                  "def size(t):\n    return np.linalg.norm(t) + linalg.norm(t)\n"
                  "def _norm(t):\n    return np.sqrt(t.dot(t))\n",
        "cli": "from numpy.linalg import norm, svd\nfrom .tensor import _norm\nprint(norm, svd, _norm)\n",
    }
    assert linalg_norm_references(sources) == ["cli.py:1", "tensor.py:4", "tensor.py:4"]


def test_every_norm_goes_through_the_one_kernel():
    assert linalg_norm_references(library_sources()) == []
