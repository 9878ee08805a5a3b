"""Each library module uses every name it imports, and the package exports
exactly its public names.

No linter ships with the project, so this walks each module's syntax tree:
a name an import binds must be read somewhere in the module, unless its
line is marked ``noqa``.
"""

import ast
import types
from pathlib import Path

import pytest

import needle_iso

_MODULES = sorted(p for p in Path(needle_iso.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """The names imported on lines not marked ``noqa`` that the module never
    reads, and whether a ``noqa`` mark is stale: on a line none of whose
    names is unused."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused, marked = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            if "noqa" in lines[alias.lineno - 1]:
                marked[alias.lineno] = marked.get(alias.lineno, False) or name not in read
            elif name not in read:
                unused.add(name)
    return unused, not all(marked.values())


def test_finds_an_unused_import():
    source = (
        "import os\nimport numpy as np\nfrom math import pi as PI, tau\n"
        "from sys import path  # noqa: F401\nprint(np.e, PI)\n"
    )
    assert _unused_imports(source) == ({"os", "tau"}, False)


def test_finds_a_stale_noqa_mark():
    assert _unused_imports("from math import pi  # noqa: F401\nprint(pi)\n") == (set(), True)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused, stale = _unused_imports(path.read_text())
    assert unused == set()
    assert not stale


def test_all_is_the_public_surface():
    # every public name the package binds is exported, and nothing else:
    # a deleted function leaves no export behind
    public = {
        name for name, value in vars(needle_iso).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(needle_iso.__all__) == sorted(public)
    assert len(set(needle_iso.__all__)) == len(needle_iso.__all__)
