"""Each library module uses every name it imports.

No linter ships with the project, so this walks each module's syntax tree:
a name an import binds must be read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

import needle_iso

_MODULES = sorted(p for p in Path(needle_iso.__file__).parent.glob("*.py") if p.name != "__init__.py")

# the benchmark's tracer test checks that every module binding sep_1d sees
# one wrapper, so oracles keeps that binding without calling it
_ALLOWED = {("oracles", "sep_1d")}


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi as PI, tau\nprint(np.e, PI)\n"
    assert _unused_imports(source) == {"os", "tau"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    unused = _unused_imports(path.read_text())
    assert {(path.stem, name) for name in unused} <= _ALLOWED
    # an allowance the module no longer needs is stale
    assert {name for module, name in _ALLOWED if module == path.stem} <= unused
