"""Each library module uses every name it imports, every private
module-level name is read by some library module and no private
module-level constant is bound in two of them, the needle record's
format stays inside ``densities``, the cross grid's inside ``needle_bound``
and the catalog record's inside ``cross_spaces``, only ``densities`` tests
for NaN, ``solver`` reaches the needle bounds only through their cores and
the catalog only through its record and ``polar_of``, the package exports
exactly its public names, and the README lists each under its module.

No linter ships with the project, so this walks each module's syntax tree:
a name an import binds must be read somewhere in the module, unless its
line is marked ``noqa``.
"""

import ast
import importlib
import re
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


def test_readme_lists_every_public_name_under_its_module():
    # the "Public names" list is __all__, each name once, on its module's line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        if line.startswith("* `"):
            module, names = line[2:].split(":", 1)
            owner = importlib.import_module(f"needle_iso.{module.strip('`')}")
            listed += [(name, owner) for name in re.findall(r"`(\w+)`", names)]
    assert sorted(name for name, _ in listed) == sorted(needle_iso.__all__)
    for name, owner in listed:
        assert getattr(owner, name) is getattr(needle_iso, name), name


def _private_definitions(tree):
    """The private module-level functions, classes and constants a module
    defines (one leading underscore: dunders are Python's)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        names |= _assigned(node)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _assigned(node):
    """The names a module-level statement binds by assignment."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _reads(tree):
    """Every name a module reads: bare names loaded, and attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def _dead_private_names(sources):
    """The private module-level names of ``sources`` (module name -> source)
    that no module reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return {f"{name}.{d}" for name, tree in trees.items() for d in _private_definitions(tree) - read}


def test_finds_a_dead_private_helper():
    sources = {
        "a": "_LIMIT = 3\n_TABLE: dict = {}\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n",
        "b": "from a import _used\n\nclass _Old:\n    pass\n\nprint(_used(), a._TABLE)\n__all__ = []\n",
    }
    assert _dead_private_names(sources) == {"a._dead", "b._Old"}


def test_every_private_name_is_read():
    # a refactor leaves no dead helper behind
    sources = {p.stem: p.read_text() for p in _MODULES + [Path(needle_iso.__file__)]}
    assert _dead_private_names(sources) == set()


def _shared_private_constants(sources):
    """The private names bound by a module-level assignment in more than one
    of ``sources`` (module name -> source), each with its sorted modules;
    an import shares a name's one binding and is not counted."""
    owners = {}
    for name, src in sources.items():
        for node in ast.parse(src).body:
            for const in _assigned(node):
                if const.startswith("_") and not const.startswith("__"):
                    owners.setdefault(const, set()).add(name)
    return {const: sorted(mods) for const, mods in owners.items() if len(mods) > 1}


def test_finds_a_shared_private_constant():
    sources = {
        "a": "_TOL = 1e-12\n_LIMIT = 3\n__all__ = []\n",
        "b": "_TOL: float = 1e-10\n__all__ = ['x']\n",
        "c": "from a import _LIMIT\n",
    }
    assert _shared_private_constants(sources) == {"_TOL": ["a", "b"]}


def test_no_private_constant_is_bound_in_two_modules():
    # one name, one value: a tolerance read in one module is not another's
    sources = {p.stem: p.read_text() for p in _MODULES + [Path(needle_iso.__file__)]}
    assert _shared_private_constants(sources) == {}


def _names_in(tree):
    """Every identifier a module binds or reads: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name


# Each record's format stays in the one module that owns it: only densities
# builds or slices a _Needle (through _fold and _take), only needle_bound
# names the cross grid's _Grid, and only cross_spaces a catalog's _Record.
_OWNERS = {"_Needle": "densities", "_Grid": "needle_bound", "_Record": "cross_spaces"}


@pytest.mark.parametrize(
    "name, path",
    [(name, p) for name, owner in _OWNERS.items() for p in _MODULES if p.stem != owner],
    ids=lambda x: x if isinstance(x, str) else x.stem,
)
def test_record_stays_in_its_module(name, path):
    assert name not in set(_names_in(ast.parse(path.read_text())))


# The NaN rule has one home: the quantile kernel in densities raises at a
# target it has no answer for, so no module downstream tests for NaN.
@pytest.mark.parametrize("path", [p for p in _MODULES if p.stem != "densities"], ids=lambda p: p.stem)
def test_nan_rule_stays_in_densities(path):
    assert "isnan" not in set(_names_in(ast.parse(path.read_text())))


# A solve checks its inputs once, in SolveRequest and the solver's public
# entries: solver calls the needle bounds' cores, and the public bounds,
# whose checks are for callers outside the solve path, stay out of it.
_PUBLIC_BOUNDS = {"sphere_needle_bound", "cross_needle_bound", "cross_needle_bounds"}


def test_solver_calls_only_the_bound_cores():
    (path,) = [p for p in _MODULES if p.stem == "solver"]
    assert _PUBLIC_BOUNDS.isdisjoint(_names_in(ast.parse(path.read_text())))


# Likewise on the catalog path: solver reads the cached catalog record and
# its rows, and of the public catalog readers names only polar_of.
_PUBLIC_CATALOG_READERS = {"catalog", "profile_cdf", "profile_quantile", "enlarged_volume"}


def test_solver_reads_the_catalog_record_not_its_public_readers():
    (path,) = [p for p in _MODULES if p.stem == "solver"]
    assert _PUBLIC_CATALOG_READERS.isdisjoint(_names_in(ast.parse(path.read_text())))
