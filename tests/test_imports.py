"""Static ``ast`` checks of the imports under ``src/repro``.

The toolchain has no pyflakes or ruff, so two rules are checked here:

* Every import is read by the module that makes it.  A module reads an
  imported name when the name appears as an identifier anywhere in it,
  inside a quoted annotation (``"VectorIndex"``,
  ``Optional["LogSnapshot"]``), or in its ``__all__``.  Package
  ``__init__.py`` files, whose imports are re-exports, and
  ``from __future__`` imports are not checked.
* The serving tiers sit on top: no module outside ``repro/service/``,
  ``repro/cluster/`` and the top-level ``repro/__init__.py`` imports
  ``repro.service`` or ``repro.cluster``.  The algorithm, log and
  evaluation layers run without sessions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _imported(tree):
    """``(line, bound name)`` of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    """Every name the module reads, by identifier, quoted annotation or ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {element.value for element in node.value.elts}
    return names


def unused_imports(source):
    """``(line, name)`` of each import in *source* that the module never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted((line, name) for line, name in _imported(tree) if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: The packages only the serving tiers themselves may import.
SERVING = ("repro.service", "repro.cluster")

BELOW_SERVING = sorted(
    path
    for path in SRC.rglob("*.py")
    if path.relative_to(SRC).parts[0] not in ("service", "cluster")
    and path != SRC / "__init__.py"
)


def serving_imports(source):
    """``(line, module)`` of each import in *source* of a :data:`SERVING` package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module]
            if node.module == "repro":
                modules += [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend(
            (node.lineno, module)
            for module in modules
            if any(module == top or module.startswith(top + ".") for top in SERVING)
        )
    return sorted(found)


@pytest.mark.parametrize("path", BELOW_SERVING, ids=lambda path: str(path.relative_to(SRC)))
def test_no_layer_below_the_serving_tiers_imports_them(path):
    assert serving_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from repro.service.service import RetrievalService\n",
         [(1, "repro.service.service")]),
        ("import repro.cluster.router\n", [(1, "repro.cluster.router")]),
        ("def f():\n    from repro import service\n", [(2, "repro.service")]),
        ("from repro.services import x\nfrom repro.feedback import base\n", []),
    ],
    ids=["from-submodule", "dotted-import", "lazy-from-package", "look-alikes"],
)
def test_the_layering_check_sees_what_it_claims(source, found):
    assert serving_imports(source) == found


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from typing import List, Optional\nx: List[int] = []\n", [(1, "Optional")]),
        ("from a import b as c\nb()\n", [(1, "c")]),
        ("from __future__ import annotations\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from m import T\n"
         "def f(x: 'T') -> None: ...\n", []),
        ("from m import T\ndef f(x: 'Optional[T]'): ...\n", []),
        ("from m import T\n__all__ = ['T']\n", []),
        ("from m import T\nprint('T')\n", [(1, "T")]),
    ],
    ids=[
        "bare-import", "dotted-import", "one-of-two", "alias", "future",
        "type-checking-annotation", "nested-quoted-annotation", "re-export",
        "string-is-not-a-read",
    ],
)
def test_the_check_sees_what_it_claims(source, unused):
    assert unused_imports(source) == unused
