"""Every name a subpackage exports is used outside its ``__init__``.

Each ``src/repro/<package>/__init__.py`` lists its public names in
``__all__``. A name that nothing in ``src/`` (outside that ``__init__``),
``examples/`` or ``perfbench/`` refers to, as a name, an attribute or an
import, is surface that no entry point reaches: delete it or use it. Tests
do not count as users, so a capability kept alive only by its own tests
fails here.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: The trees whose code counts as a user of an exported name.
USERS = ("src", "examples", "perfbench")


def exported_names(init: Path) -> list[str] | None:
    """The names in the ``__all__`` of one ``__init__.py`` (``None``: no
    ``__all__``)."""
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return list(ast.literal_eval(node.value))
    return None


PACKAGES = [init for init in sorted((ROOT / "src" / "repro").glob("*/__init__.py"))
            if exported_names(init) is not None]


@lru_cache(maxsize=None)
def referenced_names(path: Path) -> frozenset[str]:
    """Every name, attribute and imported name one module refers to."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    return frozenset(names)


@pytest.mark.parametrize("init", PACKAGES, ids=lambda init: init.parent.name)
def test_every_export_has_a_user(init):
    used = set()
    for tree in USERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path != init:
                used |= referenced_names(path)
    unused = [name for name in exported_names(init) if name not in used]
    assert not unused, (f"{init.parent.name}.__all__ exports names nothing "
                        f"in {', '.join(USERS)} uses: {', '.join(unused)}")
