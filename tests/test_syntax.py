"""The package, the benchmark harness and the tests parse as Python 3.10,
the oldest version pyproject.toml and the CI matrix support, and every
package module and test module uses the names it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/helpdp/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
SOURCES = sorted([*MODULES, *ROOT.glob("bench/*.py"), *TESTS])


def parses_as_310(source: str, name: str) -> bool:
    try:
        ast.parse(source, name, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    assert parses_as_310(path.read_text(encoding="utf-8"), str(path))


def test_the_check_rejects_newer_syntax():
    assert SOURCES
    assert not parses_as_310("try:\n    pass\nexcept* ValueError:\n    pass\n", "except_star")


def unused_imports(source: str, name: str) -> list[str]:
    """Names that ``source`` binds by import and never reads.  An import on
    a line marked ``# noqa: F401`` is kept on purpose (a re-export, say), and
    ``from __future__`` binds nothing."""
    tree = ast.parse(source, name)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in read]


@pytest.mark.parametrize("path", [*MODULES, *TESTS], ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_the_check_finds_an_unused_import():
    assert unused_imports("import json\nimport math\nmath.pi\n", "m") == ["m:1 json"]
    assert unused_imports("from a import b as c  # noqa: F401\nfrom __future__ import annotations\n", "m") == []
