"""The package, the benchmark harness and the tests parse as Python 3.10,
the oldest version pyproject.toml and the CI matrix support."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/helpdp/*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("tests/*.py")])


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
