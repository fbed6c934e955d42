"""The package, the benchmark harness and the tests parse as Python 3.10,
the oldest version pyproject.toml and the CI matrix support, every
package module and test module uses the names it imports, and every shell
step of the CI workflow parses as bash."""
import ast
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
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


def run_steps(text: str) -> list[tuple[int, str]]:
    """(line number, script) of each ``run:`` value of a workflow, read by
    indentation alone: a value on the key's line, or a ``|`` block of the
    lines indented past the key, with that indentation removed."""
    lines = text.splitlines()
    steps = []
    for n, line in enumerate(lines):
        head, sep, value = line.partition("run:")
        if not sep or head.strip() not in ("", "-"):
            continue
        if value.strip() != "|":
            steps.append((n + 1, value.strip()))
            continue
        block = []
        for body in lines[n + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= len(head):
                break
            block.append(body)
        indent = min(len(b) - len(b.lstrip()) for b in block if b.strip())
        steps.append((n + 1, "\n".join(b[indent:] for b in block).strip() + "\n"))
    return steps


STEPS = run_steps(WORKFLOW.read_text(encoding="utf-8"))


@pytest.mark.parametrize("script", [script for _, script in STEPS], ids=[f"line{n}" for n, _ in STEPS])
def test_workflow_step_parses_as_bash(script):
    proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_workflow_reader_finds_every_step():
    assert len(STEPS) == 9
    sample = "steps:\n  - run: echo one\n  - name: two\n    run: |\n      for x in a b; do\n\n        echo $x\n" \
             "      done\n  - name: three\n    run: echo three\n"
    assert run_steps(sample) == [(2, "echo one"), (4, "for x in a b; do\n\n  echo $x\ndone\n"), (10, "echo three")]
    broken = run_steps("    run: |\n      if true; then\n        echo x\n")[0][1]
    assert subprocess.run(["bash", "-n"], input=broken, capture_output=True, text=True).returncode != 0
