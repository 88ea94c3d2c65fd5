"""Package hygiene, checked with `ast` alone: the public names resolve, and
no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import robpop

MODULES = sorted(Path(robpop.__file__).parent.glob("*.py"))


def test_every_public_name_resolves():
    assert [name for name in robpop.__all__ if not hasattr(robpop, name)] == []


def unused_imports(path: Path) -> list[str]:
    """The names `path` imports and never reads, but for import statements
    marked `# noqa: F401`; a name `__all__` lists counts as read."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import math\nimport os  # noqa: F401\n"
                      "from json import dumps, loads\n"
                      "__all__ = ['loads']\n")
    assert unused_imports(module) == ["module.py:1: math",
                                      "module.py:3: dumps"]
