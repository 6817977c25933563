"""pcood exports no name that nothing but its own tests uses."""

import ast
from pathlib import Path

import pcood


def _references(path: Path) -> set:
    """Names a module reads or imports; a definition is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_inside_pcood():
    package = Path(pcood.__file__).resolve().parent
    used = set().union(*(_references(path) for path in package.glob("*.py")
                         if path.name != "__init__.py"))
    assert sorted(set(pcood.__all__) - used) == []
