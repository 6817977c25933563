"""pcood exports no name that nothing but its own tests uses, and its
streams are binary at every boundary."""

import ast
from pathlib import Path

import pcood

_PACKAGE = Path(pcood.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _references(path: Path) -> set:
    """Names a module reads or imports; a definition is not a reference."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_inside_pcood():
    used = set().union(*(_references(path) for path in _PACKAGE.glob("*.py")
                         if path.name != "__init__.py"))
    assert sorted(set(pcood.__all__) - used) == []


def test_errors_are_validation_or_truncated_stream():
    errors = {name for name in pcood.__all__
              if isinstance(getattr(pcood, name), type)
              and issubclass(getattr(pcood, name), Exception)}
    assert errors == {"PcoodError", "TruncatedStreamError", "ValidationError"}


def _open_mode(call: ast.Call):
    """The mode of an ``open(...)`` or ``os.fdopen(...)`` call: its text
    where it is a literal, "r" where it is left out, else None."""
    mode = [kw.value for kw in call.keywords if kw.arg == "mode"]
    mode = mode or call.args[1:2]
    if not mode:
        return "r"
    if isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str):
        return mode[0].value
    return None


def _text_layer_uses(path: Path) -> list:
    """(line, what) of each text-mode open and text stream in a module."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in ("open", "fdopen"):
                mode = _open_mode(node)
                if mode is None or "b" not in mode:
                    found.append((node.lineno, f"{name} mode {mode!r}"))
        if isinstance(node, ast.Attribute) and node.attr in ("StringIO", "TextIOWrapper"):
            found.append((node.lineno, node.attr))
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in ("StringIO", "TextIOWrapper"))
    return sorted(found)


def test_streams_are_binary_at_the_boundary():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert {path.name for path in modules} >= {"_io.py", "cli.py"}
    found = {path.name: uses for path in modules
             if (uses := _text_layer_uses(path))}
    assert found == {}


def test_the_boundary_check_sees_text_mode(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('import io, os\nfrom io import StringIO\nopen(p)\n'
                      'open(p, "r")\nopen(p, mode=m)\nos.fdopen(fd, "w")\n'
                      'io.StringIO()\nopen(p, "rb")\nos.fdopen(fd, mode="wb")\n')
    assert _text_layer_uses(module) == [
        (2, "StringIO"), (3, "open mode 'r'"), (4, "open mode 'r'"),
        (5, "open mode None"), (6, "fdopen mode 'w'"), (7, "StringIO")]
