"""pcood exports no name that nothing but its own tests uses, its
streams are binary at every boundary, every parameter it takes is read,
and the README's Library examples run."""

import ast
import re
from pathlib import Path

import numpy as np

import pcood
from pcodref import synth_pair

_PACKAGE = Path(pcood.__file__).resolve().parent
_README = _PACKAGE.parents[1] / "README.md"


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


def test_dir_lists_every_export_once_sorted():
    names = dir(pcood)
    assert names == sorted(set(names))
    assert set(pcood.__all__) <= set(names)


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


def _unread_parameters(path: Path) -> list:
    """(line, function, parameter) of each parameter of a function or
    lambda in a module that its body never reads."""
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found.extend((node.lineno, name, p.arg) for p in params
                     if p is not None and p.arg not in read)
    return sorted(found)


def test_every_parameter_is_read():
    found = {path.name: unread for path in sorted(_PACKAGE.glob("*.py"))
             if (unread := _unread_parameters(path))}
    assert found == {}


def test_the_parameter_check_sees_unread_parameters(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(a, b, *args, c, **kw):\n    return a + c\n"
                      "g = lambda x, y: y\n"
                      "def h(p):\n    def inner():\n        return p\n"
                      "    return inner\n")
    assert _unread_parameters(module) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (3, "<lambda>", "x")]


def _library_examples() -> list:
    """The ```python blocks of the README's "Library" section."""
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    examples = _library_examples()
    assert len(examples) >= 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "id.pcod").write_bytes(synth_pair(50, 4, 20, 1.0, 7)[0])
    for example in examples:
        namespace = {"probs": np.full((6, 4), 0.25)}
        exec("import io\nimport numpy as np\nfrom pcood import *", namespace)
        exec(compile(example, str(_README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "True " in out and "1.0 1\n" in out
