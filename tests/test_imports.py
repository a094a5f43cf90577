from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, as 'line: name'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def _unread_private_names(paths: list[Path]) -> list[str]:
    """Module-level ``_names`` that no module in ``paths`` reads, as 'file:line: name'.

    A read is a loaded name, an attribute or an imported name.
    """
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    out = []
    for p, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [f"{p.name}:{node.lineno}: {name}" for name in names
                    if name.startswith("_") and not name.startswith("__") and name not in read]
    return out


def test_no_unused_imports():
    # The package's __init__.py imports only to re-export.
    paths = [p for p in sorted(ROOT.glob("src/eqlat/*.py")) if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py"))
    assert len(paths) > 10
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := _unused_imports(p))}
    assert unused == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport json.decoder\nfrom typing import Any, Sequence\nx: Sequence = json\n")
    assert _unused_imports(module) == ["1: os", "3: Any"]


def test_every_private_module_name_is_read():
    paths = sorted(ROOT.glob("src/eqlat/*.py"))
    assert len(paths) > 5
    assert _unread_private_names(paths) == []


def test_the_scan_sees_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_CAP = 3\n_table: dict = {}\n\n\ndef _used():\n    return _CAP\n\n\n"
        "def _gone():\n    return 1\n\n\nclass _Left:\n    _inner = 1\n"
    )
    (tmp_path / "b.py").write_text("from a import _used\nimport a\n\nx = a._table\n")
    assert _unread_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == ["a.py:9: _gone", "a.py:13: _Left"]


def _private_imports(paths: list[Path]) -> list[str]:
    """Every ``from .mod import _name`` in ``paths``, function-level ones included, as 'importer: mod._name'."""
    out = []
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                out += [f"{p.stem}: {node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")]
    return sorted(out)


def test_cross_module_private_imports_are_pinned():
    # A private twin of a public function shows up here as a diff.
    assert _private_imports(sorted(ROOT.glob("src/eqlat/*.py"))) == [
        "checks: congruence._Batch",
        "checks: congruence._simple_over",
        "checks: galois._filterable_interior",
        "cli: corpus._BUILDERS",
        "galois: congruence._closed_of",
    ]


def test_the_scan_sees_a_private_import(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\nfrom .a import _x, y\nfrom b import _z\n\n\n"
        "def f():\n    from .c import _w\n"
    )
    assert _private_imports([tmp_path / "m.py"]) == ["m: a._x", "m: c._w"]


def _module_imports(path: Path) -> list[str]:
    """The package modules that ``path`` imports relatively, function-level imports included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [alias.name for alias in node.names])
    return sorted(out)


def test_module_import_graph_is_pinned():
    # congruence and interior import neither each other nor any module that
    # does, so the Con layer and the axiom battery build on order alone.
    assert {p.stem: _module_imports(p) for p in sorted(ROOT.glob("src/eqlat/*.py"))} == {
        "__init__": ["checks", "congruence", "corpus", "errors", "galois", "interior", "order",
                     "semilattice"],
        "checks": ["congruence", "corpus", "errors", "galois", "interior", "semilattice"],
        "cli": ["checks", "congruence", "corpus", "errors", "interior", "order", "semilattice"],
        "congruence": ["errors", "order", "semilattice"],
        "corpus": ["congruence", "errors", "galois", "interior", "order", "semilattice"],
        "errors": [],
        "galois": ["congruence", "errors", "interior", "order", "semilattice"],
        "interior": ["errors", "order"],
        "order": ["errors"],
        "semilattice": ["errors", "order"],
    }


def test_the_scan_sees_every_module_import(tmp_path):
    (tmp_path / "m.py").write_text(
        "from . import a, b\nfrom .c import x\nfrom d import y\nimport e\n\n\n"
        "def f():\n    from .g import z\n"
    )
    assert _module_imports(tmp_path / "m.py") == ["a", "b", "c", "g"]
