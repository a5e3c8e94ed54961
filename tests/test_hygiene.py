"""Source hygiene checks that need no linter: an AST scan of the package."""

import ast
import pathlib

import wickns

PACKAGE = pathlib.Path(wickns.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in __all__ count
    as read, so re-exports pass."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_scan_flags_only_unread_names():
    src = "import os\nimport numpy as np\nfrom a import b, c as d\n__all__ = ['b']\nnp.zeros(os.sep)\n"
    assert unused_imports(src) == ["d (line 3)"]


def test_package_has_no_unused_imports():
    found = {
        path.name: bad
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (bad := unused_imports(path.read_text()))
    }
    assert found == {}
