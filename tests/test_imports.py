"""No module of the package imports a name at module level that it never
uses, unless the import's line says ``# noqa: F401`` (a re-export). No lint
package is needed: the check reads each module with ``ast``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "cmfda").glob("*.py")
    if path.name != "__init__.py"
)


def _bound_names(node):
    """The names that a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used_names(tree):
    """Every name the module reads, in code, in string annotations and in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                 args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= {n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    unused = [
        f"{path.name}:{node.lineno}: {name}"
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        if not any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for name in _bound_names(node) if name not in used
    ]
    assert not unused, "unused imports: " + ", ".join(unused)
