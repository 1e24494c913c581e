"""No module of the package imports a name at module level that it never
uses, unless the import's line says ``# noqa: F401`` (a re-export), every
name that a module defines at module level is read somewhere, and no code
but ``dataio.write_file`` writes a file. No lint package is needed: the
checks read each file with ``ast``."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cmfda").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]
# Every Python file that may read a name of the package.
READERS = sorted(path for folder in ("src", "scripts", "perfbench", "tests")
                 for path in (ROOT / folder).rglob("*.py"))
# A string such as "PixelSeries.to_arrays": the benchmark tracer names the
# functions it wraps this way.
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _definitions(tree):
    """(name, node) of each function, class and name that the module
    defines at module level; ``node`` is the statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(tree):
    """(name, line) of each name a file reads: as a name, an attribute, an
    imported name or a part of a dotted string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from ((part, node.lineno) for part in node.value.split("."))


def test_every_module_level_name_is_read():
    """A module-level function, class or name of the package is read in
    src/, scripts/, perfbench/ or tests/ outside the statement that
    defines it."""
    reads: dict[str, list] = {}
    for path in READERS:
        for name, line in _reads(ast.parse(path.read_text())):
            reads.setdefault(name, []).append((path, line))
    dead = [
        f"{path.name}:{node.lineno}: {name}"
        for path in PACKAGE
        for name, node in _definitions(ast.parse(path.read_text()))
        if not name.startswith("__")
        and not any(where != path or not node.lineno <= line <= node.end_lineno
                    for where, line in reads.get(name, ()))
    ]
    assert not dead, "names no file reads: " + ", ".join(dead)


# The one function of the package that writes a file (see dataio.write_file).
WRITER = ("dataio.py", "write_file")
WRITE_MODE = re.compile(r"[wax+]")
OS_WRITES = ("replace", "rename", "open", "writev")


def _file_writes(tree, skip: str | None):
    """(line, call) of each call in ``tree`` that opens a file in a write or
    append mode (or a mode not spelled out) or that is ``os.replace``,
    ``os.rename``, ``os.open`` or ``os.writev``, outside the module-level
    function named ``skip``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = next((k.value for k in call.keywords if k.arg == "mode"),
                            call.args[1] if len(call.args) > 1 else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not WRITE_MODE.search(mode.value)):
                    yield call.lineno, ast.unparse(call)
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "os" and func.attr in OS_WRITES):
                yield call.lineno, ast.unparse(call)


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_only_write_file_writes_files(path):
    """No module of the package opens a file for writing or renames one
    except through dataio.write_file, which writes every file whole or not
    at all."""
    skip = WRITER[1] if path.name == WRITER[0] else None
    writes = [f"{path.name}:{line}: {call}"
              for line, call in _file_writes(ast.parse(path.read_text()), skip)]
    assert not writes, "files written outside dataio.write_file: " + ", ".join(writes)
