"""Dead-code guard over the package source.

Every module-level function and class in src/simpeff must be named somewhere
in src/ or tests/ outside its own definition, every non-dunder method of a
class in src/simpeff must be read as an attribute there, and every name a
module in src/ imports must be used in that module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "simpeff").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _names(node):
    """Every identifier the node reads, as a bare name or an attribute."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_is_used():
    trees = {path: _parse(path) for path in SRC + TESTS}
    uses = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    attrs = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unused = []
    for path in SRC:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _names(node).count(node.name)  # recursive calls
                if uses.get(node.name, 0) == own:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.name}:{fn.lineno} {node.name}.{fn.name}" for fn in node.body
                           if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
                           and fn.name not in attrs]
    assert not unused


def test_every_import_is_used():
    unused = []
    for path in SRC:
        tree = _parse(path)
        read = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                read.add(sub.id)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused
