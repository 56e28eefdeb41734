"""Layout guards over the package source.

Every module in src/simpeff declares its API in __all__, and every name
there exists in the module.  A module-level function or class in __all__
must be named somewhere in src/ or tests/ outside its own definition; one
outside __all__ must be named in src/, since tests do not count as its
callers, so a fixture or check that only tests use belongs in tests/.  Every non-dunder method of a class in src/simpeff must be read
as an attribute in src/ or tests/, and a method name that more than one
class defines must be one of PROTOCOL, so that a dead method cannot hide
behind a live one of the same name.  Every name a module in src/ imports
must be used in that module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "simpeff").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# method names that several classes implement as one protocol
PROTOCOL = {"check_shape", "from_json_dict", "to_json_dict", "validate"}


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


def _declared(tree):
    """The names listed in the module's __all__, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _bound(tree):
    """The names the module binds at top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
    return out


def test_every_module_declares_its_api():
    missing, unknown = [], []
    for path in SRC:
        tree = _parse(path)
        declared = _declared(tree)
        if declared is None:
            missing.append(path.name)
            continue
        unknown += [f"{path.name} {name}" for name in declared if name not in _bound(tree)]
    assert not missing
    assert not unknown


def _uses(paths):
    """How often each identifier is read across the given files."""
    uses = {}
    for path in paths:
        for name in _names(_parse(path)):
            uses[name] = uses.get(name, 0) + 1
    return uses


def test_every_definition_is_used():
    in_src, anywhere = _uses(SRC), _uses(SRC + TESTS)
    unused = []
    for path in SRC:
        tree = _parse(path)
        api = set(_declared(tree) or ())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses = anywhere if node.name in api else in_src
                own = _names(node).count(node.name)  # recursive calls
                if uses.get(node.name, 0) == own:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused


def test_every_method_is_read_and_named_by_one_class():
    attrs = {sub.attr for path in SRC + TESTS for sub in ast.walk(_parse(path))
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    owners, unread = {}, []
    for path in SRC:
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    owners.setdefault(fn.name, []).append(node.name)
                    if fn.name not in attrs:
                        unread.append(f"{path.name}:{fn.lineno} {node.name}.{fn.name}")
    shared = {name: classes for name, classes in owners.items()
              if len(classes) > 1 and name not in PROTOCOL}
    assert not unread
    assert not shared


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
