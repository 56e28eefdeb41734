"""Layout guards over the package source.

Every module in src/simpeff declares its API in __all__, and every name
there exists in the module.  A module-level function or class in __all__
must be used somewhere in src/ or tests/ outside its own definition; one
outside __all__ must be used in src/, since tests do not count as its
callers, so a fixture or check that only tests use belongs in tests/.  A
use is keyed by module: a bare name counts only in the defining module, and
elsewhere only an attribute of that module's import alias or a
`from simpeff.<module> import` of the name counts, so a dead function
cannot hide behind an attribute of the same name read off another object.
Every non-dunder method of a class in src/simpeff must be read as an
attribute in src/ or tests/, and a method name that more than one class
defines must be one of PROTOCOL, so that a dead method cannot hide behind a
live one of the same name.  Every name a module in src/ imports must be
used in that module.  Every from_json_dict in src/ must have a caller in
src/, since an input format is one the CLI reads.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "simpeff").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# method names that several classes implement as one protocol
PROTOCOL = {"check_shape", "from_json_dict", "to_json_dict", "validate"}


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


def _package_module(node):
    """The simpeff module an ImportFrom node reads from: '' for the package
    itself, None for a module outside it.  Relative imports occur only in src/."""
    if node.level:
        return node.module or ""
    package, _, module = (node.module or "").partition(".")
    return module if package == "simpeff" else None


def _uses(path, module=None):
    """The (module, name) pairs the file reads, one per occurrence: a bare
    name counts for module, the file's own when it is in src/; an attribute
    of an imported simpeff module counts for that module, and so does each
    name of a `from simpeff.<module> import`."""
    tree = _parse(path)
    aliases, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _package_module(node)) is not None:
            for alias in node.names:
                if mod:
                    out.append((mod, alias.name))
                else:  # from simpeff import nerve as nv
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name[len("simpeff."):]) for alias in node.names
                           if alias.asname and alias.name.startswith("simpeff."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
            out.append((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            out.append((aliases[node.value.id], node.attr))
    return out


def _unused_definitions(src, tests):
    """The module-level functions and classes of the src/ files that nothing
    uses by the rules in the module docstring, as "file:line name"."""
    in_src = Counter(use for path in src for use in _uses(path, path.stem))
    anywhere = in_src + Counter(use for path in tests for use in _uses(path))
    unused = []
    for path in src:
        tree = _parse(path)
        api = set(_declared(tree) or ())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses = anywhere if node.name in api else in_src
                own = sum(1 for sub in ast.walk(node)  # recursive calls
                          if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                          and sub.id == node.name)
                if uses[(path.stem, node.name)] == own:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_used():
    assert not _unused_definitions(SRC, TESTS)


def test_a_use_counts_only_for_its_own_module(tmp_path):
    """A dead function is reported although another module reads an
    attribute of the same name; an attribute of the defining module's
    import alias is a use."""
    (tmp_path / "src").mkdir()
    cli, cyclic = tmp_path / "src" / "cli.py", tmp_path / "src" / "cyclic.py"
    test = tmp_path / "t.py"
    cli.write_text('__all__ = ["main"]\n\nfrom . import cyclic as cyc\n\n\n'
                   'def main(x):\n    return cyc.show(x)\n\n\n'
                   'def label(n):\n    return str(n)\n')
    test.write_text("from simpeff import cli\n\ncli.main(None)\n")
    cyclic.write_text('__all__ = ["show"]\n\n\ndef show(x):\n    return x.label(0)\n')
    assert _unused_definitions([cli, cyclic], [test]) == ["cli.py:10 label"]
    cyclic.write_text('__all__ = ["show"]\n\nfrom . import cli\n\n\n'
                      'def show(x):\n    return cli.label(x)\n')
    assert _unused_definitions([cli, cyclic], [test]) == []


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


def _unread_readers(src):
    """The classes of the src/ files whose from_json_dict no src/ line calls,
    as "file:line Class"; a call reads X.from_json_dict with X the class's
    name, bare or as an attribute of a module."""
    called, readers = set(), []
    for path in src:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and node.attr == "from_json_dict":
                called.add(getattr(node.value, "attr", getattr(node.value, "id", None)))
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(fn, ast.FunctionDef) and fn.name == "from_json_dict"
                    for fn in node.body):
                readers.append((path.name, node.lineno, node.name))
    return [f"{name}:{line} {cls}" for name, line, cls in readers if cls not in called]


def test_every_input_format_has_a_reader_in_src(tmp_path):
    """An input format is read by the CLI, so every from_json_dict in src/
    has a caller there: the magma, effect-algebra, group, sset and cyclic
    readers do, and a reader that nothing calls is reported."""
    assert not _unread_readers(SRC)
    dead = tmp_path / "palg.py"
    dead.write_text("class Datum:\n    @staticmethod\n    def from_json_dict(d):\n"
                    "        return Datum()\n")
    assert _unread_readers(SRC + [dead]) == ["palg.py:1 Datum"]
