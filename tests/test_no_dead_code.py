"""Every module-level name and class member in ``src/coverwin`` has a use.

Each top-level function, class and constant of a module ``m`` in
``src/coverwin/*.py`` must be loaded as a bare name in ``m``, imported by
name from ``m`` or read as ``m.x`` in ``src/coverwin/`` or ``perfbench/``,
be named as ``(m, "x")`` in a call or tuple in ``perfbench/`` (its patch
points), or be exported in ``coverwin.__all__``; a name alone, such as a
string that happens to match, is no use.  Each method and property of a
top-level class, dunders excluded, must be referenced there by its name.
A member whose name is also a data attribute of another class there (a
dataclass field or a ``self.x =`` assignment) counts as used only through
``self`` inside its own class, since ``obj.x`` elsewhere may read that
attribute.  Tests do not count as a use: code kept only for its tests is
listed below with the reason it stays.  Every name a module imports, at any
depth and ``from __future__`` aside, must be loaded in that module.  Every
``self.x =`` in a top-level class must store an ``x`` that some attribute
read in ``src/coverwin/`` or ``perfbench/`` names; ``self.x += ...`` is no
read.
"""

from __future__ import annotations

import ast
import glob
import os
from collections import Counter

import coverwin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = glob.glob(os.path.join(ROOT, "src", "coverwin", "*.py"))
CALLERS = SRC + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))

ALLOWED: dict[str, str] = {}
ALLOWED_MEMBERS = {
    "_StreamHandler.handle": "socketserver calls it for each connection",
    "AdaptiveWindow.threshold": "criterion 2 compares the per-event ct "
    "trajectory with the batch oracle through it, and the floor-only property "
    "test reads ct through it",
}
ALLOWED_ATTRIBUTES = {
    "ParseError.line_no": "ParseError is exported in coverwin.__all__, and a "
    "caller that catches one reads the failing line's number there; the "
    "stream_io tests do",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fp:
        return ast.parse(fp.read(), path)


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, dunders excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not _dunder(n)]


def class_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for the methods and properties of top-level classes."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _dunder(item.name)
    ]


def _self_attributes(node: ast.ClassDef) -> list[ast.Attribute]:
    return [
        a
        for a in ast.walk(node)
        if isinstance(a, ast.Attribute)
        and isinstance(a.value, ast.Name)
        and a.value.id == "self"
    ]


def data_attributes(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for the dataclass fields and ``self.x =`` targets."""
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.add((node.name, item.target.id))
        for a in _self_attributes(node):
            if isinstance(a.ctx, ast.Store):
                found.add((node.name, a.attr))
    return found


def self_references(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each ``self.name`` read inside a top-level class."""
    return {
        (node.name, a.attr)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for a in _self_attributes(node)
        if isinstance(a.ctx, ast.Load)
    }


def references(tree: ast.Module) -> Counter:
    """Loads of a name, attribute accesses and string constants."""
    seen: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def used_names() -> Counter:
    used: Counter = Counter()
    for path in CALLERS:
        used += references(_parse(path))
    return used


def module_of(path: str) -> str:
    name = os.path.splitext(os.path.basename(path))[0]
    return "coverwin" if name == "__init__" else name


def module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> module, for ``from . import m`` and ``from coverwin import m``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "coverwin")
        for alias in node.names
    }


def module_uses(tree: ast.Module, own: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs ``tree`` uses: bare loads in module ``own``,
    imports by name, ``m.x`` reads and, outside ``src/`` (``own`` None),
    ``(m, "x")`` items of a call or tuple."""
    modules = module_aliases(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            used.add((own, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            used.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.add((modules[node.value.id], node.attr))
        elif own is None and isinstance(node, (ast.Call, ast.Tuple)):
            items = node.args if isinstance(node, ast.Call) else node.elts
            for owner, name in zip(items, items[1:]):
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in modules
                    and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)
                ):
                    used.add((modules[owner.id], name.value))
    return used


def unused_names() -> set[str]:
    used = set()
    for path in CALLERS:
        used |= module_uses(_parse(path), module_of(path) if path in SRC else None)
    return {
        f"{module_of(path)}.{name}"
        for path in SRC
        for name in defined_names(_parse(path))
        if (module_of(path), name) not in used and name not in coverwin.__all__
    }


def unused_members() -> set[str]:
    used = used_names()
    trees = [_parse(path) for path in SRC]
    members = {m for tree in trees for m in class_members(tree)}
    data = {d for tree in trees for d in data_attributes(tree)}
    via_self = {r for tree in trees for r in self_references(tree)}
    unused = set()
    for cls, name in members:
        shared = any(owner != cls and attr == name for owner, attr in data)
        if not ((cls, name) in via_self if shared else used[name]):
            unused.add(f"{cls}.{name}")
    return unused


def unused_imports() -> set[str]:
    """``module.name`` for each name a module in ``src/`` imports and never loads."""
    unused = set()
    for path in SRC:
        tree = _parse(path)
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.add(f"{module_of(path)}.{name}")
    return unused


def unread_attributes() -> set[str]:
    """``Class.x`` for each ``self.x`` a top-level class in ``src/`` stores
    where no attribute that ``src/`` or ``perfbench/`` reads is named ``x``."""
    read = {
        node.attr
        for path in CALLERS
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{node.name}.{a.attr}"
        for path in SRC
        for node in _parse(path).body
        if isinstance(node, ast.ClassDef)
        for a in _self_attributes(node)
        if isinstance(a.ctx, ast.Store) and a.attr not in read
    }


def test_every_module_level_name_has_a_caller():
    assert unused_names() == set(ALLOWED)


def test_every_class_member_has_a_caller():
    assert unused_members() == set(ALLOWED_MEMBERS)


def test_every_import_is_loaded():
    assert unused_imports() == set()


def test_every_instance_attribute_is_read():
    assert unread_attributes() == set(ALLOWED_ATTRIBUTES)
