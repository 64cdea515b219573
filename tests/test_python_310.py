"""The code stays within Python 3.10, the oldest version ``pyproject.toml``
accepts, also when the tests run on a newer one.

``ast.parse(..., feature_version=(3, 10))`` refuses the newer grammar the
parser knows to gate (``except*``, for one).  Regular expressions are
checked apart: possessive quantifiers and atomic groups came in 3.11, and
on 3.10 ``re.compile`` refuses them only at import time.
"""

from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
SOURCES = SRC + [
    path
    for folder in ("tests", "perfbench")
    for path in glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True)
]
PYTHON_311_REGEX = ("*+", "++", "?+", "}+", "(?>")


def _parse(path: str, **kwargs) -> ast.Module:
    with open(path, encoding="utf-8") as fp:
        return ast.parse(fp.read(), path, **kwargs)


def test_every_module_parses_as_python_3_10():
    assert SRC
    for path in SOURCES:
        _parse(path, feature_version=(3, 10))


def test_compiled_patterns_use_no_python_311_syntax():
    patterns = [
        ast.literal_eval(node.args[0])
        for path in SRC
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    ]
    assert patterns
    for pattern in patterns:
        assert not [s for s in PYTHON_311_REGEX if s in pattern], pattern
