"""Guard for `requires-python = ">=3.10"` on a newer interpreter.

These checks catch syntax only: grammar that Python 3.10 cannot parse
(`except*`, for one) and the possessive quantifiers and atomic groups that
`re` accepts only from 3.11 on. They do not catch stdlib API drift, such as
a function or keyword argument added after 3.10; only a 3.10 run does.
"""
import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import chromatic

PACKAGE = Path(chromatic.__file__).resolve().parent
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))
NEWER_REGEX = ("*+", "++", "?+", "(?>")


def newer_regex(text: str) -> bool:
    return any(token in text for token in NEWER_REGEX)


def module_strings(value):
    """Strings and compiled patterns held by a module-level value, through
    dicts, sequences and dataclass instances such as `backend.DIALECTS`."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, re.Pattern):
        yield str(value.pattern)
    elif isinstance(value, dict):
        for item in value.values():
            yield from module_strings(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from module_strings(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from module_strings(getattr(value, f.name))


def test_every_source_module_parses_as_python_310():
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_string_uses_311_regex_syntax():
    hits = [(path.name, node.lineno, node.value)
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and newer_regex(node.value)]
    for info in pkgutil.iter_modules(chromatic.__path__, "chromatic."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            hits += [(info.name, name, text) for text in module_strings(value)
                     if newer_regex(text)]
    assert hits == []
