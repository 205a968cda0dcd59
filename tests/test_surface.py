"""Every public function and class of the package has a user.

A user is a reference in the package itself, in the bench (``perfbench``)
or in the acceptance suite. Unit tests alone do not count, and neither does
an export from ``uavlink/__init__.py``: a helper only they reach belongs in
the tests or nowhere.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uavlink"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _public_definitions(path: pathlib.Path) -> list[str]:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(path: pathlib.Path) -> set[str]:
    """Names read or called, attributes, and the parts of dotted-name
    strings such as the tracer's ``"pso.solve_joint"``; an import alone is
    not a reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.:]+", node.value)):
            names.update(re.split(r"[.:]", node.value))
    return names


def test_every_public_name_has_a_user_outside_the_unit_tests():
    referenced = set().union(*map(_referenced_names, USERS))
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_definitions(path) if name not in referenced]
    assert unused == []
