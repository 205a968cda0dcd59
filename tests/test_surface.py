"""Every public function, class, method and property of the package has a
user.

A user is a reference in the package itself, in the bench (``perfbench``)
or in the acceptance suite. Unit tests alone do not count, and neither does
an export from ``uavlink/__init__.py``: a helper only they reach belongs in
the tests or nowhere. A method or property is reached as an attribute
(``rlz.rate_at``) or by a dotted-name string; a bare name of the same
spelling, such as a parameter, does not reach it.

The package also builds a realization in one place only.
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


def _public_members(path: pathlib.Path) -> list[str]:
    """``Class.member`` of each public method and property of the classes
    defined at the top of ``path``."""
    return [f"{cls.name}.{node.name}" for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _referenced_names(path: pathlib.Path, bare: bool = True) -> set[str]:
    """Names read or called (unless not ``bare``), attributes, and the parts
    of dotted-name strings such as the tracer's ``"pso.solve_joint"``; an
    import alone is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            if bare:
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


def test_every_public_method_and_property_has_a_user_outside_the_unit_tests():
    referenced = set().union(*(_referenced_names(path, bare=False)
                               for path in USERS))
    unused = [f"{path.stem}.{member}" for path in sorted(PACKAGE.glob("*.py"))
              for member in _public_members(path)
              if member.split(".")[1] not in referenced]
    assert unused == []


def _calls(node, name: str, scope: str = "<module>"):
    """(enclosing function, line) of each call of ``name`` under ``node``,
    as a bare name or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call)
                and name in (getattr(child.func, "id", None),
                             getattr(child.func, "attr", None))):
            yield scope, child.lineno
        inner = child.name if isinstance(child, ast.FunctionDef) else scope
        yield from _calls(child, name, inner)


def test_only_make_realization_builds_a_realization():
    sites = [f"{path.stem}.{scope}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in _calls(ast.parse(path.read_text()),
                                       "Realization")]
    assert [site.split(":")[0] for site in sites] == [
        "links.make_realization"], sites
