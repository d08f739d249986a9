"""Source-level guards over the ltss package."""

import ast
import pathlib

import ltss

PACKAGE = pathlib.Path(ltss.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert PACKAGE.name == "ltss" and len(list(PACKAGE.glob("*.py"))) > 1
    assert found == []
