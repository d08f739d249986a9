"""Source-level guards over the ltss package, and the README's examples
run as written."""

import ast
import doctest
import io
import pathlib
import re
import shlex

import ltss
from ltss import cli

PACKAGE = pathlib.Path(ltss.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def readme_block(lang):
    """Body of the README's first fenced block tagged lang."""
    text = README.read_text()
    return re.search(r"^```%s\n(.*?)^```$" % lang, text, re.M | re.S).group(1)


def test_readme_library_examples():
    test = doctest.DocTestParser().get_doctest(
        readme_block("python"), {}, "README", str(README), 0)
    report = []
    failed, tried = doctest.DocTestRunner().run(test, out=report.append)
    assert tried and not failed, "".join(report)


def untimed(out):
    # the wall time of a run is the one line that differs between runs
    return re.sub(r"^time_ms=.*$", "time_ms=", out, flags=re.M)


def test_readme_cli_examples(capsys, monkeypatch):
    examples = re.findall(r"^\$ (.*)\n((?:.+\n)*)", readme_block("text"),
                          re.M)
    assert examples
    for command, expected in examples:
        stdin = ""
        if " | " in command:
            echo, command = command.split(" | ")
            stdin = " ".join(shlex.split(echo)[1:]) + "\n"
        argv = shlex.split(command)
        assert argv[0] == "ltss", command
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv[1:]) == 0, command
        assert untimed(capsys.readouterr().out) == untimed(expected), command
