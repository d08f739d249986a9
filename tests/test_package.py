"""Source-level guards over the ltss package, and the README's examples
run as written."""

import ast
import doctest
import inspect
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
from types import SimpleNamespace

import ltss
from ltss import cli, dynamic_lis, string_compare, tandem

import test_acceptance

PACKAGE = pathlib.Path(ltss.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises instead.  Every
    # module counts, a subpackage's too
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        # source files are UTF-8 (PEP 3120) whatever the locale
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        found += ["%s:%d" % (path.relative_to(PACKAGE), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert PACKAGE.name == "ltss" and len(list(PACKAGE.glob("*.py"))) > 1
    assert found == []


def _own_callables(module):
    # public functions and public non-dunder methods defined in module,
    # not imported into it
    home = module.__name__
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != home:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield "%s.%s" % (name, attr), member


def test_library_walks_take_no_options():
    # a caller takes what it needs of a lazy walk with islice or next, so
    # no library callable carries an option that no caller sets
    checked = {}
    for module in (dynamic_lis, string_compare, tandem):
        for name, fn in _own_callables(module):
            checked[name] = [p.name for p in
                             inspect.signature(fn).parameters.values()
                             if p.default is not inspect.Parameter.empty]
    assert {"ThresholdStructure.all_lis", "Comparator.witnesses",
            "walk_lis", "compute_ltss"} <= checked.keys()
    assert {name: found for name, found in checked.items() if found} == {}


def test_acceptance_runner_lists_every_criterion():
    # the standalone runner reports only ALL, so a criterion left out of it
    # would pass under pytest and vanish from the standalone verdict
    criteria = sorted((fn for name, fn in vars(test_acceptance).items()
                       if name.startswith("test_criterion_")),
                      key=lambda fn: fn.__code__.co_firstlineno)
    assert len(criteria) == 9
    assert test_acceptance.ALL == criteria


def test_acceptance_runner_verdict(capsys, monkeypatch):
    # the standalone runner exits 1 on any failed criterion, 0 only when
    # every one passes, and says how many passed
    def passing():
        test_acceptance._report(True, "passing")

    def failing():
        test_acceptance._report(False, "failing")

    for checks, code, tally in (([passing, failing], 1, "1/2"),
                                ([passing, passing], 0, "2/2")):
        monkeypatch.setattr(test_acceptance, "ALL", checks)
        assert test_acceptance.main() == code
        assert "%s criteria passed" % tally in capsys.readouterr().out


def test_acceptance_runner_fails_under_optimize():
    # python -O strips assert statements; a failing criterion still fails
    # the standalone runner there
    script = ("import sys, test_acceptance as t\n"
              "t.ALL = [lambda: t._report(False, 'stand-in')]\n"
              "sys.exit(t.main())\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == ["FAIL: stand-in",
                                        "0/1 criteria passed"]


def readme_block(lang):
    """Body of the README's first fenced block tagged lang."""
    text = README.read_text(encoding="utf-8")
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
        monkeypatch.setattr("sys.stdin",
                            SimpleNamespace(buffer=io.BytesIO(stdin.encode())))
        assert cli.main(argv[1:]) == 0, command
        assert untimed(capsys.readouterr().out) == untimed(expected), command
