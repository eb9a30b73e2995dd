"""README.md as a checked contract.

An example is a ``$ sqzopo ...`` line in a ```` ```console ```` fence.  It
runs in-process through ``cli.main``, with ``CONFIG`` standing for the
packaged configuration and the working directory a fresh temporary one, so
``--out`` writes there.  It must exit 0, or ``N`` where the line ends in
``# exits N``.  The lines after it, up to the next prompt, quote what it
prints (stdout, then stderr) word for word, with doctest's ``...`` standing
for any text.

A synopsis is a ``sqzopo ...`` line in an untagged ```` ``` ```` fence.  It
names every option of its subcommand but ``-h``, and no other.

The ```` ```python ```` fence is the library example, and the
```` ```json ```` fence is the packaged configuration.
"""

from __future__ import annotations

import argparse
import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from sqzopo import cli

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
EXITS = re.compile(r"\s+# exits (\d)$")


def _fences(tag: str) -> list[str]:
    return [body for lang, body in FENCE.findall(README.read_text(encoding="utf-8")) if lang == tag]


def _examples() -> list[tuple[str, str]]:
    """(command line, quoted output) for each ``$ `` prompt."""
    examples = []
    for body in _fences("console"):
        for chunk in re.split(r"^\$ ", body, flags=re.MULTILINE)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output))
    return examples


def _synopses() -> dict[str, str]:
    lines = [line for body in _fences("") for line in body.splitlines()]
    return {line.split()[1]: line for line in lines if line.startswith("sqzopo ")}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


EXAMPLES = _examples()


@pytest.mark.parametrize("command, quoted", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_runs_as_quoted(capsys, tmp_path, monkeypatch, command, quoted):
    match = EXITS.search(command)
    expected_code = int(match.group(1)) if match else cli.EXIT_OK
    argv = shlex.split(EXITS.sub("", command))
    assert argv[0] == "sqzopo", "a console prompt runs sqzopo"
    config = str(cli.packaged_config_path())
    argv = [config if arg == "CONFIG" else arg for arg in argv[1:]]
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    printed = captured.out + captured.err
    assert doctest.OutputChecker().check_output(quoted, printed, doctest.ELLIPSIS), printed
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()


def test_every_subcommand_has_an_example():
    assert {shlex.split(command)[1] for command, _ in EXAMPLES} == set(_subparsers())


@pytest.mark.parametrize("name", sorted(_subparsers()))
def test_synopsis_names_every_option(name):
    synopsis = _synopses()[name]
    options = {
        option
        for action in _subparsers()[name]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == options


def test_library_example_runs(capsys):
    (example,) = _fences("python")
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_schema_is_the_packaged_config():
    (schema,) = _fences("json")
    assert json.loads(schema) == json.loads(cli.packaged_config_path().read_text())
