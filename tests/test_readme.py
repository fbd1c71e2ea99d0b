"""The examples in README.md run as written."""
import os
import re
import shlex

import penpls
import penpls.testkit
from penpls.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _read_readme():
    with open(README) as fh:
        return fh.read()


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", _read_readme(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["yhat"].shape == (100,)
    assert namespace["choice"].m_opt >= 1


def _resolves(name):
    parts = name.removeprefix("penpls.").split(".")
    for root in (penpls, penpls.testkit):
        obj = root
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_library_names_resolve():
    # every name the Library section puts in backticks is still there
    section = _read_readme().split("## Library", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", section))
    assert {"penalized_pls_fit", "penpls.testkit"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []


def test_command_line_examples_parse():
    section = _read_readme().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("penpls ")]
    assert [argv[1] for argv in commands] == ["fit", "cv", "predict", "curves"]
    parser = build_parser()
    for argv in commands:
        # a documented flag the parser no longer knows exits with code 2
        assert parser.parse_args(argv[1:]).command == argv[1]
