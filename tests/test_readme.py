"""README's library map and command-line section stay true to the code.

Each row of the "Library layout" table is its module's caller contract:
it names, in backticks, every class and function that the module defines
without a leading underscore, and the mechanism stays in the docstrings.
No backticked name in the README is private, and every backticked dotted
name that starts at the package resolves to an attribute of it.  The
command-line synopsis and its option bullets agree with
``cli.build_parser()``, and every ``$ qmmp ...`` example, run through
``cli.main``, prints the lines shown (``...`` stands for any run of lines)
and exits 0, as its ``&& ...`` says; the Python API sketch runs.
"""

import argparse
import importlib
import inspect
import re
import shlex
from pathlib import Path

import qmmp
from qmmp import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("perm", "mmp", "series", "gf", "dyck", "oracle", "cli")
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _section(title):
    """The README text under the heading ``## title``, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _fenced(text, lang=""):
    """The contents of the fenced blocks of ``text`` opened with ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _spans(text):
    """The backticked spans of ``text``, outside its fenced blocks."""
    return re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))


def _names(text):
    """The dotted name that opens each backticked span of ``text``, where one does."""
    return [m.group() for span in _spans(text) if (m := NAME.match(span))]


def _rows():
    """The text of each module's row of the layout table, by module name."""
    rows = {}
    for line in _section("Library layout").splitlines():
        if m := re.fullmatch(r"\| `qmmp\.(\w+)` \|(.*)\|", line):
            rows[m[1]] = m[2]
    return rows


def _public(module):
    """The classes and functions that ``qmmp.<module>`` defines without a leading underscore."""
    mod = importlib.import_module(f"qmmp.{module}")
    return {
        name
        for name, value in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == mod.__name__
    }


def test_each_row_names_its_public_classes_and_functions():
    rows = _rows()
    assert sorted(rows) == sorted(MODULES)
    for module, row in rows.items():
        owners = ("", module, f"qmmp.{module}")
        dotted = (name.rpartition(".") for name in _names(row))
        named = {name for owner, _, name in dotted if owner in owners}
        assert sorted(_public(module) - named) == [], module
    # the scan sees an alias by its public name, and no imported or private name
    assert "Poly" in _public("series") and "catalan_moves" in _public("perm")
    assert not {"Permutation", "_window", "EMPTY"} & _public("mmp")


def test_no_backticked_name_is_private():
    names = _names(README.read_text(encoding="utf-8"))
    assert [name for name in names if any(part.startswith("_") for part in name.split("."))] == []
    # the scan does see a private component and the name before a call
    probe = "`qmmp.gf._clamp` and `_lane_walks(n, tau)`, `t^n`"
    assert _names(probe) == ["qmmp.gf._clamp", "_lane_walks", "t"]


def test_dotted_names_resolve():
    for module in MODULES:
        importlib.import_module(f"qmmp.{module}")
    dotted = [
        name
        for name in _names(README.read_text(encoding="utf-8"))
        if "." in name and (name.split(".")[0] == "qmmp" or hasattr(qmmp, name.split(".")[0]))
    ]
    assert "qmmp.gf.KNOWN_ERRATA" in dotted
    for name in dotted:
        parts = name.split(".")
        target = qmmp
        for part in parts[parts[0] == "qmmp" :]:
            assert hasattr(target, part), name
            target = getattr(target, part)


def _parser_commands():
    """Each subcommand of ``cli.build_parser()`` with its ``--`` options by name."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: {s: a for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for command, p in sub.choices.items()
    }


def _bullet(section, option):
    """The bullet of ``section`` that opens with the backticked ``option``."""
    (bullet,) = [b for b in re.split(r"\n- ", section) if b.startswith(f"`{option}`")]
    return bullet


def test_cli_synopsis_matches_the_parser():
    commands = _parser_commands()
    section = _section("Command line")
    synopsis = [line.split(" ", 2)[1:] for line in _fenced(section)[0].splitlines()]
    assert [command for command, *_ in synopsis] == list(commands)
    for command, *rest in synopsis:
        rest = rest[0] if rest else ""
        options = commands[command]
        assert set(re.findall(r"--[\w-]+", rest)) == set(options), command
        for option, shown in re.findall(r"(--[\w-]+) \{([^}]*)\}", rest):
            assert shown.split("|") == list(options[option].choices), option
    series = commands["series"]
    for option in ("--engine", "--format"):
        # the bullet lists every value, the default first
        words = [span for span in _spans(_bullet(section, option)) if re.fullmatch(r"[a-z]+", span)]
        assert set(words) == set(series[option].choices), option
        assert words[0] == series[option].default, option


def _examples():
    """Each ``$ qmmp`` command of the Examples block with the lines shown under it."""
    examples = []
    for line in _fenced(_section("Examples"))[0].splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def _shows(out, shown):
    """Whether ``out`` is the ``shown`` lines, each ``...`` standing for any run of lines."""
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in shown)
    return re.fullmatch(pattern, out) is not None


def test_examples_print_what_the_readme_shows(capsys, monkeypatch):
    monkeypatch.delenv("MMP_MAX_N", raising=False)
    examples = _examples()
    assert len(examples) == 4
    for command, shown in examples:
        argv = shlex.split(command.partition(" && ")[0])
        assert argv[0] == "qmmp", command
        assert cli.main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        # an example that shows no lines only vouches for its exit status
        assert not shown or _shows(out, shown), (command, out)
    # the matcher holds each line whole, and ... to whole lines
    assert _shows("a\nb\nc\n", ["a", "...", "c"]) and _shows("a\nc\n", ["a", "...", "c"])
    assert not _shows("a\nbc\n", ["a", "...", "c"]) and not _shows("a\nc\nd\n", ["a", "c"])


def test_python_api_sketch_runs():
    (sketch,) = _fenced(_section("Examples"), "python")
    exec(compile(sketch, str(README), "exec"), {})
