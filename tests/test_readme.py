import ast
import re
import shlex
from pathlib import Path

import pytest

import dmagic
from dmagic.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "dmagic"


def _library_section():
    match = re.search(r"^## Library\n(.*?)(?=^## |\Z)", README.read_text(), re.S | re.M)
    assert match, "README.md has no '## Library' section"
    return match.group(1)


def test_library_example_runs(capsys):
    match = re.search(r"\A\n```python\n(.*?)^```", _library_section(), re.S | re.M)
    assert match, "README.md has no python block under '## Library'"
    exec(compile(match.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the printed values the example's comments promise
    assert lines[:2] == ["6", "exhausted-no-solution"]


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _referenced_names():
    """Names read in the package's modules, outside the statement that defines each."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if _defined_names(stmt) == {"__all__"}:
                continue
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
            used |= found - _defined_names(stmt)
    return used


def test_every_export_has_a_use():
    # an export is live if another part of the package reads it or the README's
    # Library section documents it for callers
    library = _library_section()
    used = _referenced_names()
    dead = [name for name in dmagic.__all__
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", library)]
    assert not dead, f"exported but unused and undocumented: {dead}"
    assert all(hasattr(dmagic, name) for name in dmagic.__all__)


def test_module_exports_are_disjoint_and_defined_at_home():
    # the package re-exports each module's __all__ by star import, so a name in
    # two of them would be shadowed silently by the later import
    home = {}
    for stmt in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(stmt, ast.ImportFrom) and [a.name for a in stmt.names] == ["*"]:
            module = getattr(dmagic, stmt.module)
            source = ast.parse(Path(module.__file__).read_text())
            defined = set().union(*map(_defined_names, source.body))
            for name in module.__all__:
                assert name not in home, f"{name} is exported by {home.get(name)} and {stmt.module}"
                assert name in defined, f"{stmt.module} exports {name} but does not define it"
                home[name] = stmt.module
    assert set(dmagic.__all__) == set(home) | {"__version__"}


def _transcripts():
    """Each text block's `$ dmagic` commands, with the output lines shown after each."""
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.S | re.M):
        commands = []
        for line in block.splitlines():
            if line.startswith("$ dmagic "):
                commands.append((shlex.split(line)[2:], []))
            elif commands:
                commands[-1][1].append(line)
        if commands:
            yield commands


def _masked(line):
    return re.sub(r"time_ms=\S+", "time_ms=*", line)


@pytest.mark.parametrize("commands", list(_transcripts()), ids=lambda commands: commands[-1][0][0])
def test_transcripts_match_the_cli(commands, tmp_path, monkeypatch, capsys):
    # a block's commands run in order in one directory, where the earlier ones
    # write the files the later ones read; each first printed line must be the
    # README's, timings aside, so changed node counts cannot leave it stale
    monkeypatch.chdir(tmp_path)
    for argv, shown in commands:
        main(argv)
        out = capsys.readouterr().out.splitlines()
        if shown:
            assert out[:1] and _masked(out[0]) == _masked(shown[0]), (argv, out[:1], shown[0])
