import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README.md has no python block under '## Library'"
    exec(compile(match.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the printed values the example's comments promise
    assert lines[:2] == ["6 (mod 12)", "exhausted-no-solution"]
