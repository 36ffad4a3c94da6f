"""The README's examples still run: every CLI line exits 0 and the library
snippet prints the value its comment states."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gyblink.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [ln for ln in _block("CLI", "sh").splitlines() if ln.startswith("gyblink ")]


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 3


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_snippet():
    code = _block("Library", "python")
    want = complex(code.rstrip().rsplit("# ", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert abs(complex(out.getvalue().strip()) - want) <= 1e-9
    assert want == -8
