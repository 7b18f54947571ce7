"""The README's "Library" example runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_stated_components():
    code = library_block()
    assert "# ['15/17', '-8/17']" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[-1] == "['15/17', '-8/17']"
