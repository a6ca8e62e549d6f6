"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"


def _examples(text: str) -> list[tuple[int, str]]:
    """The first line number and the source of each ```python block."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)]


_EXAMPLES = _examples(_README.read_text(encoding="utf-8"))


def test_examples_are_found():
    assert _examples("a\n```python\nx = 1\n```\n```sh\nls\n```\n") == [(3, "x = 1\n")]
    assert _EXAMPLES


@pytest.mark.parametrize("line, source", _EXAMPLES, ids=[f"line-{n}" for n, _ in _EXAMPLES])
def test_example_runs(tmp_path, monkeypatch, line, source):
    # Padded so that a traceback names the README's own line numbers.
    monkeypatch.chdir(tmp_path)
    exec(compile("\n" * (line - 1) + source, str(_README), "exec"), {"__name__": "readme"})
