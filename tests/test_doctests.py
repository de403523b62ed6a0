"""The >>> examples in the library docstrings and the README's library
example run and print what they say."""

import contextlib
import doctest
import importlib
import io
import pathlib
import re

import pytest


@pytest.mark.parametrize("name", ["specialfun", "zeros", "ratio", "vfunction",
                                  "bound", "montecarlo"])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"hotspots.{name}"))
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_example():
    # the comment on the first print states the value it prints
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    stated = re.search(r"^print\(res\.bound\)\s*# (\S+)", block, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines()[0] == stated == "3.528795285538302"
