"""The >>> examples in the library docstrings run and pass."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["specialfun", "zeros", "ratio", "vfunction",
                                  "bound", "montecarlo"])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"hotspots.{name}"))
    assert result.attempted > 0
    assert result.failed == 0
