"""Run the doctests embedded in module docstrings."""

import doctest

import pytest

import repro.core.series

MODULES_WITH_DOCTESTS = [
    repro.core.series,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_DOCTESTS, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
    assert result.failed == 0
