"""Execute every Python block of docs/TUTORIAL.md.

The tutorial promises its code runs; this test keeps that promise.
Blocks share one namespace and run in document order, so the test also
verifies the narrative's continuity.
"""

import os
import re

import pytest

TUTORIAL = os.path.join(os.path.dirname(__file__), "..", "docs", "TUTORIAL.md")

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks():
    with open(TUTORIAL) as handle:
        text = handle.read()
    return _BLOCK.findall(text)


def test_tutorial_has_blocks():
    assert len(python_blocks()) >= 8


def test_tutorial_blocks_execute_in_order():
    namespace: dict = {}
    for number, block in enumerate(python_blocks(), start=1):
        try:
            exec(compile(block, f"<tutorial block {number}>", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"tutorial block {number} failed: {exc!r}\n{block}")


def test_tutorial_mentions_cli_lifecycle():
    with open(TUTORIAL) as handle:
        text = handle.read()
    for command in ("repro corpus", "repro ingest", "repro query"):
        assert command in text
