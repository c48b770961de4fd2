"""Byte-for-byte replay of the golden command-line corpus in tests/golden."""

from __future__ import annotations

import pytest

from golden.update import cases, expected, run


@pytest.mark.parametrize("case", cases(), ids=lambda c: c.name)
def test_golden_case(case, tmp_path):
    assert run(case, tmp_path) == expected(case)
