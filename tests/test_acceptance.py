"""The desk acceptance suite under pytest: one test per criterion."""

from __future__ import annotations

import pytest

from multiforge.acceptance import CRITERIA


@pytest.mark.parametrize("crit", CRITERIA, ids=[c.name for c in CRITERIA])
def test_criterion(crit):
    crit.check()
