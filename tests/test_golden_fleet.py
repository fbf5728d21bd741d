"""Golden-regression tests at worker counts 1 and 2.

The committed fixtures in ``tests/golden/`` pin the fleet DVFS search and
its batched fast-cap clamp (the only production solver and clamp).  The
guarantee holds at any worker count, since the shard plan never feeds one
GPU's lanes into another's: every fixture must reproduce byte-for-byte
through the parallel executor as well as serially
(``tests/test_golden.py``).
"""

from __future__ import annotations

import pytest

from tests.golden import GOLDEN_CAMPAIGNS, assert_matches_golden

ALL_NAMES = sorted(GOLDEN_CAMPAIGNS)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_fleet_campaign_matches_golden(name, workers):
    assert_matches_golden(name, workers=workers)
