"""Golden-regression tests: committed campaign output, byte-for-byte.

Each fixture under ``tests/golden/`` is a small seeded SGEMM campaign on
one cluster preset, serialized to the canonical typed-header CSV and
gzipped with a zeroed mtime.  The tests rebuild each campaign from
scratch and compare against the stored text *exactly* — any change to an
RNG stream, draw order, float expression, or the CSV writer fails here.

The fixtures pin the only steady-state solver (the fleet search); the
same campaigns at worker counts 1 and 2 are pinned in
``tests/test_golden_fleet.py``.

Intentional stream changes must regenerate the fixtures::

    PYTHONPATH=src python tools/regen_golden.py
"""

from __future__ import annotations

import pytest

from tests.golden import (
    GOLDEN_CAMPAIGNS,
    assert_matches_golden,
    golden_path,
    read_golden_text,
)

ALL_NAMES = sorted(GOLDEN_CAMPAIGNS)


def test_every_fixture_is_committed():
    missing = [name for name in ALL_NAMES if not golden_path(name).exists()]
    assert not missing, (
        f"missing golden fixtures {missing}; run "
        "`PYTHONPATH=src python tools/regen_golden.py`"
    )


def test_fixture_text_is_wellformed():
    # Cheap structural check that runs in the quick (`-m 'not slow'`) loop:
    # typed header plus at least one data row per fixture.
    for name in ALL_NAMES:
        text = read_golden_text(name)
        lines = text.splitlines()
        assert len(lines) >= 2, name
        header = lines[0].split(",")
        assert all(":" in entry for entry in header), name


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_NAMES)
def test_campaign_output_matches_golden(name):
    assert_matches_golden(name)
