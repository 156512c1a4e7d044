"""Runs every randomized property suite at a fixed seed and checks the
instance counts, so a silently skipped suite cannot go unnoticed."""

import pytest

from prop_suites import ALL_SUITES, suite_count


@pytest.mark.parametrize("name", sorted(ALL_SUITES))
def test_property_suite(name):
    assert suite_count(name) == 200
