"""A side's measure is summed on its own, never taken as a total minus a
part: a rule of `structure.py`, which says why."""

import pytest

from structure import found, lines, outside


@pytest.mark.parametrize("name", outside("difference"))
def test_module_sums_each_side_on_its_own(name):
    assert found(name)["difference"] == []


def test_check_catches_a_difference():
    assert lines("difference", "denom = min(s, mu.total - s)\n") == [1]
    assert lines("difference", "x = 1\nrest = mu.of(order) - mu.of(side)\n") == [2]
    assert lines("difference", "r = state.measure.total - (a + b)\nq = self.of(a) - 1.0\n") == [1, 2]


def test_check_passes_what_sums_each_side():
    assert lines("difference", '"""mu.total - mu.of(side)"""\n') == []
    assert lines("difference", "r = total - s\nt = s - mu.total\nu = mu.of(a) + mu.of(b)\n") == []
    assert lines("difference", "low = mu.total / 3.0 - tolerance(mu.total)\nv = -mu.of(a)\n") == []
