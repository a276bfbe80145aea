"""Only `spectral.py` knows the walk's stop test: a rule of `structure.py`."""

import pytest

from structure import STOP_NAMES, found, lines, outside


def test_spectral_is_the_owner():
    assert found("spectral.py")["stop"]


@pytest.mark.parametrize("name", outside("stop"))
def test_module_leaves_the_stop_test_to_the_walk(name):
    assert found(name)["stop"] == []


def test_check_catches_each_stop_test_name():
    for name in sorted(STOP_NAMES):
        assert lines("stop", f"from .spectral import (\n    {name})\n") == [2], name
        assert lines("stop", f"x = 1\nif k <= {name}:\n    pass\n") == [2], name
        assert lines("stop", f"y = spectral.{name}\n") == [1], name
    assert lines("stop", "from .spectral import potential_bound as bound\n") == [1]
    assert lines("stop", "from .spectral import potential as potential_bound\n") == [1]
    assert lines("stop", "if walk.product is None:\n    pass\n") == [1]
    assert lines("stop", "x = 1\npsi = potential(out.walk.product, state, 2)\n") == [2]


def test_check_passes_what_is_not_the_stop_test():
    assert lines("stop", '"""Names PSI_MAX_TERMINALS and walk.product."""\n') == []
    assert lines("stop", "w.product = c\nproduct = 2\nif walk.mixed():\n    pass\n") == []
    assert lines("stop", "from .spectral import potential, potentials\n") == []
