"""The support map and the active ids are computed once, and retired names
stay retired: three rules of `structure.py`, which says why."""

import pytest

from structure import found, lines, outside


@pytest.mark.parametrize("name", outside("support"))
def test_module_reads_the_measure_support(name):
    assert found(name)["support"] == []


@pytest.mark.parametrize("name", outside("active"))
def test_module_reads_the_active_ids(name):
    assert found(name)["active"] == []


@pytest.mark.parametrize("name", outside("retired"))
def test_module_defines_no_retired_name(name):
    assert found(name)["retired"] == []


def test_spectral_has_one_projection():
    assert len(found("spectral.py")["projection"]) == 1


def test_check_catches_a_rederived_support():
    assert lines("support", "s = np.flatnonzero(mu.support_mask)\n") == [1]
    assert lines("support", "x = 1\nsup = numpy.flatnonzero(self.measure.support_mask)\n") == [2]
    assert lines("support", "from numpy import flatnonzero\n"
                            "k = flatnonzero(m.support_mask)\n") == [2]
    assert lines("support", "f(np.flatnonzero(state.measure.support_mask)[0])\n") == [1]


def test_check_passes_what_reads_the_support():
    assert lines("support", '"""np.flatnonzero(mu.support_mask)"""\n') == []
    assert lines("support", "s = mu.support\nids = np.flatnonzero(state.mask)\n") == []
    assert lines("support", "off = np.flatnonzero(~mu.support_mask)\n") == []
    assert lines("support", "k = int(mu.support_mask.sum())\n") == []


def test_check_catches_rederived_active_ids():
    assert lines("active", "ids = np.flatnonzero(state.mask)\nf(flatnonzero(self.mask))\n"
                           "x = numpy.flatnonzero(g.state.mask)[0]\n") == [1, 2, 3]
    assert lines("active", '"""np.flatnonzero(state.mask)"""\nids = state.ids\n'
                           "order = np.flatnonzero(mask)\ns = np.flatnonzero(mu.support_mask)\n"
                           "off = np.flatnonzero(~state.mask)\n") == []


def test_check_catches_a_retired_definition():
    assert lines("retired", "def _project_columns(state, x):\n    pass\n") == [1]
    assert lines("retired", "class A:\n    def _project_columns(self):\n        pass\n") == [2]
    assert lines("retired", "def _columns(pairs):\n    pass\nclass B:\n    @cached_property\n"
                            "    def source_mass(self):\n        pass\n    @classmethod\n"
                            "    def from_pairs(cls):\n        pass\n    def target_mass(self):\n"
                            "        pass\n") == [1, 5, 8, 10]
    assert lines("retired", "def _members_from_mask(mask, offset=1):\n    pass\n") == [1]
    assert lines("retired", "def _project(state, x):\n    pass\nb = _project_columns(state, c)\n"
                            "def _edge_columns(path):\n    pass\ng = Graph.from_columns(n)\n"
                            "m = bip.sources.mass\n") == []
