"""The walk's support map is computed once, by the measure.

Stdlib `ast` checks over `src/mucut/*.py`.  `VertexMeasure.support` holds
the sorted terminal ids, and the walk runs in their k coordinates, so no
module outside `graph.py` derives them again from `support_mask`, and
`spectral.py` keeps one projection for vectors and blocks alike.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mucut"
OWNER = "graph.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)
RETIRED = {"_project_columns"}


def support_rederived(source: str) -> list[int]:
    """Lines of every `flatnonzero` call whose first argument is a
    `.support_mask` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        arg = node.args[0]
        if (name == "flatnonzero" and isinstance(arg, ast.Attribute)
                and arg.attr == "support_mask"):
            lines.append(node.lineno)
    return sorted(lines)


def retired_definitions(source: str) -> list[int]:
    """Lines of every function or class defined under a name in `RETIRED`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name in RETIRED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_the_measure_support(path):
    assert support_rederived(path.read_text(encoding="utf-8")) == []


def test_spectral_has_one_projection():
    source = (SRC / "spectral.py").read_text(encoding="utf-8")
    assert retired_definitions(source) == []
    defined = [node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)]
    assert defined.count("_project") == 1


def test_check_catches_a_rederived_support():
    assert support_rederived("s = np.flatnonzero(mu.support_mask)\n") == [1]
    assert support_rederived("x = 1\nsup = numpy.flatnonzero(self.measure.support_mask)\n") == [2]
    assert support_rederived("from numpy import flatnonzero\n"
                             "k = flatnonzero(m.support_mask)\n") == [2]
    assert support_rederived("f(np.flatnonzero(state.measure.support_mask)[0])\n") == [1]


def test_check_passes_what_reads_the_support():
    assert support_rederived('"""np.flatnonzero(mu.support_mask)"""\n') == []
    assert support_rederived("s = mu.support\nids = np.flatnonzero(state.mask)\n") == []
    assert support_rederived("off = np.flatnonzero(~mu.support_mask)\n") == []
    assert support_rederived("k = int(mu.support_mask.sum())\n") == []


def test_check_catches_a_retired_definition():
    assert retired_definitions("def _project_columns(state, x):\n    pass\n") == [1]
    assert retired_definitions("class A:\n    def _project_columns(self):\n        pass\n") == [2]
    assert retired_definitions("def _project(state, x):\n    pass\n") == []
    assert retired_definitions("b = _project_columns(state, c)\n") == []
