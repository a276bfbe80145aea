"""Only `spectral.py` knows the walk's stop test.

Stdlib `ast` checks over `src/mucut/*.py`.  When the walk forms its k x k
product and whether it has mixed are decided by `WalkOperator.extend` and
`WalkOperator.mixed`, so the terminal limit, the Ritz screen's constants
and its bound are named nowhere else, and no other module reads a walk's
`.product`: the game asks `mixed()`, and the trace asks
`spectral.potentials`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mucut"
OWNER = "spectral.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)
STOP_NAMES = {"PSI_MAX_TERMINALS", "RITZ_MIN_TERMINALS", "RITZ_BLOCK", "RITZ_WARMUP",
              "BOUND_SLACK", "potential_bound"}


def stop_test_uses(source: str) -> list[int]:
    """Lines that name one of `STOP_NAMES` (as a name, an attribute or an
    import) or read a `.product` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            hit = node.id in STOP_NAMES
        elif isinstance(node, ast.Attribute):
            hit = node.attr in STOP_NAMES or (node.attr == "product"
                                              and isinstance(node.ctx, ast.Load))
        elif isinstance(node, ast.alias):
            hit = node.name in STOP_NAMES or node.asname in STOP_NAMES
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_spectral_is_the_owner():
    assert stop_test_uses((SRC / OWNER).read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_leaves_the_stop_test_to_the_walk(path):
    assert stop_test_uses(path.read_text(encoding="utf-8")) == []


def test_check_catches_each_stop_test_name():
    for name in sorted(STOP_NAMES):
        assert stop_test_uses(f"from .spectral import (\n    {name})\n") == [2], name
        assert stop_test_uses(f"x = 1\nif k <= {name}:\n    pass\n") == [2], name
        assert stop_test_uses(f"y = spectral.{name}\n") == [1], name
    assert stop_test_uses("from .spectral import potential_bound as bound\n") == [1]
    assert stop_test_uses("from .spectral import potential as potential_bound\n") == [1]
    assert stop_test_uses("if walk.product is None:\n    pass\n") == [1]
    assert stop_test_uses("x = 1\npsi = potential(out.walk.product, state, 2)\n") == [2]


def test_check_passes_what_is_not_the_stop_test():
    assert stop_test_uses('"""Names PSI_MAX_TERMINALS and walk.product."""\n') == []
    assert stop_test_uses("w.product = c\nproduct = 2\nif walk.mixed():\n    pass\n") == []
    assert stop_test_uses("from .spectral import potential, potentials\n") == []
