"""One stdlib `ast` scan of `src/mucut/*.py` for the structure guards.

Each source file is parsed and walked once.  `RULES` maps each rule to the
modules that own what it guards, which it skips, and to a test on one
syntax node; `found(name)` lists a module's lines per rule.
* edges: only `verify.py` reads a graph's `.edges`, an O(m) pass on each
  read, and there only `validate_partition`'s recount, which shares no
  code with the algorithms it checks.
* layout: only `flow.py` stores to a `.to`, `.cap` or `.adj`.
* stop: only `spectral.py` names `STOP_NAMES` or reads `.product`;
  the game asks `WalkOperator.mixed()` and the trace `potentials`.
* support: only `graph.py` takes `flatnonzero` of a `.support_mask`.
* active: no module takes `flatnonzero` of a `.mask`, an n-long scan;
  the cut player reads `ActiveState.ids`, built once per active set.
* retired: no module defines a name in `RETIRED`: there is one projection,
  a side's mass is `flow.Terminals.mass`, matchings take pair columns, and
  a witness is chosen among masks, not member tuples.
* projection: counted, not barred: `spectral.py` defines `_project` once.
* enumerator: counted: one function of `verify.py` reads `_CHUNK`, the
  mask loop both oracles reduce.
* relabel: a call of `induced_subgraph` or `.restrict`; `verify.py` makes
  none and `decompose._certificate` none: the oracle takes g's own ids.
* difference: no module subtracts from a `.total` or a `.of(...)`: a
  side's measure is summed on its own, since a total minus a part leaves a
  rounding residue where the rest holds no terminal.
"""

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mucut"
STOP_NAMES = {"PSI_MAX_TERMINALS", "RITZ_MIN_TERMINALS", "RITZ_BLOCK", "RITZ_WARMUP",
              "BOUND_SLACK", "potential_bound"}
RETIRED = {"_project_columns", "_columns", "from_pairs", "source_mass", "target_mass",
           "_members_from_mask"}


def _called(node):
    """The name a call calls: its function's `.attr` or its id."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _flatnonzero_of(attr):
    """A test for a `flatnonzero` call whose first argument is an `.attr`."""
    return lambda node: (isinstance(node, ast.Call) and bool(node.args)
                         and _called(node) == "flatnonzero"
                         and getattr(node.args[0], "attr", None) == attr)


def _layout_store(node):
    """A store to (or delete of) a network list, or an item of one."""
    target = node
    while isinstance(target, ast.Subscript):
        target = target.value
    return (isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(target, ast.Attribute) and target.attr in {"to", "cap", "adj"})


def _reads_chunk(node):
    """A function that reads `_CHUNK` anywhere in its body."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(n, ast.Name) and n.id == "_CHUNK" and isinstance(n.ctx, ast.Load)
        for n in ast.walk(node))


def _difference(node):
    """A subtraction from a `.total` attribute or a `.of(...)` call."""
    left = getattr(node, "left", None)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and (getattr(left, "attr", None) == "total"
                 or isinstance(left, ast.Call) and _called(left) == "of"))


def _stop_test_use(node):
    if isinstance(node, ast.Name):
        return node.id in STOP_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in STOP_NAMES or node.attr == "product" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.alias) and (node.name in STOP_NAMES or node.asname in STOP_NAMES)


RULES = {
    "edges": ({"verify.py"}, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "edges" and isinstance(node.ctx, ast.Load)),
    "layout": ({"flow.py"}, _layout_store),
    "stop": ({"spectral.py"}, _stop_test_use),
    "support": ({"graph.py"}, _flatnonzero_of("support_mask")),
    "active": ({"spectral.py"}, _flatnonzero_of("mask")),
    "retired": (set(), lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in RETIRED),
    "projection": (set(), lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "_project"),
    "enumerator": (set(), _reads_chunk),
    "relabel": (set(), lambda node: isinstance(node, ast.Call)
                and _called(node) in {"induced_subgraph", "restrict"}),
    "difference": (set(), _difference),
}


def _scan(tree) -> dict:
    nodes = list(ast.walk(tree))
    return {rule: sorted(node.lineno for node in nodes if hit(node))
            for rule, (_, hit) in RULES.items()}


@cache
def found(name: str) -> dict:
    return _scan(ast.parse((SRC / name).read_text(encoding="utf-8")))


def lines(rule: str, source: str) -> list[int]:
    """One rule's lines in a snippet, for the self-checks."""
    return _scan(ast.parse(source))[rule]


def outside(rule: str) -> list[str]:
    """The source modules a rule scans: all but its owners."""
    return sorted(p.name for p in SRC.glob("*.py") if p.name not in RULES[rule][0])


def span(name: str, function: str) -> range:
    """The lines of a module's top-level function."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return range(node.lineno, node.end_lineno + 1)
