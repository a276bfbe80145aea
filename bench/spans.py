"""Per-layer spans recorded from outside the library.

Each layer is wrapped where its caller looks the name up, not where it is
defined: ``mucut.game`` and ``mucut.decompose`` each import
``induced_subgraph`` into their own namespace, and ``mucut.matching`` and
``mucut.trimming`` each hold their own ``max_flow``.  Patching the
defining module would leave every one of those call sites untraced.

Spans live in memory as (name, start, end, parent) and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus the time its direct children
        cover; the program is single-threaded, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[idx]
            calls[name] += 1
        return total, self_time, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# Counters read off arguments and results, after the span has ended.

def _edges_out(tr: Tracer, args, result) -> None:
    tr.counts["graph.induced_subgraph.edges_out"] += result[0].edge_count


def _game_rounds(tr: Tracer, args, result) -> None:
    tr.counts["game.rounds"] += len(result.rounds)


def _trim_kept(tr: Tracer, args, result) -> None:
    _, mu, a, _ = args
    tr.counts["trimming.mu_in"] += mu.of(a)
    tr.counts["trimming.mu_kept"] += mu.of(result)


def _matvecs(tr: Tracer, args, result) -> None:
    walk = args[0]
    tr.counts["spectral.matvecs"] += 2 * walk.delta * walk.rounds


def _empty_sources(tr: Tracer, args, result) -> None:
    if not result.sources:
        tr.counts["cutplayer.empty_rounds"] += 1


def _feasible(tr: Tracer, args, result) -> None:
    if result.feasible:
        tr.counts["matching.feasible_rounds"] += 1


def _arcs(tr: Tracer, args, result) -> None:
    tr.counts["matching.arcs"] += result.arc_count


def _paths(tr: Tracer, args, result) -> None:
    tr.counts["flow.paths"] += len(result)
    tr.counts["flow.path_vertices"] += sum(len(seq) - 2 for _, _, _, seq in result)


#: (module looked up by the caller, attribute, span name, counter hook)
LAYERS = (
    ("mucut.decompose", "run_cut_matching", "game.run_cut_matching", _game_rounds),
    ("mucut.decompose", "trim", "trimming.trim", _trim_kept),
    ("mucut.decompose", "induced_subgraph", "graph.induced_subgraph", _edges_out),
    ("mucut.decompose", "connected_components", "graph.connected_components", None),
    ("mucut.decompose", "brute_force_expansion", "verify.brute_force_expansion", None),
    ("mucut.game", "induced_subgraph", "graph.induced_subgraph", _edges_out),
    ("mucut.game", "projections", "spectral.walk_apply", _matvecs),
    ("mucut.game", "rst_partition", "cutplayer.rst_partition", _empty_sources),
    ("mucut.game", "solve_matching_round", "matching.solve_round", _feasible),
    ("mucut.matching", "build_pi_problem", "matching.build_pi_problem", _arcs),
    ("mucut.matching", "max_flow", "flow.max_flow.matching", None),
    ("mucut.matching", "decompose_paths", "flow.decompose_paths", _paths),
    ("mucut.trimming", "max_flow", "flow.max_flow.trim", None),
    ("mucut.cli", "load_graph", "cli.load_graph", None),
    ("mucut.cli", "load_measure", "cli.load_measure", None),
)


def wrap(tr: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end(idx)
        if hook is not None:
            hook(tr, args, result)
        return result
    return wrapper


@contextmanager
def traced(tr: Tracer, layers=LAYERS):
    """Install span wrappers on every layer name; restore the originals on exit.

    ``mucut.decompose`` is reached through ``importlib``: the package's
    ``decompose`` function shadows the submodule as an attribute, so
    ``import mucut.decompose as D`` would bind the function.
    """
    saved = []
    try:
        for module_name, attr, span_name, hook in layers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                tr.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, wrap(tr, span_name, original, hook))
        yield tr
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
