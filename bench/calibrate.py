"""Host-speed reference for the decompose benchmark.

The machine the benchmark was built on changes speed by up to 1.5x over
minutes (the same ``decompose`` call on the same input, back to back),
with no CPU steal to show for it.  A fixed reference workload of the same
kind as the library's own work -- level-graph max-flow over arc lists,
dict building and sorting, small numpy array updates, integer loops --
slows down with it.  ``run.py`` times this workload between decompose
calls and scales each call's time by ``REFERENCE_S`` over the mean of the
reference times just before and just after it: the call time the host
would have shown at its usual speed.

The reference workload is stdlib + numpy only and never calls mucut, so
a change to the library cannot move it.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

#: median reference_seconds() on a 2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6
REFERENCE_S = 0.42

_GRID_SIDE = 24
_FLOW_PAIRS = ((0, 575), (5, 570), (24, 551), (100, 475), (13, 562), (200, 375)) * 14


def grid_max_flow(side: int, s: int, t: int) -> float:
    """Unit-capacity max-flow between two cells of a side x side grid, by BFS levels and DFS."""
    n = side * side
    to, cap, adj = [], [], [[] for _ in range(n)]

    def edge(u, v):
        adj[u].append(len(to))
        to.append(v)
        cap.append(1.0)
        adj[v].append(len(to))
        to.append(u)
        cap.append(1.0)

    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edge(v, v + 1)
            if r + 1 < side:
                edge(v, v + side)
    total = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in adj[u]:
                if cap[a] > 1e-12 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return total
        nxt = [0] * n

        def push(u, f):
            if u == t:
                return f
            while nxt[u] < len(adj[u]):
                a = adj[u][nxt[u]]
                v = to[a]
                if cap[a] > 1e-12 and level[v] == level[u] + 1:
                    d = push(v, min(f, cap[a]))
                    if d > 0:
                        cap[a] -= d
                        cap[a ^ 1] += d
                        return d
                nxt[u] += 1
            return 0.0

        while (f := push(s, float("inf"))) > 0:
            total += f


def reference_work() -> tuple[float, int, float, int]:
    """The fixed reference workload; returns its results so a test can pin them."""
    flow = sum(grid_max_flow(_GRID_SIDE, s, t) for s, t in _FLOW_PAIRS)
    for _ in range(6):  # small tables, so the peak memory stays the library's
        table = {}
        for i in range(20_000):
            table[(i * 7919) % 20_011] = i
        ordered = sorted(table.items())
    x = np.arange(500, dtype=float)
    for _ in range(900):
        x = (x[::-1] * 0.5 + x) / 1.5
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return flow, ordered[-1][1], float(x.sum()), acc


def reference_seconds() -> float:
    """Wall seconds of one reference_work() on this host, now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
