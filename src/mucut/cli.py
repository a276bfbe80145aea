"""Command-line surface: decompose, sparse-cut, verify.

Graph files are plain text: one edge per line as "u v [w]" (weight
defaults to 1.0), '#' starts a comment, and an optional first line
"p <n> <m>" pins the vertex count.  Measure files hold "v value" lines;
without one the measure defaults to weighted degrees, and vertices absent
from the file get measure zero.

``--trace`` writes one CSV line per game round, computed after the run
from the games' round records; ``--dense-limit`` only decides for which
games the potential column is filled.

Exit codes: 0 success, 2 malformed input (flags or files), 3 internal
failure.  Identical flags and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .decompose import DecomposeConfig, decompose, balanced_or_expander, OutcomeKind
from .errors import GraphInputError
from .game import GameParams
from .graph import Cut, Graph, Infinite, VertexMeasure, is_connected, mu_expansion_of_cut
from .spectral import (DENSE_LIMIT, ActiveState, WalkOperator, dense_walk_and_potential,
                       is_power_of_two)
from .verify import brute_force_expansion, validate_partition, MAX_ENUM_N


def load_graph(path: str) -> Graph:
    declared_n = None
    edges = []
    max_id = -1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise GraphInputError(f"cannot read graph file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared_n is not None or edges:
                raise GraphInputError(f"{path}:{lineno}: stray problem line")
            try:
                declared_n = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise GraphInputError(f"{path}:{lineno}: bad problem line") from exc
            continue
        if len(parts) not in (2, 3):
            raise GraphInputError(f"{path}:{lineno}: expected 'u v [w]'")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphInputError(f"{path}:{lineno}: bad edge line {line!r}") from exc
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if n <= 0:
        raise GraphInputError(f"{path}: no vertices")
    return Graph(n, edges)


def load_measure(path: str | None, g: Graph) -> VertexMeasure:
    if path is None:
        return VertexMeasure.from_degrees(g)
    values = np.zeros(g.vertex_count)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise GraphInputError(f"cannot read measure file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(f"{path}:{lineno}: expected 'v value'")
        try:
            v, val = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise GraphInputError(f"{path}:{lineno}: bad measure line") from exc
        if not (0 <= v < g.vertex_count):
            raise GraphInputError(f"{path}:{lineno}: vertex {v} out of range")
        values[v] = val
    return VertexMeasure(values)


def _json_default(obj):
    if isinstance(obj, Infinite):
        return "infinite"
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _trace_lines(game, dense_limit: int) -> list[str]:
    """One CSV line per round of a game, read off its round records.

    mu_R is the measure removed so far; psi, the potential after the
    round, needs the dense walk and is left empty for games on more than
    dense_limit vertices.
    """
    if not game.rounds:  # a single vertex or terminal: no walk was built
        return []
    mu, delta = game.walk.measure, game.walk.delta
    lines = []
    removed: frozenset = frozenset()
    for i, rec in enumerate(game.rounds):
        removed = removed | rec.removed
        psi = ""
        if len(mu.values) <= dense_limit:
            post = WalkOperator([r.matching for r in game.rounds[:i + 1]], delta,
                                ActiveState(frozenset(rec.active_before) - rec.removed, mu))
            psi = repr(dense_walk_and_potential(post, limit=dense_limit)[1])
        lines.append(f"{rec.index},{len(rec.active_before) - len(rec.removed)},"
                     f"{mu.of(removed)!r},{rec.matched_weight!r},{psi}\n")
    return lines


def _write_trace(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,active_size,mu_R,matching_weight,psi\n")
        fh.writelines(lines)


def _check_args(args) -> None:
    """Reject flag values the algorithms cannot run with as malformed input."""
    check_level = getattr(args, "check_level", None)  # verify's flag only
    for flag, value, ok, want in (
            ("--phi", args.phi, args.phi is None or 0.0 < args.phi < math.inf, "positive, finite"),
            ("--log-base", args.log_base, 1.0 < args.log_base < math.inf, "greater than 1, finite"),
            ("--check-level", check_level, check_level is None or 0.0 < check_level < math.inf,
             "positive, finite"),
            ("--delta", args.delta, args.delta is None or is_power_of_two(args.delta),
             "a power of two"),
            ("--verify-max-n", args.verify_max_n, 1 <= args.verify_max_n <= MAX_ENUM_N,
             f"in [1, {MAX_ENUM_N}]"),
            ("--seed", args.seed, args.seed >= 0, "non-negative"),
            ("--t-factor", args.t_factor, math.isfinite(args.t_factor), "finite"),
            ("--c-factor", args.c_factor, math.isfinite(args.c_factor), "finite")):
        if not ok:
            raise GraphInputError(f"{flag} must be {want}, got {value}")


def cmd_decompose(args) -> int:
    g = load_graph(args.graph)
    mu = load_measure(args.mu, g)
    trace_lines: list[str] = []
    cfg = DecomposeConfig(
        t_factor=args.t_factor,
        c_factor=args.c_factor,
        delta=args.delta,
        log_base=args.log_base,
        verify_max_n=args.verify_max_n,
        # each game becomes CSV lines as it ends, so no game is kept
        trace_hook=(lambda game: trace_lines.extend(_trace_lines(game, args.dense_limit)))
        if args.trace is not None else None,
    )
    result = decompose(g, mu, args.phi, cfg, rng=args.seed)
    payload = {
        "clusters": [list(c) for c in result.clusters],
        "inter_cluster_edge_weight": result.inter_cluster_edge_weight,
        "phi": args.phi,
        "seed": args.seed,
        "params": {**result.params, "dense_limit": args.dense_limit},
        "certificates": [
            {"kind": c.kind, "expansion": c.expansion} for c in result.per_cluster
        ],
        "depth": result.recursion_depth,
        "charge_ratio": result.charge_ratio,
    }
    _emit_json(payload, args.json_out)
    if args.trace is not None:
        _write_trace(args.trace, trace_lines)
    return 0


def cmd_sparse_cut(args) -> int:
    g = load_graph(args.graph)
    mu = load_measure(args.mu, g)
    if not is_connected(g):
        raise GraphInputError("sparse-cut needs a connected graph; run decompose instead")
    params = GameParams.for_graph(g, mu, args.phi, t_factor=args.t_factor,
                                  c_factor=args.c_factor, delta=args.delta)
    rng = np.random.default_rng(args.seed)
    outcome = balanced_or_expander(g, mu, params, rng, log_base=args.log_base)
    if outcome.kind is OutcomeKind.CERTIFIED:
        expansion = None
    else:
        expansion = mu_expansion_of_cut(g, mu, Cut(outcome.rest))
    payload = {
        "case": outcome.kind.value,
        "expander_side": sorted(outcome.expander_side),
        "rest": sorted(outcome.rest),
        "cut_expansion": expansion,
        "trimmed": outcome.trimmed,
        "phi": args.phi,
        "seed": args.seed,
        "params": {
            "rounds_T": params.rounds_T,
            "capacity_c": params.capacity_c,
            "delta": params.delta,
            "stop_threshold": params.stop_threshold,
        },
    }
    _emit_json(payload, args.json_out)
    if args.trace is not None:
        _write_trace(args.trace, _trace_lines(outcome.game, args.dense_limit))
    return 0


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    mu = load_measure(args.mu, g)
    if args.partition is not None:
        try:
            with open(args.partition, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise GraphInputError(f"cannot read partition file {args.partition}: {exc}") from exc
        clusters = data.get("clusters") if isinstance(data, dict) else None
        if not (isinstance(clusters, list) and all(
                isinstance(c, list) and c and all(type(v) is int for v in c) for c in clusters)):
            raise GraphInputError(f"{args.partition}: 'clusters' must be lists of vertex ids")
        weight = data.get("inter_cluster_edge_weight")
        if type(weight) not in (int, float):
            raise GraphInputError(f"{args.partition}: 'inter_cluster_edge_weight' must be a number")
        phi = args.phi if args.phi is not None else data.get("phi", 0.1)
        if type(phi) not in (int, float) or not 0.0 < phi < math.inf:
            raise GraphInputError(f"{args.partition}: 'phi' must be positive and finite")
        loaded = SimpleNamespace(clusters=[tuple(c) for c in clusters],
                                 inter_cluster_edge_weight=float(weight))
        report = validate_partition(g, mu, loaded, phi, check_level=args.check_level,
                                    max_n=args.verify_max_n)
        _emit_json(report.to_dict(), args.json_out)
        return 0
    if not 2 <= g.vertex_count <= MAX_ENUM_N:
        raise GraphInputError(
            f"brute-force expansion needs 2 <= n <= {MAX_ENUM_N}; got {g.vertex_count}")
    value, witness = brute_force_expansion(g, mu)
    payload = {
        "expansion": value,
        "witness": None if witness is None else list(witness.members),
        "n": g.vertex_count,
    }
    _emit_json(payload, args.json_out)
    return 0


def _add_common(p: argparse.ArgumentParser, *, needs_phi: bool) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--mu", default=None, help="measure file; default: weighted degrees")
    if needs_phi:
        p.add_argument("--phi", type=float, required=True, help="target expansion")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--t-factor", type=float, default=2.0, dest="t_factor",
                   help="round budget multiplier on log2(n)^2")
    p.add_argument("--c-factor", type=float, default=1.0, dest="c_factor",
                   help="numerator of the edge-capacity constant")
    p.add_argument("--delta", type=int, default=None, help="walk power override (power of 2)")
    p.add_argument("--log-base", type=float, default=2.0, dest="log_base",
                   help="log base for the balance threshold")
    p.add_argument("--dense-limit", type=int, default=DENSE_LIMIT, dest="dense_limit",
                   help="max game size n for which the trace CSV fills psi")
    p.add_argument("--trace", default=None, help="write per-round CSV here")
    p.add_argument("--json-out", default=None, dest="json_out", help="write JSON here (default stdout)")
    p.add_argument("--verify-max-n", type=int, default=16, dest="verify_max_n",
                   help="brute-force size cap for certificates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mucut",
                                     description="measure-expander decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="recursive expander decomposition")
    _add_common(p_dec, needs_phi=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_cut = sub.add_parser("sparse-cut", help="one balanced-cut-or-expander step")
    _add_common(p_cut, needs_phi=True)
    p_cut.set_defaults(func=cmd_sparse_cut)

    p_ver = sub.add_parser("verify", help="brute-force expansion or partition validation")
    _add_common(p_ver, needs_phi=False)
    p_ver.add_argument("--phi", type=float, default=None, help="level for partition checks")
    p_ver.add_argument("--partition", default=None, help="decomposition JSON to validate")
    p_ver.add_argument("--check-level", type=float, default=None, dest="check_level",
                       help="expansion level clusters must meet (default phi/6)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (OSError, GraphInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:  # InvariantViolation is an AssertionError
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
