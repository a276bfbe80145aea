"""Command-line surface: decompose, sparse-cut, verify.

Graph files are plain text: one edge per line as "u v [w]" (weight
defaults to 1.0), '#' starts a comment, and an optional first line
"p <n> <m>" pins the vertex count.  Measure files hold "v value" lines;
without one the measure defaults to weighted degrees, and vertices absent
from the file get measure zero.  The loaders convert whole token columns
and build the graph with ``Graph.from_columns``; a malformed file is read
again line by line only to name its first bad line as path:lineno.

``--trace`` writes one CSV line per game round, computed after the run
from the games' round records; the potential column is filled for every
game whose walk runs a stop test (see ``spectral.potentials``).  Output
files are opened before any input is read, as shell redirection opens
them, so none may share another file flag's path: an unwritable one fails
before any game, a failed run leaves it empty.

Each subcommand registers only the flags it reads, so a flag it would
ignore is malformed input.  Exit codes: 0 success, 2 malformed input
(flags or files), 3 internal failure.  Identical flags and seed produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import numpy as np

from .decompose import (GAME_CERTIFIES_FROM_N, DecomposeConfig, decompose, balanced_or_expander,
                        OutcomeKind)
from .errors import GraphInputError
from .graph import Graph, Infinite, VertexMeasure, is_connected, mu_expansion_of_cut
from .spectral import potentials
from .verify import DEFAULT_VERIFY_MAX_N, MAX_ENUM_N, brute_force_expansion, validate_partition


def _read_lines(path: str, kind: str) -> tuple[list[str], list[list[str]]]:
    """The file's lines without their comments, and the tokens of each
    line that holds any."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = re.sub("#.*", "", fh.read()).split("\n")
    except OSError as exc:
        raise GraphInputError(f"cannot read {kind} file {path}: {exc}") from exc
    return lines, [parts for parts in map(str.split, lines) if parts]


def _raise_first_bad_line(path: str, lines: list[str], problem, after: int = 0) -> None:
    """Raise GraphInputError, as path:lineno: message, for the first content
    line past line `after` for which `problem(line, lineno)` names one."""
    for lineno, raw in enumerate(lines[after:], after + 1):
        line = raw.strip()
        message = line and problem(line, lineno)
        if message:
            raise GraphInputError(f"{path}:{lineno}: {message}")
    raise GraphInputError(f"{path}: malformed file")


def _edge_problem(line: str, lineno: int) -> str | None:
    parts = line.split()
    if parts[0] == "p":
        return "stray problem line"
    if len(parts) not in (2, 3):
        return "expected 'u v [w]'"
    try:
        int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        return f"bad edge line {line!r}"
    return None


def load_graph(path: str) -> Graph:
    """Read an edge-list file: its columns are converted whole and handed to
    :meth:`Graph.from_columns`; only a malformed file is read line by line
    again, to name its first bad line."""
    return Graph.from_columns(*_edge_columns(path))


def _edge_columns(path: str) -> tuple[int, list[int], list[int], np.ndarray]:
    """The vertex count and the id and weight columns of an edge-list file;
    its text and tokens are freed before the graph is built."""
    lines, rows = _read_lines(path, "graph")
    declared_n = None
    after = 0  # the problem line, if any
    if rows and rows[0][0] == "p":
        after = next(i for i, line in enumerate(lines, 1) if line.strip())
        try:
            declared_n = int(rows[0][1])
        except (IndexError, ValueError) as exc:
            raise GraphInputError(f"{path}:{after}: bad problem line") from exc
        rows = rows[1:]
    try:
        widths = set(map(len, rows))
        if not widths <= {2, 3}:
            raise ValueError("an edge line has neither 2 nor 3 tokens")
        if 2 in widths:
            rows = [(*parts, "1")[:3] for parts in rows]  # w defaults to 1.0
        us, vs, ws = zip(*rows) if rows else ((), (), ())
        us, vs = list(map(int, us)), list(map(int, vs))
        ws = np.fromiter(map(float, ws), float, len(ws))  # float64: no dtype scan in the build
    except ValueError:
        _raise_first_bad_line(path, lines, _edge_problem, after)
    n = declared_n if declared_n is not None else max(max(us, default=-1), max(vs, default=-1)) + 1
    if n <= 0:
        raise GraphInputError(f"{path}: no vertices")
    return n, us, vs, ws


def load_measure(path: str | None, g: Graph) -> VertexMeasure:
    """Read a measure file as columns, as :func:`load_graph` reads a graph."""
    if path is None:
        return VertexMeasure.from_degrees(g)
    n = g.vertex_count
    lines, rows = _read_lines(path, "measure")
    values = np.zeros(n)
    try:
        if set(map(len, rows)) - {2}:
            raise ValueError("a measure line has not 2 tokens")
        vs, vals = zip(*rows) if rows else ((), ())
        vs, vals = list(map(int, vs)), list(map(float, vals))
        if vs and not (0 <= min(vs) and max(vs) < n and len(set(vs)) == len(vs)):
            raise ValueError("a vertex out of range or given twice")
    except ValueError:
        given: dict[int, int] = {}  # vertex -> line that gave its value

        def problem(line: str, lineno: int) -> str | None:
            parts = line.split()
            if len(parts) != 2:
                return "expected 'v value'"
            try:
                v = int(parts[0])
                float(parts[1])
            except ValueError:
                return "bad measure line"
            if not 0 <= v < n:
                return f"vertex {v} out of range"
            if v in given:
                return f"vertex {v} already given on line {given[v]}"
            given[v] = lineno
            return None

        _raise_first_bad_line(path, lines, problem)
    values[vs] = vals
    return VertexMeasure(values)


def _json_default(obj):
    if isinstance(obj, Infinite):
        return "infinite"
    raise TypeError(f"not JSON serializable: {type(obj)}")


@contextlib.contextmanager
def _outputs(*paths):
    """A file opened for writing for each path given, None for each None."""
    with contextlib.ExitStack() as stack:
        yield [None if path is None else
               stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
               for path in paths]


def _emit_json(payload: dict, out) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    (sys.stdout if out is None else out).write(text)


def _trace_lines(game) -> list[str]:
    """One CSV line per round of a game, read off its round records.

    mu_R is the measure removed so far; psi, the potential after the
    round, is replayed from the records through one k x k product per game
    and left empty where :func:`spectral.potentials` gives None.
    """
    if not game.rounds:  # a single vertex or terminal: no walk was built
        return []
    mu = game.walk.measure
    lines = []
    removed: frozenset = frozenset()
    for rec, psi in zip(game.rounds, potentials(game.rounds, mu, game.params.delta)):
        removed = removed | rec.removed
        lines.append(f"{rec.index},{len(rec.active_before) - len(rec.removed)},"
                     f"{mu.of(removed)!r},{rec.matched_weight!r},"
                     f"{'' if psi is None else repr(psi)}\n")
    return lines


def _write_trace(out, lines) -> None:
    out.write("t,active_size,mu_R,matching_weight,psi\n")
    out.writelines(lines)


def _check_args(args) -> None:
    """Reject flag values the algorithms cannot run with as malformed input;
    a flag is checked only when the parsed command has it."""
    given = vars(args)
    for flag, ok, want in (
            ("--phi", lambda v: v is None or 0.0 < v < math.inf, "positive, finite"),
            ("--check-level", lambda v: v is None or 0.0 < v < math.inf, "positive, finite"),
            ("--verify-max-n", lambda v: v is None or 1 <= v <= MAX_ENUM_N,
             f"in [1, {MAX_ENUM_N}]"),
            ("--seed", lambda v: v >= 0, "non-negative")):
        dest = flag[2:].replace("-", "_")
        if dest in given and not ok(given[dest]):
            raise GraphInputError(f"{flag} must be {want}, got {given[dest]}")
    if given.get("command") == "verify" and given["partition"] is None:
        # the brute-force mode has no level to check and no size cap to apply
        for flag in ("--phi", "--check-level", "--verify-max-n"):
            if given[flag[2:].replace("-", "_")] is not None:
                raise GraphInputError(f"verify {flag} applies only with --partition")
    # outputs are opened for writing first: an output that is another file flag's
    # file (by device and inode, if it exists) would empty that input or mix two outputs
    files = {}
    for flag in ("--graph", "--mu", "--partition", "--json-out", "--trace"):
        path = given.get(flag[2:].replace("-", "_"))
        if path:
            st = os.stat(path) if os.path.exists(path) else None
            files[flag] = (st.st_dev, st.st_ino) if st else os.path.realpath(path)
    for out in ("--json-out", "--trace"):
        clash = [flag for flag, path in files.items() if flag != out and path == files.get(out)]
        if clash:
            raise GraphInputError(f"{out} and {clash[0]} must name different files")


def cmd_decompose(args) -> int:
    with _outputs(args.json_out, args.trace) as (json_out, trace):
        g = load_graph(args.graph)
        mu = load_measure(args.mu, g)
        trace_lines: list[str] = []
        cfg = DecomposeConfig(
            verify_max_n=args.verify_max_n,
            # each game becomes CSV lines as it ends, so no game is kept
            trace_hook=(lambda game: trace_lines.extend(_trace_lines(game)))
            if trace is not None else None,
        )
        result = decompose(g, mu, args.phi, cfg, rng=args.seed)
        payload = {
            "clusters": [list(c) for c in result.clusters],
            "inter_cluster_edge_weight": result.inter_cluster_edge_weight,
            "phi": args.phi,
            "seed": args.seed,
            "params": result.params,
            "certificates": [
                {"kind": c.kind, "expansion": c.expansion} for c in result.per_cluster
            ],
            "depth": result.recursion_depth,
            "charge_ratio": result.charge_ratio,
        }
        _emit_json(payload, json_out)
        if trace is not None:
            _write_trace(trace, trace_lines)
        return 0


def cmd_sparse_cut(args) -> int:
    with _outputs(args.json_out, args.trace) as (json_out, trace):
        g = load_graph(args.graph)
        mu = load_measure(args.mu, g)
        if not is_connected(g):
            raise GraphInputError("sparse-cut needs a connected graph; run decompose instead")
        outcome = balanced_or_expander(g, mu, args.phi, np.random.default_rng(args.seed))
        params = outcome.game.params
        if outcome.kind is OutcomeKind.CERTIFIED:
            expansion = None
        else:
            expansion = mu_expansion_of_cut(g, mu, outcome.rest)
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
        _emit_json(payload, json_out)
        if trace is not None:
            _write_trace(trace, _trace_lines(outcome.game))
        return 0


def cmd_verify(args) -> int:
    with _outputs(args.json_out) as (json_out,):
        _emit_json(_verification(args), json_out)
    return 0


def _verification(args) -> dict:
    """The JSON payload of ``verify``: a partition's report or a brute-force expansion."""
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
        phi = args.phi if args.phi is not None else data.get("phi")
        if phi is None and args.check_level is None:
            raise GraphInputError(f"{args.partition}: no 'phi', --phi or --check-level to check")
        if phi is not None and (type(phi) not in (int, float) or not 0.0 < phi < math.inf):
            raise GraphInputError(f"{args.partition}: 'phi' must be positive and finite")
        loaded = SimpleNamespace(clusters=[tuple(c) for c in clusters],
                                 inter_cluster_edge_weight=float(weight))
        max_n = DEFAULT_VERIFY_MAX_N if args.verify_max_n is None else args.verify_max_n
        report = validate_partition(g, mu, loaded, phi, check_level=args.check_level,
                                    max_n=max_n)
        return dataclasses.asdict(report)
    if not 2 <= g.vertex_count <= MAX_ENUM_N:
        raise GraphInputError(
            f"brute-force expansion needs 2 <= n <= {MAX_ENUM_N}; got {g.vertex_count}")
    value, witness = brute_force_expansion(g, mu)
    return {
        "expansion": value,
        "witness": None if witness is None else list(witness),
        "n": g.vertex_count,
    }


def _add_files(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand reads: its input files and its JSON output."""
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--mu", default=None, help="measure file; default: weighted degrees")
    p.add_argument("--json-out", default=None, dest="json_out", help="write JSON here (default stdout)")


def _add_game(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that play games: decompose and sparse-cut."""
    p.add_argument("--phi", type=float, required=True, help="target expansion")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--trace", default=None, help="write per-round CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mucut",
                                     description="measure-expander decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="recursive expander decomposition")
    _add_files(p_dec)
    _add_game(p_dec)
    p_dec.add_argument("--verify-max-n", type=int, default=DEFAULT_VERIFY_MAX_N,
                       dest="verify_max_n",
                       help="brute-force size cap for certificates; game-certified clusters "
                            f"below {GAME_CERTIFIES_FROM_N} vertices are brute-forced regardless")
    p_dec.set_defaults(func=cmd_decompose)

    p_cut = sub.add_parser("sparse-cut", help="one balanced-cut-or-expander step")
    _add_files(p_cut)
    _add_game(p_cut)
    p_cut.set_defaults(func=cmd_sparse_cut)

    p_ver = sub.add_parser("verify", help="brute-force expansion or partition validation")
    _add_files(p_ver)
    p_ver.add_argument("--phi", type=float, default=None, help="level for partition checks")
    p_ver.add_argument("--partition", default=None, help="decomposition JSON to validate")
    p_ver.add_argument("--check-level", type=float, default=None, dest="check_level",
                       help="expansion level clusters must meet (default phi/6)")
    # unset by default, so that the brute-force mode can reject it
    p_ver.add_argument("--verify-max-n", type=int, default=None, dest="verify_max_n",
                       help="brute-force size cap for partition clusters "
                            f"(default {DEFAULT_VERIFY_MAX_N})")
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
