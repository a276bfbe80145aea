"""Seeded benchmark of ``mucut.decompose``: one workload, one run.

    python3 bench/run.py --workload expander-whisker --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.
Load model: a closed loop with one client in one process, one
``decompose`` call at a time.  Seed s fixes a set of instances of the
workload's family (instances 0 to K-1 of seed s, K per workload), written
to edge-list and measure files and read back through
``mucut.cli.load_graph`` / ``load_measure`` as a CLI user would.  The run
makes whole passes over that set, one call per instance per pass: at
least one, and another while the time used so far plus the mean time per
pass stays within ``--seconds``.  A faster or slower program is so timed
and scored on the same inputs.

``--trace 0`` reports the end-to-end metrics with tracing off.  Their
times are scaled to the host's usual speed by a reference workload timed
between the calls (``calibrate.py``).
``--trace 1`` calls every instance twice per pass, untraced and traced in
alternating order, and reports the per-layer metrics (seconds and counts per traced call), the
tracing overhead, and fails the run when a layer span did not fire where
predicted or tracing changed the clusters.

Every call's result is checked outside the timed region; a call that
raises or fails a check counts as failed.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: the load model is a single client on a small machine
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import REFERENCE_S, reference_seconds
from spans import LAYERS, Tracer, traced
from workloads import GENERATORS, make_instance, write_instance

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: instances per seed, so that one pass takes 25 to 35 s on a 2-vCPU x86-64 VM
INSTANCES = {"expander-whisker": 5, "planted-decompose": 8, "terminal-grid": 4}
#: loads of an instance's files per call; setup_s is the median over all of them
SETUP_REPEATS = 10
#: largest cluster the output check brute-forces, as DecomposeConfig.verify_max_n
CHECK_MAX_N = 16

#: spans predicted to fire on expander-whisker and never elsewhere: only its
#: game ends in a near-expander cut to trim, and only its whisker makes a
#: cluster small enough for the brute-force certificate
WHISKER_ONLY_SPANS = {"trimming.trim", "flow.max_flow.trim", "verify.brute_force_expansion"}


def import_library():
    """Import mucut from this checkout's src/, never from an installed copy."""
    if not (SRC / "mucut" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mucut sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mucut
    if Path(mucut.__file__).resolve().parent != (SRC / "mucut").resolve():
        raise SystemExit(f"bench: imported mucut from {mucut.__file__}, not {SRC}")
    return mucut


def cluster_digest(clusters) -> str:
    """SHA-256 of the canonical cluster list (sorted clusters of sorted ids)."""
    canon = sorted(sorted(int(v) for v in c) for c in clusters)
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def check_result(inst, result) -> tuple[list[str], float]:
    """Problems found in a decompose result, and the recounted inter-cluster weight.

    Independent of the library's own validation: the partition and the
    weight recount use the generator's edge dict, and every cluster of 2 to
    CHECK_MAX_N vertices is held to phi/6 by the brute-force oracle.
    """
    from mucut import Graph, Infinite, VertexMeasure
    from mucut.verify import brute_force_expansion

    problems = []
    n = inst.vertex_count
    owner = {}
    for i, cluster in enumerate(result.clusters):
        for v in cluster:
            if v in owner:
                problems.append(f"vertex {v} is in two clusters")
            owner[v] = i
    if sorted(owner) != list(range(n)):
        problems.append("clusters do not cover exactly the vertex set")
        return problems, math.nan
    recount = math.fsum(w for (u, v), w in inst.edges.items() if owner[u] != owner[v])
    if abs(recount - result.inter_cluster_edge_weight) > 1e-9 * max(1.0, recount):
        problems.append(f"inter-cluster weight {result.inter_cluster_edge_weight} "
                        f"differs from the recount {recount}")
    for cluster in result.clusters:
        if not 2 <= len(cluster) <= CHECK_MAX_N:
            continue
        local = {v: i for i, v in enumerate(cluster)}
        sub = Graph(len(cluster), [(local[u], local[v], w) for (u, v), w in inst.edges.items()
                                   if u in local and v in local])
        value, _ = brute_force_expansion(sub, VertexMeasure([inst.mu[v] for v in cluster]))
        if not isinstance(value, Infinite) and value < inst.phi / 6.0 - 1e-12:
            problems.append(f"cluster {cluster} has expansion {value} < phi/6")
    return problems, recount


class Run:
    """Calls, timings and check outcomes of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.walls = defaultdict(list)  # instance -> scaled untraced decompose seconds
        self.intra = {}          # instance -> intra-cluster weight fraction, passing calls
        self.digests = {}        # instance -> cluster digest of its first passing call
        self.overheads = []      # traced minus untraced seconds, same instance
        self.digest_mismatches = 0

    def load(self, gpath: Path, mpath: Path, cli):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            g = cli.load_graph(str(gpath))
            mu = cli.load_measure(str(mpath), g)
            self.setup.append(time.perf_counter() - t0)
        return g, mu

    def call(self, mucut, index: int, inst, g, mu, label: str, tracer: Tracer | None = None):
        """One timed decompose call on instance `index`, checked afterwards.

        Returns (seconds, digest or None).  Every call on the same instance
        must give the same clusters.
        """
        self.attempted += 1
        gc.collect()  # the previous call's and check's garbage is not this call's cost
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = mucut.decompose(g, mu, inst.phi, rng=inst.rng_seed)
            else:
                with traced(tracer), tracer.span("decompose"):
                    result = mucut.decompose(g, mu, inst.phi, rng=inst.rng_seed)
        except Exception:
            result = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
        if result is None:
            self.failed += 1
            print(f"{label} wall={wall:.4f}s FAILED (raised)", flush=True)
            return wall, None
        problems, recount = check_result(inst, result)
        digest = cluster_digest(result.clusters)
        if not problems and self.digests.setdefault(index, digest) != digest:
            problems.append("clusters differ from an earlier call on the same instance")
        if tracer is not None:
            tracer.counts["decompose.depth"] += result.recursion_depth
        status = "ok"
        if problems:
            self.failed += 1
            status = "FAILED " + "; ".join(problems)
        elif tracer is None:
            self.intra[index] = 1.0 - recount / math.fsum(inst.edges.values())
        print(f"{label} wall={wall:.4f}s clusters={len(result.clusters)} "
              f"depth={result.recursion_depth} sha256={digest} {status}", flush=True)
        return wall, (None if problems else digest)


def per_layer_metrics(run: Run, tr: Tracer, traced_calls: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced decompose call, and coverage problems."""
    total, self_time, calls = tr.totals()
    cnt = tr.counts
    per = 1.0 / traced_calls

    def frac(num, den, empty):
        return num / den if den else empty

    rounds = cnt["game.rounds"]
    flow_calls = calls["flow.max_flow.matching"] + calls["flow.max_flow.trim"]
    loads = max(1, calls["cli.load_graph"])
    metrics = {
        "graph.induced_subgraph.s": (total["graph.induced_subgraph"] * per, "s"),
        "graph.induced_subgraph.calls": (calls["graph.induced_subgraph"] * per, "count"),
        "graph.induced_subgraph.edges_out": (cnt["graph.induced_subgraph.edges_out"] * per, "count"),
        "graph.connected_components.s": (total["graph.connected_components"] * per, "s"),
        "matching.build_pi_problem.s": (total["matching.build_pi_problem"] * per, "s"),
        "matching.arcs": (cnt["matching.arcs"] * per, "count"),
        "matching.solve_round.self_s": (self_time["matching.solve_round"] * per, "s"),
        "matching.feasible_frac": (frac(cnt["matching.feasible_rounds"],
                                        calls["matching.solve_round"], 1.0), "frac"),
        "flow.max_flow.s": ((total["flow.max_flow.matching"] + total["flow.max_flow.trim"]) * per,
                            "s"),
        "flow.max_flow.matching.s": (total["flow.max_flow.matching"] * per, "s"),
        "flow.max_flow.trim.s": (total["flow.max_flow.trim"] * per, "s"),
        "flow.max_flow.calls": (flow_calls * per, "count"),
        "flow.decompose_paths.s": (total["flow.decompose_paths"] * per, "s"),
        "flow.paths": (cnt["flow.paths"] * per, "count"),
        "flow.path_vertices_mean": (frac(cnt["flow.path_vertices"], cnt["flow.paths"], 0.0),
                                    "count"),
        "spectral.walk_apply.s": (total["spectral.walk_apply"] * per, "s"),
        "spectral.walk_apply.calls": (calls["spectral.walk_apply"] * per, "count"),
        "spectral.matvecs": (cnt["spectral.matvecs"] * per, "count"),
        "cutplayer.rst_partition.s": (total["cutplayer.rst_partition"] * per, "s"),
        "cutplayer.empty_source_frac": (frac(cnt["cutplayer.empty_rounds"],
                                             calls["cutplayer.rst_partition"], 0.0), "frac"),
        "game.run_cut_matching.self_s": (self_time["game.run_cut_matching"] * per, "s"),
        "game.games": (calls["game.run_cut_matching"] * per, "count"),
        "game.rounds": (rounds * per, "count"),
        "trimming.trim.s": (total["trimming.trim"] * per, "s"),
        "trimming.trim.calls": (calls["trimming.trim"] * per, "count"),
        # no trim ran: nothing was trimmed away
        "trimming.kept_mu_frac": (frac(cnt["trimming.mu_kept"], cnt["trimming.mu_in"], 1.0),
                                  "frac"),
        "decompose.self_s": (self_time["decompose"] * per, "s"),
        "decompose.depth": (cnt["decompose.depth"] * per, "count"),
        "verify.brute_force_expansion.s": (total["verify.brute_force_expansion"] * per, "s"),
        "verify.brute_force_expansion.calls": (calls["verify.brute_force_expansion"] * per,
                                               "count"),
        "cli.load_graph.s": (total["cli.load_graph"] / loads, "s"),
        "cli.load_measure.s": (total["cli.load_measure"] / loads, "s"),
        "trace.overhead_s": (statistics.median(run.overheads) if run.overheads else 0.0, "s"),
    }

    problems = [f"layer name not found: {name}" for name in tr.missing]
    for name in sorted({layer[2] for layer in LAYERS} | {"decompose"}):
        predicted = name not in WHISKER_ONLY_SPANS or run.workload == "expander-whisker"
        if (calls[name] > 0) != predicted:
            problems.append(f"span {name} fired {calls[name]} times on {run.workload}; "
                            f"predicted {'some' if predicted else 'none'}")
    if flow_calls < rounds - cnt["cutplayer.empty_rounds"]:
        problems.append(f"{flow_calls} max_flow calls for "
                        f"{rounds - cnt['cutplayer.empty_rounds']} rounds with sources")
    if run.digest_mismatches:
        problems.append(f"tracing changed the clusters on {run.digest_mismatches} instance(s)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    mucut = import_library()
    from mucut import cli

    run = Run(args.workload)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        instances = [make_instance(args.workload, args.seed, j)
                     for j in range(INSTANCES[args.workload])]
        files = [write_instance(inst, work, f"i{j}") for j, inst in enumerate(instances)]
        t_start = time.perf_counter()
        passes = 0
        ref_before = reference_seconds()
        while True:
            for j, (inst, (gpath, mpath)) in enumerate(zip(instances, files)):
                label = f"pass {passes} instance {j}"
                if not args.trace:
                    first_load = len(run.setup)
                    g, mu = run.load(gpath, mpath, cli)
                    wall, _ = run.call(mucut, j, inst, g, mu, label)
                    # host speed around this call: the reference just before and just after
                    ref_after = reference_seconds()
                    scale = REFERENCE_S / statistics.fmean((ref_before, ref_after))
                    ref_before = ref_after
                    run.walls[j].append(wall * scale)
                    run.setup[first_load:] = [t * scale for t in run.setup[first_load:]]
                    print(f"{label} reference={ref_after:.4f}s scale={scale:.4f}", flush=True)
                    continue
                with traced(tracer):
                    g, mu = run.load(gpath, mpath, cli)
                # alternate which goes first, so a warm-up effect does not bias the overhead
                outcome = {}
                for tr in ((None, tracer) if (passes + j) % 2 == 0 else (tracer, None)):
                    kind = "untraced" if tr is None else "traced"
                    outcome[kind] = run.call(mucut, j, inst, g, mu, f"{label} {kind}", tr)
                plain_wall, plain_digest = outcome["untraced"]
                traced_wall, traced_digest = outcome["traced"]
                run.overheads.append(traced_wall - plain_wall)
                if plain_digest != traced_digest:
                    run.digest_mismatches += 1
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / passes > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics, problems = per_layer_metrics(run, tracer, passes * len(instances))
        for problem in problems:
            print(f"coverage: {problem}", file=sys.stderr)
        correct = run.failed == 0 and not problems
    else:
        metrics = {
            # mean over the instance set of each instance's median call time
            "wall_s": {"value": statistics.fmean(statistics.median(ts)
                                                 for ts in run.walls.values()), "unit": "s"},
            "setup_s": {"value": statistics.median(run.setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "intra_weight_frac": {"value": statistics.fmean(run.intra.values()) if run.intra else 0.0,
                                  "unit": "frac"},
            "ok_frac": {"value": (run.attempted - run.failed) / run.attempted, "unit": "frac"},
        }
        correct = run.failed == 0
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
