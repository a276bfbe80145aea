import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mucut import cli, spectral
from mucut.cli import load_graph, load_measure, main
from mucut.errors import GraphInputError

from helpers import dumbbell_graph

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_checkout_python(*args):
    """Run a Python child that imports this checkout's mucut, whatever mucut
    is installed or on the ambient PYTHONPATH."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture()
def dumbbell_file(tmp_path):
    g = dumbbell_graph(8)
    path = tmp_path / "dumbbell.txt"
    lines = ["# two 8-cliques and a bridge"]
    lines += [f"{u} {v}" for u, v, _ in g.edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def k8_file(tmp_path):
    path = tmp_path / "k8.txt"
    lines = [f"{i} {j}" for i in range(8) for j in range(i + 1, 8)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_graph_formats(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("p 4 3\n0 1\n1 2 2.5  # weighted\n\n2 3\n")
    g = load_graph(str(p))
    assert g.vertex_count == 4
    assert g.edge_weight(1, 2) == 2.5
    assert g.edge_weight(2, 3) == 1.0


def test_load_graph_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 2 3\n")
    with pytest.raises(GraphInputError):
        load_graph(str(p))
    p.write_text("0 x\n")
    with pytest.raises(GraphInputError):
        load_graph(str(p))


def test_load_measure_default_and_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_graph(str(p))
    assert list(load_measure(None, g).values) == [1.0, 2.0, 1.0]
    m = tmp_path / "mu.txt"
    m.write_text("0 3.5\n2 1.0\n")
    mu = load_measure(str(m), g)
    assert list(mu.values) == [3.5, 0.0, 1.0]  # absent vertices get zero


GRAPH_FILE_ERRORS = [
    ("0 1\np 3 1\n", "{path}:2: stray problem line"),
    ("p 3 1\n# again\np 3 1\n", "{path}:3: stray problem line"),
    ("p\n0 1\n", "{path}:1: bad problem line"),
    ("\np x 1\n", "{path}:2: bad problem line"),
    ("# header\n0 1 2 3\n", "{path}:2: expected 'u v [w]'"),
    ("0 1\n2\n", "{path}:2: expected 'u v [w]'"),
    ("0 1\n0 x  # comment\n", "{path}:2: bad edge line '0 x'"),
    ("0 1.5 2\n", "{path}:1: bad edge line '0 1.5 2'"),
    ("0 1 heavy\n", "{path}:1: bad edge line '0 1 heavy'"),
    ("0 x\n0 1 2 3\np 3 1\n", "{path}:1: bad edge line '0 x'"),
    ("0 1 2 3\n0 x\n", "{path}:1: expected 'u v [w]'"),
    ("0 1\np 3 1\n0 x\n", "{path}:2: stray problem line"),
    ("p 3 1\n0 5\n", "edge (0,5) out of range for n=3"),
    ("p 3 1\n-1 2\n", "edge (-1,2) out of range for n=3"),
    ("1 1\n", "self-loop at vertex 1 rejected"),
    ("0 1 -2\n", "edge (0,1) has weight -2.0; weights must be positive and finite"),
    ("0 1 nan\n", "edge (0,1) has weight nan; weights must be positive and finite"),
    ("0 1 inf\n", "edge (0,1) has weight inf; weights must be positive and finite"),
    ("p 3 2\n0 1 0\n0 5\n", "edge (0,1) has weight 0.0; weights must be positive and finite"),
    ("p 3 2\n0 5\n1 1\n", "edge (0,5) out of range for n=3"),
    ("p 3 2\n1 1\n0 5\n", "self-loop at vertex 1 rejected"),
    ("# only a comment\n\n   \n", "{path}: no vertices"),
    ("p 0 0\n", "{path}: no vertices"),
    ("p -2 0\n", "{path}: no vertices"),
    ("p 3\n0 2\n18446744073709551615 1\n1 18446744073709551615\n",
     "edge (18446744073709551615,1) out of range for n=3"),
    ("p 3\n18446744073709551615 0\n", "edge (18446744073709551615,0) out of range for n=3"),
]

MEASURE_FILE_ERRORS = [
    ("0 1.0 2\n", "{path}:1: expected 'v value'"),
    ("# header\n0\n", "{path}:2: expected 'v value'"),
    ("p 3 1\n", "{path}:1: expected 'v value'"),
    ("x 1.0\n", "{path}:1: bad measure line"),
    ("0 1.0\n1 heavy\n", "{path}:2: bad measure line"),
    ("0 1.0\n9 1.0\n", "{path}:2: vertex 9 out of range"),
    ("-1 1.0\n", "{path}:1: vertex -1 out of range"),
    ("0 1.0\n1 2.0\n# vertex 0 again\n0 5.0\n", "{path}:4: vertex 0 already given on line 1"),
    ("0 1\n0 2\n1 x\n", "{path}:2: vertex 0 already given on line 1"),
    ("1 x\n0 1\n0 2\n", "{path}:1: bad measure line"),
    ("0 1\n9 1\n0 2\n", "{path}:2: vertex 9 out of range"),
    ("0 1\n1 1\n1 2\n0 3\n", "{path}:3: vertex 1 already given on line 2"),
    ("0 -1.0\n", "measure values must be finite and non-negative"),
    ("0 nan\n", "measure values must be finite and non-negative"),
]


@pytest.mark.parametrize("content, message", GRAPH_FILE_ERRORS)
def test_load_graph_error_messages(tmp_path, content, message):
    # each malformed file fails with the message of its first bad line, or,
    # for a well-formed file, of its first bad edge in file order
    p = tmp_path / "g.txt"
    p.write_text(content)
    with pytest.raises(GraphInputError) as err:
        load_graph(str(p))
    assert str(err.value) == message.format(path=p)


@pytest.mark.parametrize("content, message", MEASURE_FILE_ERRORS)
def test_load_measure_error_messages(tmp_path, content, message):
    p = tmp_path / "g.txt"
    p.write_text("p 4 3\n0 1\n1 2\n2 3\n")
    m = tmp_path / "mu.txt"
    m.write_text(content)
    with pytest.raises(GraphInputError) as err:
        load_measure(str(m), load_graph(str(p)))
    assert str(err.value) == message.format(path=m)


def test_load_graph_reads_crlf_and_comment_lines(tmp_path):
    text = "# header\n\np 5 4  # n and m\n0 1\n   # indented\n1 2 2.5\n\n2 3 # tail\n3 4 0.5\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    g, h = load_graph(str(lf)), load_graph(str(crlf))
    assert g.vertex_count == h.vertex_count == 5
    assert g.edges == h.edges == ((0, 1, 1.0), (1, 2, 2.5), (2, 3, 1.0), (3, 4, 0.5))
    mu = tmp_path / "mu.txt"
    mu.write_bytes(b"# measure\r\n0 2.0\r\n\r\n   # none for 1\r\n4 0.5 # last\r\n")
    assert load_measure(str(mu), h).values.tolist() == [2.0, 0.0, 0.0, 0.0, 0.5]
    # line numbers count CRLF lines as the LF file counts them
    crlf.write_bytes(b"0 1\r\n# c\r\n1 x\r\n")
    with pytest.raises(GraphInputError, match=r":3: bad edge line '1 x'$"):
        load_graph(str(crlf))


def test_repeated_measure_vertex_exits_2(k8_file, tmp_path, capsys):
    m = tmp_path / "mu.txt"
    m.write_text("0 1.0\n1 2.0\n# vertex 0 again\n0 5.0\n")
    assert main(["decompose", "--graph", k8_file, "--phi", "0.1", "--mu", str(m)]) == 2
    err = capsys.readouterr().err
    assert f"{m}:4: vertex 0 already given on line 1" in err


def test_decompose_command(dumbbell_file, tmp_path):
    out = tmp_path / "out.json"
    code = main(["decompose", "--graph", dumbbell_file, "--phi", "0.05",
                 "--seed", "7", "--json-out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["clusters"]) >= 2
    assert data["seed"] == 7
    assert {"clusters", "inter_cluster_edge_weight", "phi", "seed", "params",
            "certificates", "depth"} <= set(data)


def test_decompose_expander_single_cluster(k8_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["decompose", "--graph", k8_file, "--phi", "0.01",
                 "--json-out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["clusters"]) == 1


def test_missing_file_exits_2(capsys):
    assert main(["decompose", "--graph", "/nonexistent.txt", "--phi", "0.05"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_phi_exits_2(k8_file):
    assert main(["decompose", "--graph", k8_file, "--phi", "-1.0"]) == 2


@pytest.mark.parametrize("command, flags", [
    ("decompose", ["--phi", "0"]),
    ("decompose", ["--phi", "nan"]),
    ("decompose", ["--phi", "inf"]),
    ("sparse-cut", ["--phi", "0"]),
    ("decompose", ["--phi", "0.1", "--seed", "-1"]),
    ("decompose", ["--phi", "0.1", "--verify-max-n", "0"]),
    ("decompose", ["--phi", "0.1", "--verify-max-n", "21"]),
    ("sparse-cut", ["--phi", "0.1", "--seed", "-1"]),
    ("decompose", ["--phi", "-0.5"]),
    ("decompose", ["--phi", "0.1", "--verify-max-n", "-1"]),
    ("verify", ["--phi", "-0.1"]),
    ("verify", ["--partition", "p.json", "--check-level", "nan"]),
    ("verify", ["--partition", "p.json", "--check-level", "-1"]),
    ("decompose", ["--phi", "1e-400"]),  # underflows to 0.0
    ("decompose", ["--phi", "-0.0"]),
    ("sparse-cut", ["--phi", "nan"]),
])
def test_bad_flag_values_exit_2(k8_file, capsys, command, flags):
    assert main([command, "--graph", k8_file] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[-2]} must be ")  # rejected before any file is read


def test_internal_value_error_exits_3(k8_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("solver bug")

    monkeypatch.setattr(cli, "decompose", broken)
    assert main(["decompose", "--graph", k8_file, "--phi", "0.1"]) == 3
    assert "internal check failed: solver bug" in capsys.readouterr().err


def test_failed_run_leaves_its_output_files_empty(k8_file, tmp_path, monkeypatch):
    # the outputs are opened before the run, as shell redirection opens them
    def broken(*args, **kwargs):
        raise ValueError("solver bug")

    monkeypatch.setattr(cli, "decompose", broken)
    out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
    out.write_text("stale")
    assert main(["decompose", "--graph", k8_file, "--phi", "0.1", "--json-out", str(out),
                 "--trace", str(trace)]) == 3
    assert out.read_text() == trace.read_text() == ""


def refuse(*args, **kwargs):
    pytest.fail("the command read its input or played a game")


@pytest.mark.parametrize("argv, outputs", [
    (["decompose", "--phi", "0.1"], ["--json-out", "--trace"]),
    (["decompose", "--phi", "0.1"], ["--trace"]),
    (["sparse-cut", "--phi", "0.1"], ["--json-out", "--trace"]),
    (["sparse-cut", "--phi", "0.1"], ["--trace"]),
    (["verify"], ["--json-out"]),
    (["verify", "--partition", "part.json"], ["--json-out"]),
], ids=["decompose", "decompose-trace", "sparse-cut", "sparse-cut-trace", "verify",
        "verify-partition"])
def test_unwritable_output_fails_before_any_game(dumbbell_file, tmp_path, monkeypatch, capsys,
                                                 argv, outputs):
    for name in ("load_graph", "decompose", "balanced_or_expander", "validate_partition",
                 "brute_force_expansion"):
        monkeypatch.setattr(cli, name, refuse)
    missing = tmp_path / "missing"
    flags = [arg for flag in outputs for arg in (flag, str(missing / f"out{flag}"))]
    assert main(argv + ["--graph", dumbbell_file] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err


@pytest.mark.parametrize("argv, flags", [
    (["verify", "--partition"], ["--json-out"]),
    (["decompose", "--phi", "0.1", "--json-out"], ["--trace"]),
    (["sparse-cut", "--phi", "0.1", "--trace"], ["--json-out"]),
], ids=["verify", "decompose", "sparse-cut"])
def test_files_must_differ(dumbbell_file, tmp_path, monkeypatch, capsys, argv, flags):
    # the outputs are opened first, so one path twice would empty the
    # partition before it is read, or mix the JSON into the trace
    monkeypatch.setattr(cli, "load_graph", refuse)
    part = tmp_path / "part.json"
    part.write_text('{"clusters": [[0]], "inter_cluster_edge_weight": 0.0}')
    twice = [str(part)] + flags + [str(tmp_path / "." / "part.json")]
    assert main(argv + twice + ["--graph", dumbbell_file]) == 2
    assert "must name different files" in capsys.readouterr().err
    assert part.read_text().startswith('{"clusters"')


@pytest.mark.parametrize("argv, output, source", [
    (["decompose", "--phi", "0.1"], "--json-out", "--graph"),
    (["decompose", "--phi", "0.1"], "--trace", "--mu"),
    (["sparse-cut", "--phi", "0.1"], "--json-out", "--mu"),
    (["sparse-cut", "--phi", "0.1"], "--trace", "--graph"),
    (["verify"], "--json-out", "--graph"),
    (["verify"], "--json-out", "--mu"),
], ids=["decompose-json-graph", "decompose-trace-mu", "sparse-cut-json-mu",
        "sparse-cut-trace-graph", "verify-json-graph", "verify-json-mu"])
def test_an_output_may_not_name_an_input(dumbbell_file, tmp_path, monkeypatch, capsys,
                                         argv, output, source):
    # the early open would empty the input: a graph left with no vertices,
    # or a measure read as all zeros and a run that exits 0
    for name in ("decompose", "balanced_or_expander", "validate_partition",
                 "brute_force_expansion"):
        monkeypatch.setattr(cli, name, refuse)
    mu = tmp_path / "mu.txt"
    mu.write_text("".join(f"{v} 1.0\n" for v in range(16)))
    inputs = {"--graph": dumbbell_file, "--mu": str(mu)}
    before = {flag: Path(path).read_bytes() for flag, path in inputs.items()}
    same = str(Path(inputs[source]).parent / "." / Path(inputs[source]).name)
    files = [arg for flag, path in inputs.items() for arg in (flag, path)]
    assert main(argv + files + [output, same]) == 2
    assert f"{output} and {source} must name different files" in capsys.readouterr().err
    assert {flag: Path(path).read_bytes() for flag, path in inputs.items()} == before


def test_inputs_may_share_a_path(tmp_path):
    # a file may hold the graph's edges and the measure's lines alike
    both = tmp_path / "both.txt"
    both.write_text("0 1\n1 2\n")
    assert main(["verify", "--graph", str(both), "--mu", str(both)]) == 0


def test_under_certified_cluster_exits_3(tmp_path, capsys):
    # two 4-cliques joined by two light edges: the game certifies the whole
    # graph at seed 0, but its brute-forced expansion is below phi/6
    path = tmp_path / "cliques.txt"
    lines = [f"{u} {v}" for block in (range(4), range(4, 8))
             for u in block for v in block if u < v]
    path.write_text("\n".join(lines + ["0 4 0.05", "1 5 0.05"]) + "\n")
    assert main(["decompose", "--graph", str(path), "--phi", "0.05", "--seed", "0"]) == 3
    assert "below phi/6" in capsys.readouterr().err


def test_under_certified_small_cluster_exits_3_past_verify_max_n(tmp_path, capsys):
    # the 8-vertex cluster is above a size cap of 7 but below 20 vertices,
    # where the game's certificate alone does not hold
    path = tmp_path / "cliques.txt"
    lines = [f"{u} {v}" for block in (range(4), range(4, 8))
             for u in block for v in block if u < v]
    path.write_text("\n".join(lines + ["0 4 0.05", "1 5 0.05"]) + "\n")
    argv = ["decompose", "--graph", str(path), "--phi", "0.05", "--seed", "0",
            "--verify-max-n", "7"]
    assert main(argv) == 3
    assert "below phi/6" in capsys.readouterr().err


def test_byte_identical_reruns(dumbbell_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["decompose", "--graph", dumbbell_file, "--phi", "0.05",
                     "--seed", "42", "--json-out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_csv(dumbbell_file, tmp_path):
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.csv"
    assert main(["decompose", "--graph", dumbbell_file, "--phi", "0.05",
                 "--seed", "7", "--json-out", str(out), "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,active_size,mu_R,matching_weight,psi"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[4])  # psi recorded: the game has at most PSI_MAX_TERMINALS terminals


def test_trace_leaves_psi_empty_past_the_terminal_limit(dumbbell_file, tmp_path, monkeypatch):
    # no walk on more than PSI_MAX_TERMINALS terminals runs a stop test, and
    # the trace reports no psi for it
    monkeypatch.setattr(spectral, "PSI_MAX_TERMINALS", 1)
    trace = tmp_path / "trace.csv"
    assert main(["decompose", "--graph", dumbbell_file, "--phi", "0.05", "--seed", "7",
                 "--json-out", str(tmp_path / "out.json"), "--trace", str(trace)]) == 0
    rows = trace.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[4] == "" for row in rows)


def test_trace_extends_its_product_once_per_round(dumbbell_file, tmp_path, monkeypatch):
    # each game's psi comes from one product, extended once per round, never rebuilt
    real_times, real_potentials = spectral.LazyFactor.times, cli.potentials
    extended, games = [], []

    def times(self, c):
        extended.append(len(c))
        return real_times(self, c)

    def potentials(rounds, measure, delta):
        before = len(extended)
        psis = real_potentials(rounds, measure, delta)
        games.append((len(rounds), len(extended) - before))
        return psis

    monkeypatch.setattr(spectral.LazyFactor, "times", times)
    monkeypatch.setattr(cli, "potentials", potentials)
    trace = tmp_path / "trace.csv"
    assert main(["decompose", "--graph", dumbbell_file, "--phi", "0.05", "--seed", "7",
                 "--json-out", str(tmp_path / "out.json"), "--trace", str(trace)]) == 0
    rows = trace.read_text().splitlines()[1:]
    assert len(games) > 1 and sum(rounds for rounds, _ in games) == len(rows)
    assert all(calls == rounds for rounds, calls in games)


def test_trace_fills_psi_past_64_vertices(tmp_path):
    # a 9 x 9 grid with 27 terminals: psi on every round, non-increasing and
    # at most |terminals| - 1
    graph, mu = tmp_path / "grid.txt", tmp_path / "mu.txt"
    graph.write_text("".join(f"{v} {v + 1}\n" for v in range(81) if v % 9 < 8)
                     + "".join(f"{v} {v + 9} 2.0\n" for v in range(72)))
    mu.write_text("".join(f"{v} 1.5\n" for v in range(0, 81, 3)))
    trace = tmp_path / "trace.csv"
    assert main(["sparse-cut", "--graph", str(graph), "--mu", str(mu), "--phi", "0.2",
                 "--seed", "1", "--json-out", str(tmp_path / "out.json"),
                 "--trace", str(trace)]) == 0
    psis = [float(row.split(",")[4]) for row in trace.read_text().splitlines()[1:]]
    assert len(psis) > 1 and psis[0] <= 27 - 1
    for a, b in zip(psis, psis[1:]):
        assert b <= a + 1e-9


def test_sparse_cut_command(dumbbell_file, k8_file, tmp_path):
    out = tmp_path / "cut.json"
    assert main(["sparse-cut", "--graph", dumbbell_file, "--phi", "0.3",
                 "--seed", "1", "--json-out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["case"] in ("balanced-cut", "unbalanced-expander-cut")
    assert data["cut_expansion"] <= 2 * 7.0
    assert main(["sparse-cut", "--graph", k8_file, "--phi", "0.01",
                 "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["case"] == "certified"


def test_sparse_cut_single_vertex(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("p 1 0\n")
    out = tmp_path / "o.json"
    assert main(["sparse-cut", "--graph", str(p), "--phi", "0.1",
                 "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["case"] == "certified"


def test_verify_expansion_command(k8_file, tmp_path, capsys):
    assert main(["verify", "--graph", k8_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["expansion"] == pytest.approx(4.0 / 7.0)


def test_verify_partition_roundtrip(dumbbell_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["decompose", "--graph", dumbbell_file, "--phi", "0.05",
                 "--seed", "7", "--json-out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["verify", "--graph", dumbbell_file, "--partition", str(out),
                 "--phi", "0.05", "--json-out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["partition_exact"] and data["all_passed"]


def test_verify_partition_needs_a_level(k8_file, tmp_path, capsys):
    # with no --phi and no 'phi' in the file there is no phi/6 to check
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"clusters": [list(range(8))], "inter_cluster_edge_weight": 0.0}))
    argv = ["verify", "--graph", k8_file, "--partition", str(part)]
    assert main(argv) == 2
    assert "no 'phi', --phi or --check-level" in capsys.readouterr().err
    assert main(argv + ["--check-level", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["check_level"] == 0.5
    assert main(argv + ["--phi", "0.6"]) == 0
    assert json.loads(capsys.readouterr().out)["check_level"] == pytest.approx(0.1)


def test_verify_size_cap_exits_2(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("\n".join(f"{i} {i + 1}" for i in range(25)) + "\n")
    assert main(["verify", "--graph", str(p)]) == 2


@pytest.mark.parametrize("flag", [["--phi", "0.5"], ["--check-level", "1e9"],
                                  ["--verify-max-n", "3"]])
def test_verify_partition_flags_without_partition_exit_2(tmp_path, capsys, flag):
    # the brute-force mode used to accept these and ignore them
    p = tmp_path / "cycle.txt"
    p.write_text("\n".join(f"{i} {(i + 1) % 14}" for i in range(14)) + "\n")
    assert main(["verify", "--graph", str(p)]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", str(p)] + flag) == 2
    assert f"{flag[0]} applies only with --partition" in capsys.readouterr().err


def test_verify_single_vertex_exits_2(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("p 1 0\n")
    assert main(["verify", "--graph", str(p)]) == 2


@pytest.mark.parametrize("content", [
    {"inter_cluster_edge_weight": 1.0},
    {"clusters": [[0, 1]]},
    {"clusters": "0 1", "inter_cluster_edge_weight": 0.0},
    {"clusters": [[0, "1"]], "inter_cluster_edge_weight": 0.0},
    {"clusters": [[0], []], "inter_cluster_edge_weight": 0.0},
    {"clusters": [[0, 1.5]], "inter_cluster_edge_weight": 0.0},
    {"clusters": [list(range(8))], "inter_cluster_edge_weight": "0"},
    {"clusters": [list(range(8))], "inter_cluster_edge_weight": 0.0, "phi": -1},
    [[0, 1]],
])
def test_verify_malformed_partition_exits_2(k8_file, tmp_path, content):
    part = tmp_path / "part.json"
    part.write_text(json.dumps(content))
    assert main(["verify", "--graph", k8_file, "--partition", str(part)]) == 2


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency: importing scipy.sparse alone
    # adds about 22 MB of resident memory to every run
    proc = run_checkout_python(
        "-c", "import sys, mucut, mucut.cli; print('scipy' in sys.modules, mucut.__file__, sep='\\n')")
    assert proc.returncode == 0, proc.stderr
    loaded, where = proc.stdout.splitlines()
    assert loaded == "False"
    assert where.startswith(SRC)


def test_console_entry_point(k8_file):
    proc = run_checkout_python("-m", "mucut.cli", "verify", "--graph", k8_file)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 8


def write_mixed_partition(tmp_path):
    """A graph and a partition whose verify report holds every kind of cluster
    check: a singleton ("infinite"), a brute-forced K4, a K7 above a size cap
    of 5 (null) and a pair with no edge inside (expansion 0.0, failed)."""
    edges = [(u, v) for block in (range(1, 5), range(5, 12))
             for u in block for v in block if u < v]
    edges += [(0, 1), (4, 5), (11, 12), (0, 13)]
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in edges))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"clusters": [[0], [1, 2, 3, 4], list(range(5, 12)), [12, 13]],
                                "inter_cluster_edge_weight": 4.0, "phi": 0.05}))
    return str(graph), str(part)


def test_verify_partition_json_bytes(tmp_path):
    graph, part = write_mixed_partition(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", "--graph", graph, "--partition", part, "--verify-max-n", "5",
                 "--json-out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [c["expansion"] for c in data["clusters"]] == ["infinite", 4.0 / 7.0, None, 0.0]
    assert [c["passed"] for c in data["clusters"]] == [True, True, None, False]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b0f8cc4223d01616fb1477df7f57b7a55f71ef6ce8b65e0512e05183519c28ea")


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--trace", "x.csv"]),
    ("verify", ["--delta", "3"]),
    ("sparse-cut", ["--phi", "0.1", "--verify-max-n", "16"]),
    ("decompose", ["--phi", "0.1", "--dense-limit", "50"]),
    ("sparse-cut", ["--phi", "0.1", "--dense-limit", "50"]),
    # the game's constants have no flags
    ("decompose", ["--phi", "0.1", "--t-factor", "2"]),
    ("sparse-cut", ["--phi", "0.1", "--t-factor", "2"]),
    ("decompose", ["--phi", "0.1", "--c-factor", "1"]),
    ("sparse-cut", ["--phi", "0.1", "--c-factor", "1"]),
    ("decompose", ["--phi", "0.1", "--delta", "2"]),
    ("sparse-cut", ["--phi", "0.1", "--delta", "2"]),
    ("decompose", ["--phi", "0.1", "--log-base", "2"]),
    ("sparse-cut", ["--phi", "0.1", "--log-base", "2"]),
])
def test_flags_a_command_does_not_read_are_unknown(k8_file, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", k8_file] + flags)
    assert exc.value.code == 2


def test_every_registered_flag_is_read(dumbbell_file, tmp_path):
    """Each command reads every flag its parser registers (so none is dead)."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    game = ["--graph", dumbbell_file, "--phi", "0.05", "--trace", str(tmp_path / "t.csv")]
    out = {name: str(tmp_path / f"{name}.json") for name in commands}
    runs = {"decompose": game, "sparse-cut": game,
            "verify": ["--graph", dumbbell_file, "--partition", out["decompose"]]}
    assert set(runs) == set(commands)
    for command, argv in runs.items():
        args = parser.parse_args([command, "--json-out", out[command]] + argv,
                                 namespace=Recording())
        reads.clear()  # parsing itself reads every default
        assert args.func(args) == 0
        registered = {a.dest for a in commands[command]._actions if a.dest != "help"}
        assert registered - reads == set(), command


def test_verify_max_n_help_names_the_game_certification_size(monkeypatch):
    # the help text is built from the rule, so the two cannot drift apart
    monkeypatch.setattr(cli, "GAME_CERTIFIES_FROM_N", 37)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flag = next(a for a in commands["decompose"]._actions if "--verify-max-n" in a.option_strings)
    assert flag.help.endswith("below 37 vertices are brute-forced regardless")


def test_readme_lists_every_registered_flag():
    """The README's "Flags by subcommand" list names exactly the flags the
    subcommands register."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Flags by subcommand"):readme.index("Exit codes:")]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    registered = {flag for p in commands.values() for a in p._actions
                  for flag in a.option_strings if flag.startswith("--") and flag != "--help"}
    assert named == registered
