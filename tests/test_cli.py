import json
import subprocess
import sys

import pytest

from mucut import cli
from mucut.cli import load_graph, load_measure, main
from mucut.errors import GraphInputError

from helpers import dumbbell_graph


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
    ("decompose", ["--phi", "0.1", "--log-base", "1"]),
    ("sparse-cut", ["--phi", "0.1", "--log-base", "0.5"]),
    ("decompose", ["--phi", "0.1", "--delta", "3"]),
    ("decompose", ["--phi", "0.1", "--verify-max-n", "0"]),
    ("decompose", ["--phi", "0.1", "--verify-max-n", "21"]),
    ("sparse-cut", ["--phi", "0.1", "--seed", "-1"]),
    ("decompose", ["--phi", "0.1", "--t-factor", "inf"]),
    ("decompose", ["--phi", "0.1", "--c-factor", "nan"]),
    ("verify", ["--phi", "-0.1"]),
    ("verify", ["--partition", "p.json", "--check-level", "nan"]),
    ("verify", ["--partition", "p.json", "--check-level", "-1"]),
    ("decompose", ["--phi", "0.1", "--log-base", "inf"]),
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


def test_under_certified_cluster_exits_3(tmp_path, capsys):
    # two 4-cliques joined by two light edges: the game certifies the whole
    # graph at seed 0, but its brute-forced expansion is below phi/6
    path = tmp_path / "cliques.txt"
    lines = [f"{u} {v}" for block in (range(4), range(4, 8))
             for u in block for v in block if u < v]
    path.write_text("\n".join(lines + ["0 4 0.05", "1 5 0.05"]) + "\n")
    assert main(["decompose", "--graph", str(path), "--phi", "0.05", "--seed", "0"]) == 3
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
    float(first[4])  # psi recorded since n <= dense limit


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


def test_verify_size_cap_exits_2(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("\n".join(f"{i} {i + 1}" for i in range(25)) + "\n")
    assert main(["verify", "--graph", str(p)]) == 2


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
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, mucut, mucut.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point(k8_file):
    proc = subprocess.run([sys.executable, "-m", "mucut.cli", "verify",
                           "--graph", k8_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 8
