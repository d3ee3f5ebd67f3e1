import argparse
import ast
import io
import json
from pathlib import Path

import pytest

import hlag
from hlag.cli import build_parser, main
from hlag.families import k53minus2, split, star
from hlag.hgio import emit_hg, parse_graph, parse_hg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, G, name="g.hg"):
    p = tmp_path / name
    p.write_text(emit_hg(G))
    return str(p)


def test_family_emits_hg(capsys):
    code, out, err = run(capsys, "family", "--name", "star", "--n", "8")
    assert code == 0
    assert parse_hg(out) == star(8, 4)


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--name", "split", "--n", "8", "--format", "json")
    assert code == 0
    assert parse_graph(out) == split(8, 4)


def test_family_unknown_name(capsys):
    code, out, err = run(capsys, "family", "--name", "bogus", "--n", "8")
    assert code == 2
    assert err.strip()


def test_eval(capsys, tmp_path):
    g = write_graph(tmp_path, star(8, 4))
    w = tmp_path / "w.txt"
    w.write_text("0.25 " + " ".join(["0.10714285714285714"] * 7))
    code, out, _ = run(capsys, "eval", "--graph", g, "--weights", str(w))
    assert code == 0
    assert float(out.split()[-1]) == pytest.approx(9 * 6 * 5 / (512 * 49), abs=1e-9)


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--graph", str(tmp_path / "no.hg"),
                       "--weights", str(tmp_path / "no.txt"))
    assert code == 2
    assert err


def test_maximize_text_layout(capsys, tmp_path):
    g = write_graph(tmp_path, k53minus2())
    code, out, _ = run(capsys, "maximize", "--graph", g)
    assert code == 0
    lines = out.strip().splitlines()
    fields = [ln.split()[0] for ln in lines]
    assert fields == ["value", "weighting", "support", "residual"]
    assert float(lines[0].split()[1]) == pytest.approx(0.06727599372434985, abs=1e-8)


def test_maximize_json(capsys, tmp_path):
    g = write_graph(tmp_path, star(8, 4))
    code, out, _ = run(capsys, "maximize", "--graph", g, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"value", "weighting", "support", "kkt_residual", "method"}
    assert obj["value"] == pytest.approx(9 * 6 * 5 / (512 * 49), abs=1e-9)


def test_maximize_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_hg(star(8, 4))))
    code, out, _ = run(capsys, "maximize", "--graph", "-")
    assert code == 0
    assert "value" in out


def test_stdin_parse_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("garbage\n"))
    code, _, err = run(capsys, "maximize", "--graph", "-")
    assert code == 2
    assert err


def test_free_clean_and_witness(capsys, tmp_path):
    g_free = write_graph(tmp_path, star(9, 4), "a.hg")
    code, out, _ = run(capsys, "free", "--graph", g_free, "--pattern", "m")
    assert code == 0
    assert "free" in out.splitlines()

    from hlag.families import complete

    g_full = write_graph(tmp_path, complete(8, 4), "b.hg")
    code, out, _ = run(capsys, "free", "--graph", g_full, "--pattern", "m")
    assert code == 1
    assert "not free" in out


def test_free_core_json(capsys, tmp_path):
    from hlag.families import complete

    g = write_graph(tmp_path, complete(8, 4))
    code, out, _ = run(capsys, "free", "--graph", g, "--pattern", "core", "--p", "8",
                       "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["free"] is False
    assert obj["pattern"] == "core(p=8)"


def test_compress_output_reparses(capsys, tmp_path):
    g = write_graph(tmp_path, k53minus2())
    code, out, _ = run(capsys, "compress", "--graph", g, "--t", "2")
    assert code == 0
    # step lines are '#'-prefixed comments, so the output is valid .hg
    G = parse_hg(out)
    assert G == k53minus2()


def test_compress_refuses_matching(capsys, tmp_path):
    from hlag.families import complete

    g = write_graph(tmp_path, complete(8, 4))
    code, _, err = run(capsys, "compress", "--graph", g, "--t", "2")
    assert code == 1
    assert "refused" in err


def test_compress_budget_exhaustion_is_an_error(capsys, tmp_path, monkeypatch):
    # every other edge of star(10, 4) takes six compression steps; a
    # potential of -1 leaves a budget of one
    from hlag.core import Hypergraph

    monkeypatch.setattr("hlag.compression.potential", lambda G: -1)
    G = Hypergraph(4, 10, frozenset(sorted(star(10, 4).edges)[::2]))
    code, out, err = run(capsys, "compress", "--graph", write_graph(tmp_path, G),
                         "--t", "2")
    assert code == 1
    assert out == ""
    assert err == "error: compression exceeded its termination budget\n"


def test_search_writes_witnesses(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--n", "6", "--witness-dir", str(tmp_path))
    assert code == 0
    max_file = tmp_path / "search-n6-max.hg"
    assert max_file.exists()
    G = parse_hg(max_file.read_text())
    assert G.n == 6 and len(G) == 15


def test_search_guard_and_unsafe_flag(capsys, tmp_path):
    code, _, err = run(capsys, "search", "--n", "12", "--witness-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "--unsafe-size" in err
    code, _, err = run(capsys, "verify", "--suite", "theorem", "--n-min", "10",
                       "--n-max", "10", "--witness-dir", str(tmp_path))
    assert code == 2
    assert "--unsafe-size" in err


def test_search_rejects_matching_size_zero(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--n", "7", "--t", "0",
                         "--witness-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_symmetrize_trace_file(capsys, tmp_path):
    g = write_graph(tmp_path, split(12, 4))
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "symmetrize", "--graph", g, "--alpha", "0.05",
                       "--trace", str(trace_path))
    assert code == 0
    assert "audit ok" in out
    records = json.loads(trace_path.read_text())
    assert isinstance(records, list) and records
    assert set(records[0]) == {"index", "kind", "detail", "vertex_count", "edge_count"}


def test_symmetrize_refusal(capsys, tmp_path):
    from hlag.families import complete

    g = write_graph(tmp_path, complete(8, 4))
    code, _, err = run(capsys, "symmetrize", "--graph", g, "--alpha", "0.05")
    assert code == 1
    assert "refused" in err


def test_partition_text_and_exhaustive(capsys, tmp_path):
    g = write_graph(tmp_path, split(8, 4))
    code, out, _ = run(capsys, "partition", "--graph", g, "--exhaustive")
    assert code == 0
    lines = dict(
        (ln.split()[0], ln.split()[1:]) for ln in out.strip().splitlines()
    )
    assert lines["sigma"] == ["0"]
    assert lines["w1"] == ["1", "2"]
    assert lines["exhaustive"] == ["yes"]


def test_partition_json(capsys, tmp_path):
    g = write_graph(tmp_path, split(8, 4))
    code, out, _ = run(capsys, "partition", "--graph", g, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["sigma"] == 0
    assert obj["w1"] == [1, 2]


def test_verify_cases_json_is_bare_array(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cases", "--n-min", "8",
                       "--n-max", "8", "--format", "json")
    assert code == 1  # known failing rows keep the suite honest
    rows = json.loads(out)
    assert isinstance(rows, list)
    assert len(rows) == 45
    assert {"check_id", "computed", "passed"} <= set(rows[0])


def test_verify_theorem_passes(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--n-max", "6",
                       "--jobs", "2", "--witness-dir", str(tmp_path))
    assert code == 0
    assert "passed" in out


def test_verify_theorem_rejects_restarts(capsys, tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--suite", "theorem", "--n-max", "5",
              "--restarts", "4", "--witness-dir", str(tmp_path)])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --restarts 4" in captured.err


def test_shared_flags_only_where_read():
    # the full inventory: a new option needs a deliberate edit here
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    fmt, seeded = {"--format"}, {"--format", "--seed"}
    assert flags == {
        "family": fmt | {"--name", "--n", "--r", "--t", "--p", "--a"},
        "eval": fmt | {"--graph", "--weights"},
        "maximize": seeded | {"--graph", "--method", "--restarts"},
        "compress": seeded | {"--graph", "--t"},
        "free": fmt | {"--graph", "--pattern", "--t", "--p"},
        "search": seeded | {
            "--jobs", "--n", "--r", "--t", "--witness-dir", "--unsafe-size",
        },
        "symmetrize": fmt | {"--graph", "--alpha", "--fixed-n", "--trace"},
        "partition": seeded | {"--graph", "--restarts", "--exhaustive"},
        "verify": seeded | {
            "--jobs", "--suite", "--n-min", "--n-max", "--witness-dir", "--unsafe-size",
        },
    }


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_library_reads_no_environment_variable():
    # the one access is the BLAS thread pin, which only sets a default
    reads = []
    for path in sorted(Path(hlag.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in _ENV_NAMES:
                line = source.splitlines()[node.lineno - 1].strip()
                reads.append((path.name, line))
    assert reads == [
        ("__init__.py", 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")'),
    ]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["bogus-command"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["maximize"])  # missing --graph
    assert ei.value.code == 2


def test_seeded_cli_runs_identical(capsys, tmp_path):
    g = write_graph(tmp_path, k53minus2())
    argv = ["maximize", "--graph", g, "--method", "multistart-ascent",
            "--seed", "3", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


THEOREM_ROWS = {
    9: "9 37145 72 0.014577259475218656 0.014577259475218656 0.27685546875 ok",
    10: "10 299819 72 0.014577259475218656 0.014577259475218656 0.29166666666666663 ok",
}


@pytest.mark.parametrize("n", [9, 10])
def test_verify_theorem_rows_are_pinned(capsys, tmp_path, n):
    # from n = 9 on the 72 maximal families are solved by prefix support
    # enumeration; the printed row must not move
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--n-min", str(n),
                       "--n-max", str(n), "--unsafe-size",
                       "--witness-dir", str(tmp_path))
    assert code == 0
    assert out == (
        "n families evaluated max_lambda nonstar_max scaled_star checks\n"
        f"{THEOREM_ROWS[n]}\ntrend ok\npassed\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --suite theorem --n-min 9 --n-max 4", "empty n range"),
        ("verify --suite theorem --n-max 5 --jobs 0", "jobs must be >= 1"),
        ("search --n 6 --jobs -3", "jobs must be >= 1"),
        ("verify --suite cases --n-min 8 --n-max 8 --jobs 0", "jobs must be >= 1"),
        ("verify --suite cases --n-min 8 --n-max 8 --jobs -3", "jobs must be >= 1"),
        ("partition --graph SPLIT --restarts 0", "restarts must be >= 1"),
        ("partition --graph SPLIT --restarts -2", "restarts must be >= 1"),
        ("symmetrize --graph SPLIT --alpha 1", "alpha must lie in"),
        ("symmetrize --graph SPLIT --alpha 2", "alpha must lie in"),
    ],
)
def test_out_of_range_values_exit_2(capsys, tmp_path, argv, message):
    g = write_graph(tmp_path, split(12, 4))
    argv = [g if a == "SPLIT" else a for a in argv.split()]
    if argv[0] in ("verify", "search"):
        argv += ["--witness-dir", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["g.hg"]
