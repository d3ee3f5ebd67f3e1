import argparse
import ast
import dataclasses
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlag
from hlag.cli import build_parser, main
from hlag.families import complete, k53minus2, split, star
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


def _key_sets(obj):
    """The key set of a JSON object and of each object under it: a nested
    object is keyed by its name, a list of objects (whose rows must share
    one key set) by its name, and a bare array of objects by ``"[]"``."""
    if isinstance(obj, list):
        obj, sets = {"[]": obj}, {}
    else:
        sets = {"": set(obj)}
    for name, value in obj.items():
        if isinstance(value, dict):
            sets[name] = set(value)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            rows = {frozenset(row) for row in value}
            assert len(rows) == 1, name
            sets[name] = set(rows.pop())
    return sets


_GRAPH_KEYS = {"r", "n", "edges"}


@pytest.mark.parametrize("argv, keys", [
    pytest.param(["maximize", "--graph", "k53.hg"], {"": {
        "value", "weighting", "support", "kkt_residual", "method", "restarts", "seed",
    }}, id="maximize"),
    pytest.param(["compress", "--graph", "half_star.hg", "--t", "2"], {
        "": {"final", "initial_value", "final_value", "steps"},
        "final": _GRAPH_KEYS,
        "steps": {"kind", "removed", "i", "j", "moved", "value"},
    }, id="compress"),
    pytest.param(["partition", "--graph", "split8.hg"], {"": {
        "sigma", "w1", "w2", "good", "bad", "very_bad", "worst", "exhaustive",
    }}, id="partition"),
    pytest.param(["search", "--n", "6"], {"": {
        "n", "r", "t", "families", "evaluated", "max_lambda", "witness",
        "star_subgraph", "nonstar_max", "nonstar_witness",
    }}, id="search"),
    pytest.param(["verify", "--suite", "theorem", "--n-max", "5"], {
        "": {"rows", "violations", "trend_monotone", "passed"},
        "rows": {
            "n", "families", "evaluated", "max_lambda", "star_subgraph",
            "nonstar_max", "star_value", "star_formula", "scaled_star",
            "nonstar_ok", "star_ok",
        },
    }, id="verify-theorem"),
    pytest.param(["verify", "--suite", "cases", "--n-min", "8", "--n-max", "8"], {
        "[]": {
            "check_id", "family", "n", "bound_num", "bound_den", "computed",
            "margin", "passed", "kind", "tol",
        },
    }, id="verify-cases"),
    pytest.param(["free", "--graph", "complete8.hg", "--pattern", "core", "--p", "8"], {
        "": {"pattern", "free", "witness"},
        "witness": {"core", "edges"},
    }, id="free"),
    pytest.param(["symmetrize", "--graph", "split12.hg", "--alpha", "0.05"], {
        "": {
            "steps", "final", "vertex_fraction", "target_fraction", "audit_ok",
            "violations",
        },
        "final": _GRAPH_KEYS,
        "violations": {"check", "detail"},
    }, id="symmetrize"),
])
def test_json_key_sets_are_pinned(capsys, monkeypatch, tmp_path, argv, keys):
    # JSON comes from the result types' fields, so a new field would reach
    # the output unseen; each subcommand's keys are pinned here instead
    from hlag.core import Hypergraph
    from hlag.families import complete

    half_star = Hypergraph(4, 10, frozenset(sorted(star(10, 4).edges)[::2]))
    for name, G in (("k53", k53minus2()), ("half_star", half_star),
                    ("split8", split(8, 4)), ("split12", split(12, 4)),
                    ("complete8", complete(8, 4))):
        write_graph(tmp_path, G, f"{name}.hg")
    monkeypatch.chdir(tmp_path)
    # the audit judges each trace at n = 20, so symmetrize reports violations
    real_audit = hlag.cli.audit
    monkeypatch.setattr(
        hlag.cli, "audit", lambda trace: real_audit(dataclasses.replace(trace, fixed_n=20))
    )
    out = run(capsys, *argv, "--format", "json")[1]
    assert _key_sets(json.loads(out)) == keys


def test_verify_theorem_passes(capsys, tmp_path):
    # the benchmark's pinned dichotomy calls pass exactly --jobs 1, so
    # removing the flag fails here before it fails the benchmark
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--n-max", "6",
                       "--jobs", "1", "--witness-dir", str(tmp_path))
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


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --suite theorem --jobs 0", "invalid choice"),
        ("verify --suite theorem --jobs 2", "invalid choice"),
        ("search --n 6 --jobs -3", "unrecognized arguments: --jobs"),
        ("search --n 6 --seed 5", "unrecognized arguments: --seed 5"),
        ("verify --suite cases --seed 5", "unrecognized arguments: --seed 5"),
    ],
)
def test_jobs_and_seed_usage_errors(capsys, tmp_path, argv, message):
    # every run is serial, and neither the search nor verify draws a
    # random number
    with pytest.raises(SystemExit) as ei:
        main(argv.split() + ["--witness-dir", str(tmp_path)])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not list(tmp_path.iterdir())


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
        "search": fmt | {"--n", "--r", "--t", "--witness-dir", "--unsafe-size"},
        "symmetrize": fmt | {"--graph", "--alpha", "--fixed-n", "--trace"},
        "partition": seeded | {"--graph", "--restarts", "--exhaustive"},
        "verify": fmt | {
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
    with pytest.raises(SystemExit) as ei:
        main(["free", "--graph", "g.hg", "--pattern", "hom"])  # no such pattern
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
        ("verify --suite theorem --n-min 3 --n-max 3", "theorem suite needs n_min >= 4, got 3"),
        ("partition --graph SPLIT --restarts 0", "restarts must be >= 1"),
        ("partition --graph SPLIT --restarts -2", "restarts must be >= 1"),
        ("symmetrize --graph SPLIT --alpha 1", "alpha must lie in"),
        ("symmetrize --graph SPLIT --alpha 2", "alpha must lie in"),
        ("symmetrize --graph SPLIT --alpha 0.05 --fixed-n 0", "fixed_n must be >= 1, got 0"),
        ("symmetrize --graph SPLIT --alpha 0.05 --fixed-n -5", "fixed_n must be >= 1, got -5"),
        ("search --n 5 --r 0", "uniformity r must be >= 1, got r=0"),
        ("search --n 5 --r -2", "uniformity r must be >= 1, got r=-2"),
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


_SRC = str(Path(hlag.__file__).resolve().parent.parent)


def _in_fresh_process(argv, cwd):
    """Run ``argv`` in a new interpreter that imports this checkout's hlag;
    returns (exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd
    )
    return proc.returncode, proc.stdout


def _files(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


@pytest.mark.parametrize("argv, code", [
    (["search", "--n", "8", "--format", "json", "--witness-dir", "w"], 0),
    (["search", "--n", "7", "--t", "0", "--witness-dir", "w"], 2),
], ids=["search", "usage-error"])
def test_python_m_hlag_matches_in_process_main(capsys, monkeypatch, tmp_path, argv, code):
    # the process entry point adds nothing to what main() prints or writes
    inside, fresh = tmp_path / "inside", tmp_path / "fresh"
    for d in (inside, fresh):
        (d / "w").mkdir(parents=True)
    fresh_result = _in_fresh_process(["-m", "hlag", *argv], fresh)
    assert fresh_result[0] == code
    monkeypatch.chdir(inside)
    frozen = gc.get_freeze_count()
    assert run(capsys, *argv)[:2] == fresh_result
    assert _files(inside / "w") == _files(fresh / "w")
    assert bool(_files(inside / "w")) == (code == 0)
    # in-process callers keep their collector as it was
    assert gc.get_freeze_count() == frozen


_RUN_AS_MAIN = """
import gc, runpy, sys
sys.argv[0] = "hlag"
try:
    runpy.run_module("hlag", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


def test_both_process_entry_points_return_through_run(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(_SRC).parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hlag"]
    module, _, name = target.partition(":")
    run_entry = importlib.import_module("hlag.__main__").run
    assert getattr(importlib.import_module(module), name) is run_entry
    # python -m hlag runs the package's __main__ as a script, which exits
    # with run()'s code once run() has frozen the heap
    out = _in_fresh_process(["-c", _RUN_AS_MAIN, "family", "--name", "star", "--n", "5"], tmp_path)[1]
    assert out.splitlines()[-1] == "0 True"


def test_closed_output_pipe_ends_quietly(tmp_path):
    # the reader takes the first bytes of a document of 0.1 to 0.5 MB and
    # closes the pipe while the writer still has most of it to write, or
    # closes it before a short document is written at all.  Each command
    # runs twice.  With stdout buffered, what is still in the buffer must
    # not fail again at the flush on exit; the short document is all still
    # buffered when the run flushes it.  With stdout unbuffered, one large
    # write to such a pipe can end short without an error, so the run has
    # to write in smaller pieces
    split28 = write_graph(tmp_path, split(28, 4), "split28.hg")
    complete24 = write_graph(tmp_path, complete(24, 4), "complete24.hg")
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    buffered["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, buffered.get("PYTHONPATH")) if p
    )
    unbuffered = dict(buffered, PYTHONUNBUFFERED="1")
    for argv, head in [
        (["symmetrize", "--graph", split28, "--alpha", "0.05", "--format", "json"],
         b"{\n"),
        (["family", "--name", "complete", "--n", "30"], b"4 30\n"),
        (["family", "--name", "complete", "--n", "30", "--format", "json"], b'{"r": 4'),
        (["compress", "--graph", complete24, "--t", "7"], b"4 24\n"),
        (["family", "--name", "star", "--n", "6"], b""),
    ]:
        for env in (buffered, unbuffered):
            mode = "unbuffered" if "PYTHONUNBUFFERED" in env else "buffered"
            proc = subprocess.Popen(
                [sys.executable, "-m", "hlag", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            assert proc.stdout.read(len(head)) == head, (argv, mode)
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait() == 1, (argv, mode)
            assert err == b"", (argv, mode)
