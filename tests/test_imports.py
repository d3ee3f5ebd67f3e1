"""Which modules each subcommand loads, and the names that stay bound.

The CLI and ``hlag.freeness`` import library modules only when a command
needs them, yet every library name they call stays a module attribute, so
a wrapper or patch put there is what runs.  The package re-exports every
public name and loads its submodule on first access.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlag
import hlag.cli
import hlag.freeness
from hlag.families import k53minus2, split, star
from hlag.hgio import emit_hg

_SRC = str(Path(hlag.__file__).resolve().parent.parent)


def _fresh(code, *argv, cwd=None):
    """Run ``code`` in a new interpreter that imports this checkout's hlag;
    returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return proc.stdout


_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
import hlag.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = hlag.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.startswith("hlag"))]))
"""


def _modules_after(tmp_path, *argv):
    (tmp_path / "star8.hg").write_text(emit_hg(star(8, 4)))
    (tmp_path / "split12.hg").write_text(emit_hg(split(12, 4)))
    code, modules = json.loads(_fresh(_MODULES_AFTER_MAIN, *argv, cwd=tmp_path))
    return code, set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["family", "--name", "split", "--n", "8"],
        ["free", "--graph", "star8.hg", "--pattern", "core"],
        ["free", "--graph", "star8.hg", "--pattern", "m"],
        ["symmetrize", "--graph", "split12.hg", "--alpha", "0.05"],
        ["partition", "--graph", "split12.hg"],
    ],
    ids=" ".join,
)
def test_commands_that_do_not_solve_load_no_numpy(tmp_path, argv):
    code, modules = _modules_after(tmp_path, *argv)
    assert code == 0
    assert "numpy" not in modules
    assert "hlag.solver" not in modules


def test_help_loads_only_the_cli(tmp_path):
    assert _modules_after(tmp_path, "--help") == (0, {"hlag", "hlag.cli", "hlag.errors"})


def test_maximize_loads_only_the_solver(tmp_path):
    code, modules = _modules_after(tmp_path, "maximize", "--graph", "star8.hg")
    assert code == 0
    assert {"hlag.solver", "numpy"} <= modules
    unused = {"symmetrize", "partition", "verify", "compression", "freeness", "families"}
    assert not modules & {f"hlag.{m}" for m in unused}


_RANDOM_AFTER_VERIFY = """
import sys
from hlag.verify import verify_cases, verify_theorem
verify_theorem(n_min=4, n_max=6)
verify_cases(range(8, 9))
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_verify_suites_at_small_n_load_no_numpy_random():
    # every claim there is solved by support enumeration, which draws no
    # random starts; numpy.random alone adds about 6 MB of RSS
    assert _fresh(_RANDOM_AFTER_VERIFY).split() == ["True", "False"]


_PACKAGE_NAMES_OUTSIDE_THE_SOLVER = """
import sys
import hlag
read = [
    name for name in hlag.__all__
    if hlag._EXPORTS[name] not in ("solver", "compression", "verify")
]
for name in read:
    getattr(hlag, name)
print(len(read), "numpy" in sys.modules)
"""


def test_package_names_outside_the_solver_load_no_numpy():
    # only solver imports numpy, and compression and verify import solver
    count, numpy_loaded = _fresh(_PACKAGE_NAMES_OUTSIDE_THE_SOLVER).split()
    assert int(count) == 56
    assert numpy_loaded == "False"


# every name a tracer patches to time a layer, per module
BOUND_NAMES = {
    hlag.cli: (
        "maximize", "extremal_lambda_search", "is_core_free", "is_matching_free",
        "symmetrize", "audit", "min_sigma_partition", "dense_and_compress",
        "verify_theorem", "verify_cases", "load_graph", "main",
    ),
    hlag.freeness: ("_solve_quotient",),
}


def test_patched_names_resolve_as_module_attributes():
    for module, names in BOUND_NAMES.items():
        for name in names:
            obj = getattr(module, name)
            assert callable(obj), (module.__name__, name)
            assert obj.__name__ == name
            assert vars(module)[name] is obj  # stays bound once resolved


def test_unknown_name_is_an_attribute_error():
    for module in (hlag, hlag.cli, hlag.freeness):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_maximize_command_calls_the_bound_solver(monkeypatch, capsys, tmp_path):
    calls = []
    real = hlag.cli.maximize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hlag.cli, "maximize", counting)
    g = tmp_path / "g.hg"
    g.write_text(emit_hg(k53minus2()))
    assert hlag.cli.main(["maximize", "--graph", str(g)]) == 0
    assert calls == [1]
    assert capsys.readouterr().out.startswith("value 0.0")


_SEARCH_CALLS_BOUND_SOLVER = """
import sys
import hlag.freeness as freeness
counted_call = int(sys.argv[1])
if counted_call == 2:
    # first call: nothing has bound the solver in this process yet
    plain = freeness.extremal_lambda_search(8, 4, 2)
real = freeness._solve_quotient
calls = []

def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

# with counted_call == 1 the patch precedes the search's own binding
freeness._solve_quotient = counting
counted = freeness.extremal_lambda_search(8, 4, 2)
if counted_call == 1:
    freeness._solve_quotient = real
    plain = freeness.extremal_lambda_search(8, 4, 2)
print(plain == counted, counted.evaluated, len(calls))
"""


@pytest.mark.parametrize("counted_call", [1, 2])
def test_search_calls_the_bound_solver(counted_call):
    # the counted search is the first or the second in its process; n = 8
    # has 72 maximal families, each one solver call
    same, evaluated, calls = _fresh(_SEARCH_CALLS_BOUND_SOLVER, str(counted_call)).split()
    assert same == "True"
    assert int(evaluated) == 72
    assert int(calls) == int(evaluated)


def test_package_names_are_the_submodules_objects():
    assert len(hlag.__all__) == len(set(hlag.__all__)) == 76
    for name in hlag.__all__:
        obj = getattr(hlag, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("hlag."), name
        assert getattr(module, name) is obj, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hlag import *", namespace)
    assert set(hlag.__all__) <= set(namespace)
    for name in hlag.__all__:
        assert namespace[name] is getattr(hlag, name)


_PACKAGE_SYMMETRIZE = """
import sys
if sys.argv[1] == "import":
    import hlag.symmetrize
else:
    import contextlib, io, hlag.cli
    with contextlib.redirect_stdout(io.StringIO()):
        hlag.cli.main(["symmetrize", "--graph", sys.argv[2], "--alpha", "0.05"])
import hlag
function = sys.modules["hlag.symmetrize"].symmetrize
print(type(hlag.symmetrize).__name__, hlag.symmetrize is function)
"""


@pytest.mark.parametrize("first", ["import", "main"])
def test_package_symmetrize_stays_the_function(tmp_path, first):
    g = tmp_path / "g.hg"
    g.write_text(emit_hg(split(12, 4)))
    assert _fresh(_PACKAGE_SYMMETRIZE, first, str(g)).split() == ["function", "True"]
