"""Command-line entry point.

Every subcommand accepts --format after its name; those with randomness
(``maximize``, ``compress``, ``partition``) take --seed, and seeded runs
are byte-identical.  ``search`` and ``verify`` draw no random number:
``auto`` solves every verify claim by support enumeration.  Both run
serially; ``verify`` still accepts --jobs 1, its only value.
Exit codes: 0 success, 1 witness or violation found or an iteration bound
reached, 2 usage or input error.

JSON output is the library's result types, read by ``dataclasses.asdict``:
keys are their field names, except the few that ``_RENAMED`` maps.

Each subcommand imports only the library modules it runs, so ``free``,
``symmetrize``, ``partition``, ``family`` and ``--help`` never load numpy.
The library names stay attributes of this module, each loaded on first
use from the submodule that the package's ``_EXPORTS`` names (plus two
``hgio`` helpers the package does not export).  A command begins by
binding the names it calls (``_bind``).  A name already bound, say a
tracer's timing wrapper or a test's patch, is left as it is, and the
command calls that object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import _EXPORTS, _bind, _lazy
from .errors import HgParseError, NotFreeError, UnsupportedSizeError

__getattr__ = _lazy(
    globals(), {**_EXPORTS, "_graph_obj": "hgio", "parse_weights": "hgio"}
)

__all__ = ["main"]


def _f(v: float) -> str:
    return format(v, ".17g")


def _write(text: str) -> None:
    """Write the ASCII ``text`` to stdout in pieces of 512 bytes (POSIX's
    least PIPE_BUF), which a pipe takes whole or refuses with EPIPE for
    ``__main__.run``: unbuffered (``PYTHONUNBUFFERED``), one larger write to
    a pipe whose reader has gone can end short with no error."""
    for k in range(0, len(text), 512):
        sys.stdout.write(text[k:k + 512])


def _emit_json(obj) -> int:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return 0


# JSON keys that differ from the result types' field names
_RENAMED = {
    "restarts_used": "restarts",
    "max_value": "max_lambda",
    "witness_is_star_subgraph": "star_subgraph",
    "max_nonstar": "nonstar_max",
    "max_nonstar_value": "nonstar_max",
}


def _record(result, **extra) -> dict:
    """The fields of the dataclass ``result`` as a JSON object, keys renamed
    by ``_RENAMED``; ``extra`` adds keys or replaces fields."""
    record = {_RENAMED.get(k, k): v for k, v in dataclasses.asdict(result).items()}
    record.update(extra)
    return record


def _write_witness(directory, name, G):
    """Write ``G`` to ``directory/name`` as a .hg file and return the path;
    no file and ``None`` when ``G`` is ``None``."""
    if G is None:
        return None
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_hg(G))
    return path


def cmd_family(args) -> int:
    _bind(__name__, "FamilySpec", "emit_hg", "emit_json")
    spec = FamilySpec(name=args.name, n=args.n, r=args.r, t=args.t, p=args.p, a=args.a)
    G = spec.build()
    _write(emit_json(G) + "\n" if args.format == "json" else emit_hg(G))
    return 0


def cmd_eval(args) -> int:
    _bind(__name__, "load_graph", "parse_weights", "evaluate")
    G = load_graph(args.graph)
    if args.weights == "-":
        text = sys.stdin.read()
    else:
        with open(args.weights, "r", encoding="utf-8") as fh:
            text = fh.read()
    x = parse_weights(text, G.n)
    value = evaluate(G, x)
    if args.format == "json":
        return _emit_json({"value": value})
    print(_f(value))
    return 0


def cmd_maximize(args) -> int:
    _bind(__name__, "load_graph", "SolverConfig", "maximize")
    G = load_graph(args.graph)
    cfg = SolverConfig(method=args.method, restarts=args.restarts, seed=args.seed)
    res = maximize(G, cfg)
    if args.format == "json":
        return _emit_json(_record(res))
    print(f"value {_f(res.value)}")
    print("weighting " + " ".join(_f(w) for w in res.weighting))
    print("support " + " ".join(str(v) for v in res.support))
    print(f"residual {_f(res.kkt_residual)}")
    return 0


def cmd_compress(args) -> int:
    _bind(
        __name__, "load_graph", "SolverConfig", "dense_and_compress", "emit_hg",
        "_graph_obj",
    )
    G = load_graph(args.graph)
    final, res, trace = dense_and_compress(G, args.t, SolverConfig(seed=args.seed))
    if args.format == "json":
        return _emit_json(
            {
                "final": _graph_obj(final),
                "initial_value": trace.initial_value,
                "final_value": trace.final_value,
                "steps": [_record(s) for s in trace.steps],
            }
        )
    for s in trace.steps:
        if s.kind == "densify":
            removed = ",".join(str(v) for v in s.removed)
            print(f"# densify removed={removed} lambda={_f(s.value)}")
        else:
            print(
                f"# compress i={s.i} j={s.j} moved={s.moved} "
                f"lambda={_f(s.value)}"
            )
    _write(emit_hg(final))
    return 0


def cmd_free(args) -> int:
    _bind(__name__, "load_graph", "matching", "is_matching_free", "is_core_free")
    G = load_graph(args.graph)
    t = args.t
    p = args.p if args.p is not None else 2 * G.r
    if args.pattern == "m":
        report = is_matching_free(G, t)
    else:
        report = is_core_free(G, p, matching(t, G.r))
    if args.format == "json":
        witness = report.witness
        if witness is not None and args.pattern == "core":
            witness = {"core": list(witness[0]), "edges": [list(e) for e in witness[1]]}
        elif witness is not None:
            witness = [list(e) for e in witness]
        _emit_json({"pattern": report.pattern, "free": report.free, "witness": witness})
        return 0 if report.free else 1
    print(f"pattern {report.pattern}")
    print("free" if report.free else "not free")
    if report.witness is not None:
        if args.pattern == "core":
            core, edges = report.witness
            print("witness core " + " ".join(str(v) for v in core))
            for e in edges:
                print("witness edge " + " ".join(str(v) for v in e))
        else:
            for e in report.witness:
                print("witness edge " + " ".join(str(v) for v in e))
    return 0 if report.free else 1


def cmd_search(args) -> int:
    _bind(__name__, "extremal_lambda_search", "emit_hg")
    guard = args.n if args.unsafe_size else None
    sr = extremal_lambda_search(args.n, args.r, args.t, guard=guard)
    os.makedirs(args.witness_dir, exist_ok=True)
    wpath = _write_witness(args.witness_dir, f"search-n{sr.n}-max.hg", sr.witness)
    npath = _write_witness(
        args.witness_dir, f"search-n{sr.n}-nonstar.hg", sr.nonstar_witness
    )
    if args.format == "json":
        return _emit_json(_record(sr, witness=wpath, nonstar_witness=npath))
    print("n families evaluated max_lambda witness star")
    star_flag = "yes" if sr.witness_is_star_subgraph else "no"
    print(
        f"{sr.n} {sr.families} {sr.evaluated} {_f(sr.max_value)} "
        f"{wpath} {star_flag}"
    )
    if npath is not None:
        print(f"nonstar {_f(sr.max_nonstar_value)} {npath}")
    return 0


def cmd_symmetrize(args) -> int:
    _bind(__name__, "load_graph", "symmetrize", "audit", "_graph_obj")
    G = load_graph(args.graph)
    trace = symmetrize(G, args.alpha, fixed_n=args.fixed_n)
    report = audit(trace)
    if args.trace:
        records = [
            {
                "index": s.index,
                "kind": s.kind,
                "detail": s.detail,
                "vertex_count": len(s.state.vertices),
                "edge_count": s.state.edge_count(),
            }
            for s in trace.steps
        ]
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(records, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.format == "json":
        final_graph, _ = trace.final_graph()
        _emit_json(
            {
                "steps": len(trace.steps),
                "final": _graph_obj(final_graph),
                "vertex_fraction": report.final_vertex_fraction,
                "target_fraction": 1.0 - args.alpha,
                "audit_ok": report.ok,
                "violations": [
                    {"check": c.name, "detail": c.detail}
                    for c in report.violations()
                ],
            }
        )
        return 0 if report.ok else 1
    print(f"steps {len(trace.steps)}")
    print(f"final_vertices {len(trace.final.vertices)}")
    print(f"final_edges {trace.final.edge_count()}")
    print(
        f"vertex_fraction {_f(report.final_vertex_fraction)} "
        f"target {_f(1.0 - args.alpha)}"
    )
    if report.ok:
        print("audit ok")
        return 0
    print(f"audit {len(report.violations())} violations")
    for c in report.violations():
        print(f"violation {c.name} {c.detail}")
    return 1


def cmd_partition(args) -> int:
    _bind(__name__, "load_graph", "min_sigma_partition")
    G = load_graph(args.graph)
    result = min_sigma_partition(
        G, restarts=args.restarts, seed=args.seed, exhaustive=args.exhaustive
    )
    s = result.score
    if args.format == "json":
        return _emit_json(_record(s, exhaustive=result.exhaustive))
    print(f"sigma {s.sigma}")
    print("w1 " + " ".join(str(v) for v in s.w1))
    print("w2 " + " ".join(str(v) for v in s.w2))
    print(f"good {s.good} bad {s.bad} very_bad {s.very_bad} worst {s.worst}")
    print(f"exhaustive {'yes' if result.exhaustive else 'no'}")
    return 0


def _render_rows(rows) -> int:
    width = max(len(r.check_id) for r in rows) + 1
    print(
        f"{'check':<{width}}{'family':<12}{'n':>4}  "
        f"{'bound':<12}{'computed':<24}{'margin':<15}pass"
    )
    failures = 0
    for r in rows:
        bound = f"{r.bound_num}/{r.bound_den}"
        nstr = "-" if r.n is None else str(r.n)
        flag = "ok" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(
            f"{r.check_id:<{width}}{r.family:<12}{nstr:>4}  "
            f"{bound:<12}{_f(r.computed):<24}{r.margin:<15.6g}{flag}"
        )
    print(f"passed {len(rows) - failures}/{len(rows)}")
    return failures


def cmd_verify(args) -> int:
    _bind(__name__, "verify_cases", "verify_theorem", "emit_hg")
    if args.suite == "cases":
        n_min = args.n_min if args.n_min is not None else 8
        n_max = args.n_max if args.n_max is not None else 14
        rows = verify_cases(range(n_min, n_max + 1))
        if args.format == "json":
            _emit_json([_record(r) for r in rows])
            return 0 if all(r.passed for r in rows) else 1
        failures = _render_rows(rows)
        return 0 if failures == 0 else 1

    n_min = args.n_min if args.n_min is not None else 4
    n_max = args.n_max if args.n_max is not None else 7
    summary = verify_theorem(
        n_max=n_max,
        n_min=n_min,
        guard=n_max if args.unsafe_size else None,
    )
    os.makedirs(args.witness_dir, exist_ok=True)
    witness_paths = [
        _write_witness(args.witness_dir, f"verify-violation-{i}.hg", G)
        for i, (_, G) in enumerate(summary.violations)
    ]
    if args.format == "json":
        _emit_json(
            {
                "rows": [_record(r) for r in summary.rows],
                "violations": [
                    {"description": d, "witness": p}
                    for (d, _), p in zip(summary.violations, witness_paths)
                ],
                "trend_monotone": summary.trend_monotone,
                "passed": summary.passed,
            }
        )
        return 0 if summary.passed else 1
    print("n families evaluated max_lambda nonstar_max scaled_star checks")
    for r in summary.rows:
        checks = "ok" if (r.nonstar_ok and r.star_ok) else "FAIL"
        print(
            f"{r.n} {r.families} {r.evaluated} {_f(r.max_value)} "
            f"{_f(r.max_nonstar)} {_f(r.scaled_star)} {checks}"
        )
    print(f"trend {'ok' if summary.trend_monotone else 'FAIL'}")
    for (desc, _), path in zip(summary.violations, witness_paths):
        suffix = f" witness {path}" if path else ""
        print(f"violation {desc}{suffix}")
    print("passed" if summary.passed else "failed")
    return 0 if summary.passed else 1


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="hlag",
        description="Hypergraph Lagrangian toolkit: families, solvers, "
        "compression, freeness, symmetrization, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", parents=[fmt], help="emit a named family")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--a", type=int, default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("eval", parents=[fmt], help="evaluate the edge polynomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("maximize", parents=[fmt, seed], help="maximize the Lagrangian")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--method",
        choices=("auto", "multistart-ascent", "support-enum"),
        default="auto",
    )
    p.add_argument("--restarts", type=int, default=64)
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("compress", parents=[fmt, seed], help="densify and left-compress")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("free", parents=[fmt], help="freeness checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", choices=("m", "core"), required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("search", parents=[fmt], help="exhaustive extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--witness-dir", default=".")
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("symmetrize", parents=[fmt], help="clean/merge to a fixed point")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--fixed-n", type=int, default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("partition", parents=[fmt, seed], help="minimize the sigma score")
    p.add_argument("--graph", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", parents=[fmt], help="verification suites")
    p.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help="the only value is 1: every run is serial")
    p.add_argument("--suite", choices=("cases", "theorem"), required=True)
    p.add_argument("--n-min", type=int, default=None,
                   help="default 8 for cases, 4 for theorem")
    p.add_argument("--n-max", type=int, default=None,
                   help="default 14 for cases, 7 for theorem")
    p.add_argument("--witness-dir", default=".")
    p.add_argument("--unsafe-size", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HgParseError, UnsupportedSizeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotFreeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # the compression budget or the symmetrization cap ran out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
