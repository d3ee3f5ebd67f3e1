"""Command-line entry point.

Every subcommand accepts --format after its name; those with randomness
take --seed.  Seeded runs are byte-identical.  ``search`` and ``verify``
run serially and accept only --jobs 1.
Exit codes: 0 success, 1 witness or violation found or an iteration bound
reached, 2 usage or input error.

Each subcommand imports only the library modules it runs, so ``free``,
``symmetrize``, ``partition``, ``family`` and ``--help`` never load numpy.
The library names stay attributes of this module: ``_LAZY`` maps each to
its submodule, and a command begins by binding the names it calls
(``_bind``), loading a module on first use.  A name already bound, say a
tracer's timing wrapper or a test's patch, is left as it is, and the
command calls that object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import _bind, _lazy
from .errors import HgParseError, NotFreeError, UnsupportedSizeError

_LAZY = {
    "dense_and_compress": "compression",
    "FamilySpec": "families",
    "matching": "families",
    "extremal_lambda_search": "freeness",
    "is_core_free": "freeness",
    "is_hom_free": "freeness",
    "is_matching_free": "freeness",
    "emit_hg": "hgio",
    "emit_json": "hgio",
    "_graph_obj": "hgio",
    "load_graph": "hgio",
    "parse_weights": "hgio",
    "min_sigma_partition": "partition",
    "SolverConfig": "solver",
    "evaluate": "solver",
    "maximize": "solver",
    "audit": "symmetrize",
    "symmetrize": "symmetrize",
    "verify_cases": "verify",
    "verify_theorem": "verify",
}

__getattr__ = _lazy(globals(), _LAZY)

__all__ = ["main"]


def _f(v: float) -> str:
    return format(v, ".17g")


def _emit_json(obj) -> int:
    print(json.dumps(obj, sort_keys=True, indent=2))
    return 0


def cmd_family(args) -> int:
    _bind(__name__, "FamilySpec", "emit_hg", "emit_json")
    spec = FamilySpec(name=args.name, n=args.n, r=args.r, t=args.t, p=args.p, a=args.a)
    G = spec.build()
    if args.format == "json":
        print(emit_json(G))
    else:
        sys.stdout.write(emit_hg(G))
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
        return _emit_json(
            {
                "value": res.value,
                "weighting": list(res.weighting),
                "support": list(res.support),
                "kkt_residual": res.kkt_residual,
                "method": res.method,
                "restarts": res.restarts_used,
                "seed": res.seed,
            }
        )
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
                "steps": [
                    {
                        "kind": s.kind,
                        "removed": list(s.removed),
                        "i": s.i,
                        "j": s.j,
                        "moved": s.moved,
                        "value": s.value,
                    }
                    for s in trace.steps
                ],
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
    sys.stdout.write(emit_hg(final))
    return 0


def cmd_free(args) -> int:
    _bind(
        __name__, "load_graph", "matching",
        "is_matching_free", "is_core_free", "is_hom_free",
    )
    G = load_graph(args.graph)
    t = args.t
    p = args.p if args.p is not None else 2 * G.r
    if args.pattern == "m":
        report = is_matching_free(G, t)
    elif args.pattern == "core":
        report = is_core_free(G, p, matching(t, G.r))
    else:
        report = is_hom_free(G, matching(t, G.r), p)
    if args.format == "json":
        witness = report.witness
        if witness is not None and args.pattern in ("core", "hom"):
            witness = {"core": list(witness[0]), "edges": [list(e) for e in witness[1]]}
        elif witness is not None:
            witness = [list(e) for e in witness]
        _emit_json({"pattern": report.pattern, "free": report.free, "witness": witness})
        return 0 if report.free else 1
    print(f"pattern {report.pattern}")
    print("free" if report.free else "not free")
    if report.witness is not None:
        if args.pattern in ("core", "hom"):
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
    wpath = os.path.join(args.witness_dir, f"search-n{sr.n}-max.hg")
    with open(wpath, "w", encoding="utf-8") as fh:
        fh.write(emit_hg(sr.witness))
    npath = None
    if sr.nonstar_witness is not None:
        npath = os.path.join(args.witness_dir, f"search-n{sr.n}-nonstar.hg")
        with open(npath, "w", encoding="utf-8") as fh:
            fh.write(emit_hg(sr.nonstar_witness))
    if args.format == "json":
        return _emit_json(
            {
                "n": sr.n,
                "r": sr.r,
                "t": sr.t,
                "families": sr.families,
                "evaluated": sr.evaluated,
                "max_lambda": sr.max_value,
                "witness": wpath,
                "star_subgraph": sr.witness_is_star_subgraph,
                "nonstar_max": sr.max_nonstar_value,
                "nonstar_witness": npath,
            }
        )
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
        return _emit_json(
            {
                "sigma": s.sigma,
                "w1": list(s.w1),
                "w2": list(s.w2),
                "good": s.good,
                "bad": s.bad,
                "very_bad": s.very_bad,
                "worst": s.worst,
                "exhaustive": result.exhaustive,
            }
        )
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
        rows = verify_cases(range(n_min, n_max + 1), seed=args.seed)
        if args.format == "json":
            _emit_json([dataclasses.asdict(r) for r in rows])
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
    witness_paths = []
    for i, (desc, G) in enumerate(summary.violations):
        if G is None:
            witness_paths.append(None)
            continue
        path = os.path.join(args.witness_dir, f"verify-violation-{i}.hg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_hg(G))
        witness_paths.append(path)
    if args.format == "json":
        _emit_json(
            {
                "rows": [
                    {
                        "n": r.n,
                        "families": r.families,
                        "evaluated": r.evaluated,
                        "max_lambda": r.max_value,
                        "star_subgraph": r.witness_is_star_subgraph,
                        "nonstar_max": r.max_nonstar,
                        "star_value": r.star_value,
                        "star_formula": r.star_formula,
                        "scaled_star": r.scaled_star,
                        "nonstar_ok": r.nonstar_ok,
                        "star_ok": r.star_ok,
                    }
                    for r in summary.rows
                ],
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
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, choices=(1,), default=1,
                      help="the only value is 1: every run is serial")

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
    p.add_argument("--pattern", choices=("m", "core", "hom"), required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("search", parents=[fmt, jobs], help="exhaustive extremal search")
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

    p = sub.add_parser("verify", parents=[fmt, jobs], help="verification suites")
    p.add_argument("--suite", choices=("cases", "theorem"), required=True)
    p.add_argument("--seed", type=int, default=0, help="read by --suite cases only")
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
