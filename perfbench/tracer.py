"""Run ``hlag`` with spans around each layer's public entry points.

Usage: python3 tracer.py SPANS.json HLAG-ARGS...

The program's code is not modified: the names that its modules bind to
each other's public functions are replaced, in this process only, by
timing wrappers.  Spans stay in memory and are written to SPANS.json at
exit; the exit code and standard output are the program's own.  A span
records its name, start, end, parent, the time its direct children
covered, and a few counts taken from the wrapped call's result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "child": 0.0,
            "attrs": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child"] += span["end"] - span["start"]

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A generator's span counts only the time spent inside it, across
        all its resumptions; ``attrs.items`` is the number it yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "child": 0.0,
                "busy": 0.0,
                "attrs": {"items": 0},
            }
            self.spans.append(span)
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    span["busy"] += t1 - t0
                    span["end"] = t1
                    if parent is not None:
                        parent["child"] += t1 - t0
                span["attrs"]["items"] += 1
                yield item

        return traced

    def patch(self, module, attr, wrapped_name, attrs=None, generator=False):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if generator:
            setattr(module, attr, self.wrap_generator(wrapped_name, fn))
        else:
            setattr(module, attr, self.wrap(wrapped_name, fn, attrs))


def _solve_attrs(args, res):
    return {
        "method": res.method,
        "restarts": res.restarts_used,
        "kkt": res.kkt_residual,
        "n": args[0].n,
    }


def install(tracer):
    """Wrap every binding the benchmark's layer metrics are taken from."""
    # the package re-exports functions named like its modules (``symmetrize``),
    # so take the modules from the import system, not package attributes
    cli, compression, freeness, symmetrize, verify = (
        importlib.import_module(f"hlag.{name}")
        for name in ("cli", "compression", "freeness", "symmetrize", "verify")
    )

    for mod in (cli, freeness, verify, compression):
        tracer.patch(mod, "maximize", "solver.maximize", _solve_attrs)
    tracer.patch(verify, "uncovered_reduce", "solver.uncovered_reduce")
    tracer.patch(freeness, "enumerate_left_compressed_free", "freeness.enumerate", generator=True)
    for mod in (cli, verify):
        tracer.patch(
            mod, "extremal_lambda_search", "freeness.search",
            lambda a, sr: {"families": sr.families, "evaluated": sr.evaluated},
        )
    for mod in (cli, freeness, symmetrize):
        tracer.patch(mod, "is_core_free", "freeness.core_free", lambda a, rep: {"n": a[0].n})
    for mod in (cli, freeness):
        tracer.patch(mod, "is_matching_free", "freeness.matching_free")
    tracer.patch(
        cli, "symmetrize", "symmetrize.symmetrize", lambda a, tr: {"steps": len(tr.steps)}
    )
    tracer.patch(
        cli, "audit", "symmetrize.audit",
        lambda a, rep: {"violations": len(rep.violations())},
    )
    tracer.patch(cli, "min_sigma_partition", "partition.min_sigma")
    tracer.patch(
        cli, "dense_and_compress", "compression.dense_and_compress",
        lambda a, out: {"steps": len(out[2].steps)},
    )
    tracer.patch(cli, "verify_theorem", "verify.theorem")
    tracer.patch(
        cli, "verify_cases", "verify.cases",
        lambda a, rows: {"rows_passed": sum(1 for r in rows if r.passed)},
    )
    tracer.patch(cli, "load_graph", "hgio.load_graph")
    tracer.patch(cli, "main", "cli.main")
    return cli


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = 1
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
