"""Benchmark for the ``hlag`` CLI in this checkout.

    python3 perfbench/run.py --workload {dichotomy,session,all} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client runs the workload's ``hlag``
invocations one after another, each in a fresh interpreter, and repeats
the whole list while one more repetition still fits in ``--seconds``
(always at least once).  Every invocation's exit code and output go
through a correctness gate.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` and
``cpu_s`` (for each invocation the fastest of its repetitions, summed
over the list; CPU includes pool workers), ``peak_rss_mb`` (largest RSS
of any program process) and ``setup_s`` (median time from starting an
interpreter to having imported ``hlag.cli``).  With ``--trace 1`` the
list runs once untraced and once under ``tracer.py``, and the per-layer
metrics come from the traced run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and sample count, the failure ratio, and provenance.
Exit code 0 when every gate passed, 1 when one failed, 2 when the
checkout's ``src/hlag`` cannot be used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_PROBES = 10
RUN_LIMIT_S = 165.0  # every run, set-up included, ends well inside 180 s
PROBE = "import time, hlag.cli; print(time.monotonic(), hlag.cli.__file__)"


class Refused(Exception):
    """The checkout cannot be benchmarked; no result is reported."""


class Runner:
    """Starts program processes and measures each with ``wait4``."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, cmd):
        """Run ``cmd`` to completion; returns (code, stdout, stderr,
        wall_s, cpu_s, maxrss_mb, start_monotonic)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        lock, done = threading.Lock(), [False]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=fo, stderr=fe, cwd=self.work, env=self.env,
                start_new_session=True,
            )

            def expire():
                with lock:
                    if not done[0]:
                        os.killpg(proc.pid, signal.SIGKILL)

            # the call's pool workers share its process group
            timer = threading.Timer(timeout, expire)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (e.g. SIGTERM): stop the call and its pool first
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                with lock:
                    done[0] = True
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = out_path.read_text(encoding="utf-8", errors="replace")
        err = err_path.read_text(encoding="utf-8", errors="replace")
        cpu = ru.ru_utime + ru.ru_stime
        return proc.returncode, out, err, wall, cpu, ru.ru_maxrss / 1024.0, start

    def setup_probe(self):
        """Seconds from interpreter start to ``hlag.cli`` imported; refuses
        when the interpreter imports ``hlag`` from anywhere but SRC."""
        code, out, err, *_, start = self.spawn([sys.executable, "-c", PROBE])
        if code != 0:
            raise Refused(f"cannot import hlag.cli from {SRC}: {err.strip()[-300:]}")
        stamp, path = out.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC / "hlag"):
            raise Refused(f"hlag.cli resolved to {path.strip()}, not under {SRC}")
        return float(stamp) - start

    def cycle(self, calls, traced=False):
        """Run every call once; returns totals, per-call records and the
        gate failures."""
        records, failures = [], []
        for call in calls:
            for path in call.fresh:
                Path(path).unlink(missing_ok=True)
            if traced:
                spans_path = self.work / "spans.json"
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *call.argv]
            else:
                cmd = [sys.executable, "-m", "hlag", *call.argv]
            code, out, err, wall, cpu, rss, _ = self.spawn(cmd)
            reason = call.check(code, out)
            if reason is not None:
                last = err.strip().splitlines()[-1:] or [""]
                failures.append(f"{call.label}: {reason}; stderr: {last[0][:200]}")
            rec = {"label": call.label, "wall": wall, "cpu": cpu, "rss": rss, "spans": []}
            if traced and reason is None:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                rec["spans"] = trace["spans"]
                for name in trace["missing"]:
                    print(f"warning: no binding {name} to trace", file=sys.stderr)
            records.append(rec)
        return {
            "wall": sum(r["wall"] for r in records),
            "rss": max(r["rss"] for r in records),
            "records": records,
            "failures": failures,
        }


# --- per-layer metrics from spans ---------------------------------------------

PER_LAYER_UNITS = {
    "freeness.enumerate.s": "s",
    "freeness.enumerate.families": "count",
    "freeness.search.s": "s",
    "freeness.search.self_s": "s",
    "freeness.search.evaluated": "count",
    "freeness.search.useful_ratio": "ratio",
    "solver.maximize.calls": "count",
    "solver.maximize.s": "s",
    "solver.maximize.p50_s": "s",
    "solver.maximize.p90_s": "s",
    "solver.support_enum.calls": "count",
    "solver.support_enum.s": "s",
    "solver.supports_tried": "count",
    "solver.multistart.calls": "count",
    "solver.multistart.s": "s",
    "solver.maximize.complete20.s": "s",
    "solver.maximize.split20.s": "s",
    "solver.maximize.case5n30.s": "s",
    "solver.maximize.random17.s": "s",
    "solver.kkt_residual.max": "abs",
    "solver.uncovered_reduce.s": "s",
    "freeness.core_free.calls": "count",
    "freeness.core_free.le63.s": "s",
    "freeness.core_free.gt63.s": "s",
    "freeness.matching_free.s": "s",
    "symmetrize.symmetrize.s": "s",
    "symmetrize.symmetrize.self_s": "s",
    "symmetrize.steps": "count",
    "symmetrize.audit.s": "s",
    "symmetrize.audit.violations": "count",
    "partition.min_sigma.s": "s",
    "partition.min_sigma.calls": "count",
    "compression.dense_and_compress.s": "s",
    "compression.dense_and_compress.self_s": "s",
    "compression.steps": "count",
    "verify.theorem.self_s": "s",
    "verify.cases.self_s": "s",
    "verify.cases.rows_passed": "count",
    "hgio.load_graph.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _dur(span):
    return span["busy"] if "busy" in span else span["end"] - span["start"]


def layer_metrics(records):
    """Per-layer metrics over the spans of one traced cycle.  A layer the
    workload never enters reads 0."""
    spans = [s for rec in records for s in rec["spans"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, pick=None):
        return sum(_dur(s) for s in named(name) if pick is None or pick(s))

    def self_time(name):
        return sum(_dur(s) - s["child"] for s in named(name))

    def attr_sum(name, key, pick=None):
        return sum(s["attrs"][key] for s in named(name) if pick is None or pick(s))

    solves = named("solver.maximize")
    enum = lambda s: s["attrs"]["method"] == "support-enum"  # noqa: E731
    multi = lambda s: s["attrs"]["method"] == "multistart-ascent"  # noqa: E731
    durations = sorted(_dur(s) for s in solves)
    if len(durations) >= 2:
        deciles = statistics.quantiles(durations, n=10, method="inclusive")
        p50, p90 = statistics.median(durations), deciles[8]
    else:
        p50 = p90 = durations[0] if durations else 0.0
    families = attr_sum("freeness.search", "families")
    evaluated = attr_sum("freeness.search", "evaluated")
    m = {
        "freeness.enumerate.s": total("freeness.enumerate"),
        "freeness.enumerate.families": attr_sum("freeness.enumerate", "items"),
        "freeness.search.s": total("freeness.search"),
        "freeness.search.self_s": self_time("freeness.search"),
        "freeness.search.evaluated": evaluated,
        "freeness.search.useful_ratio": evaluated / families if families else 0.0,
        "solver.maximize.calls": len(solves),
        "solver.maximize.s": sum(durations),
        "solver.maximize.p50_s": p50,
        "solver.maximize.p90_s": p90,
        "solver.support_enum.calls": sum(1 for s in solves if enum(s)),
        "solver.support_enum.s": total("solver.maximize", enum),
        "solver.supports_tried": attr_sum("solver.maximize", "restarts", enum),
        "solver.multistart.calls": sum(1 for s in solves if multi(s)),
        "solver.multistart.s": total("solver.maximize", multi),
        "solver.kkt_residual.max": max((s["attrs"]["kkt"] for s in solves), default=0.0),
        "solver.uncovered_reduce.s": total("solver.uncovered_reduce"),
        "freeness.core_free.calls": len(named("freeness.core_free")),
        "freeness.core_free.le63.s": total("freeness.core_free", lambda s: s["attrs"]["n"] <= 63),
        "freeness.core_free.gt63.s": total("freeness.core_free", lambda s: s["attrs"]["n"] > 63),
        "freeness.matching_free.s": total("freeness.matching_free"),
        "symmetrize.symmetrize.s": total("symmetrize.symmetrize"),
        "symmetrize.symmetrize.self_s": self_time("symmetrize.symmetrize"),
        "symmetrize.steps": attr_sum("symmetrize.symmetrize", "steps"),
        "symmetrize.audit.s": total("symmetrize.audit"),
        "symmetrize.audit.violations": attr_sum("symmetrize.audit", "violations"),
        "partition.min_sigma.s": total("partition.min_sigma"),
        "partition.min_sigma.calls": len(named("partition.min_sigma")),
        "compression.dense_and_compress.s": total("compression.dense_and_compress"),
        "compression.dense_and_compress.self_s": self_time("compression.dense_and_compress"),
        "compression.steps": attr_sum("compression.dense_and_compress", "steps"),
        "verify.theorem.self_s": self_time("verify.theorem"),
        "verify.cases.self_s": self_time("verify.cases"),
        "verify.cases.rows_passed": attr_sum("verify.cases", "rows_passed"),
        "hgio.load_graph.s": total("hgio.load_graph"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
    }
    for label in ("complete20", "split20", "case5n30", "random17"):
        m[f"solver.maximize.{label}.s"] = sum(
            _dur(s) for rec in records if rec["label"] == label
            for s in rec["spans"] if s["name"] == "solver.maximize"
        )
    return m


# --- entry point ---------------------------------------------------------------


def provenance():
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hlag").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(name, seed, seconds, trace, work, deadline):
    """Returns (metrics {name: (value, unit, samples)}, attempted,
    failures, per-call wall times)."""
    runner = Runner(work, deadline)
    runner.setup_probe()  # warm-up; also refuses a foreign hlag
    build = workloads.BY_NAME[name]
    if trace:
        calls = build(seed, work)
        ref = runner.cycle(calls)
        traced = runner.cycle(calls, traced=True)
        failures = ref["failures"] + traced["failures"]
        values = layer_metrics(traced["records"])
        values["trace.overhead_s"] = traced["wall"] - ref["wall"]
        metrics = {k: (values[k], unit, 1) for k, unit in PER_LAYER_UNITS.items()}
        per_call = {r["label"]: r["wall"] for r in traced["records"]}
        return metrics, 2 * len(calls), failures, per_call

    calls = build(seed, work)
    # probes before and after the loop meet different states of a shared machine
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES // 2)]
    cycles = []
    started = time.monotonic()
    while True:
        cycles.append(runner.cycle(calls))
        now = time.monotonic()
        typical = (now - started) / len(cycles)
        if now + typical - started > seconds or now + typical > deadline:
            break
    setups += [runner.setup_probe() for _ in range(SETUP_PROBES - len(setups))]
    failures = [f for c in cycles for f in c["failures"]]
    k = len(cycles)

    def per_call_best(key):
        # a shared host only ever adds time, so the fastest repetition of
        # each call is the one least disturbed; taken per call, one slow
        # stretch costs one sample of one call rather than a whole cycle
        return {
            call.label: min(c["records"][i][key] for c in cycles)
            for i, call in enumerate(calls)
        }

    per_call = per_call_best("wall")
    metrics = {
        "wall_s": (sum(per_call.values()), "s", k),
        "cpu_s": (sum(per_call_best("cpu").values()), "s", k),
        "peak_rss_mb": (max(c["rss"] for c in cycles), "MB", k * len(calls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    return metrics, k * len(calls), failures, per_call


def report(name, metrics, attempted, failures, per_call):
    print(f"== {name}")
    for key, (value, unit, samples) in metrics.items():
        print(f"{key:<40} {value:>14.6g} {unit:<6} n={samples}")
    for label, wall in per_call.items():
        print(f"{'  call ' + label:<40} {wall:>14.6g} s")
    print(f"{'failed_ratio':<40} {len(failures) / attempted:>14.6g} ratio  "
          f"failed={len(failures)} attempted={attempted}")
    for f in failures:
        print(f"FAILED {f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    begun = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (SRC / "hlag" / "cli.py").is_file():
            raise Refused(f"no hlag sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import hlag

        if not Path(hlag.__file__).resolve().is_relative_to(SRC / "hlag"):
            raise Refused(f"hlag resolved to {hlag.__file__}, not under {SRC}")
        prov = provenance()
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        work = WORK_ROOT / str(os.getpid())
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        results = {}
        try:
            for name in names:
                # each workload ends within RUN_LIMIT_S of its start
                deadline = (begun if len(names) == 1 else time.monotonic()) + RUN_LIMIT_S
                results[name] = run_workload(
                    name, args.seed, args.seconds, args.trace, work, deadline
                )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    out_metrics = {}
    for name, (metrics, att, failures, per_call) in results.items():
        report(name, metrics, att, failures, per_call)
        attempted += att
        failed += len(failures)
        prefix = "" if len(results) == 1 else f"{name}."
        for key, (value, unit, _) in metrics.items():
            out_metrics[prefix + key] = {"value": value, "unit": unit}
    samples = {
        name: {key: s for key, (_, _, s) in metrics.items()}
        for name, (metrics, *_) in results.items()
    }
    print("provenance " + json.dumps(dict(
        prov, seed=args.seed, seconds=args.seconds, trace=args.trace, samples=samples,
    ), sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
