"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/prove.py --workloads dichotomy,session \
        --seeds 1-10 --seconds 20 [--trace 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles, and the spread
(quartile distance over the median) that the bounds in BENCHMARK.json
are judged against.  With ``--out`` the summary, the raw values and the
provenance of the runs are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {}
    bench = HERE.parent / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, prov = {}, None
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            prov = json.loads(lines[-2].split(" ", 1)[1])
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if not k.startswith(("solver.", "freeness.", "symmetrize.", "compression.",
                                     "partition.", "verify.", "hgio."))
            ), flush=True)
        if len(runs) < 2:
            continue
        summary[workload] = {}
        for key in runs[0]:
            s = summarize([r[key]["value"] for r in runs])
            s["unit"] = runs[0][key]["unit"]
            summary[workload][key] = s
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and s["spread"] > bound / 3:
                flag = f"  spread above a third of bound {bound}"
            print(f"  {key:<40} median {s['median']:.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        for per_run in ("seed", "samples"):
            prov.pop(per_run, None)
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
             "provenance": prov, "workloads": summary},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
