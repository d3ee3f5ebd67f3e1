"""Check that every workload's gates can fail.

    python3 perfbench/selfcheck.py

For each workload this runs its invocations (the theorem suite only to
n = 7) and requires three things of every gate: it accepts the real
output, it rejects the same output judged against a wrong expected
answer, and it rejects an invocation that crashed because PYTHONPATH
points at an empty directory.  It also requires the set-up probe to
refuse such an interpreter.  Exit code 0 when all hold.
"""

from __future__ import annotations

import functools
import os
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _replace_line(out, key, new):
    return "".join(
        new + "\n" if line.split(" ", 1)[0] == key else line + "\n"
        for line in out.splitlines()
    )


def _with(check, **changed):
    """The same gate with some expected answers replaced."""
    return functools.partial(check.func, *check.args, **{**check.keywords, **changed})


def wrong_answers(call, code, out):
    """(description, gate verdict) pairs that must all be rejections."""
    label, check = call.label, call.check
    if label.startswith("theorem"):
        lo, hi = check.keywords["n_min"], check.keywords["n_max"]
        families = {**gates.THEOREM_FAMILIES, hi: gates.THEOREM_FAMILIES[hi] + 1}
        saved = gates.THEOREM_FAMILIES, gates.THEOREM_N7_MAX
        try:
            gates.THEOREM_FAMILIES = families
            yield "family count off by one", check(code, out)
            if lo <= 7 <= hi:
                gates.THEOREM_FAMILIES, gates.THEOREM_N7_MAX = saved[0], Fraction(1, 49)
                yield "n = 7 maximum 1/49", check(code, out)
        finally:
            gates.THEOREM_FAMILIES, gates.THEOREM_N7_MAX = saved
    elif label == "cases_n8":
        saved = gates.CASES_N8_FAILING
        try:
            gates.CASES_N8_FAILING = saved - {"case01-bound-n8"}
            yield "one pinned failure fewer", check(code, out)
        finally:
            gates.CASES_N8_FAILING = saved
    elif call.argv[0] == "maximize":
        kw = check.keywords
        if "exact" in kw:
            yield "closed form off by 1e-6", _with(check, exact=kw["exact"] + Fraction(1, 10**6))(code, out)
        if "floor" in kw:
            yield "attained value raised by 1e-6", _with(check, floor=kw["floor"] + 1e-6)(code, out)
        value = float(out.split()[1])
        yield "printed value off by 1e-9", check(code, _replace_line(out, "value", f"value {value + 1e-9!r}"))
    elif call.argv[0] == "compress":
        yield "output with two disjoint edges", check(code, out + "1 2 3 4\n5 6 7 8\n")
    elif call.argv[0] == "free":
        yield "answer 'not free'", check(code, out.replace("free", "not free"))
    elif call.argv[0] == "symmetrize":
        yield "audit with a violation", check(code, _replace_line(out, "audit", "audit 1 violations"))
        os.unlink(check.keywords["trace_path"])
        yield "trace file missing", check(code, out)
    elif call.argv[0] == "partition":
        sigma = int(out.split()[1])
        yield "sigma off by one", check(code, _replace_line(out, "sigma", f"sigma {sigma + 1}"))
    else:
        raise AssertionError(f"no wrong answer for {label}")


def main():
    work = run.WORK_ROOT / f"selfcheck-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "empty").mkdir(parents=True)
    problems = []
    try:
        sys.path.insert(0, str(run.SRC))
        deadline = time.monotonic() + 600.0
        good = run.Runner(work, deadline)
        crash = run.Runner(work, deadline)
        crash.env["PYTHONPATH"] = str(work / "empty")
        try:
            crash.setup_probe()
            problems.append("set-up probe accepted an interpreter without this checkout's hlag")
        except run.Refused:
            pass
        for name in workloads.NAMES:
            calls = workloads.BY_NAME[name](seed=1, work=work)
            if name == "dichotomy":
                # the same split at sizes that take a second, not ten
                calls = [
                    workloads.Call(
                        f"theorem_n{lo}_{hi}",
                        ("verify", "--suite", "theorem", "--n-min", str(lo), "--n-max", str(hi),
                         "--witness-dir", str(work)),
                        functools.partial(gates.check_theorem, n_min=lo, n_max=hi),
                    )
                    for lo, hi in ((4, 6), (7, 7))
                ]
            for call in calls:
                code, out, err, *_ = good.spawn([sys.executable, "-m", "hlag", *call.argv])
                verdict = call.check(code, out)
                if verdict is not None:
                    problems.append(f"{name}/{call.label}: real output rejected: {verdict}")
                    continue
                for what, verdict in wrong_answers(call, code, out):
                    if verdict is None:
                        problems.append(f"{name}/{call.label}: accepted {what}")
                code, out, *_ = crash.spawn([sys.executable, "-m", "hlag", *call.argv])
                if call.check(code, out) is None:
                    problems.append(f"{name}/{call.label}: accepted a crashed invocation")
            print(f"{name}: {len(calls)} gates checked", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK_ROOT.exists() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
