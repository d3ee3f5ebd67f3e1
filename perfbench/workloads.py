"""The two workloads: seeded inputs and the ``hlag`` invocations that
run on them, each paired with its correctness gate.

* ``dichotomy`` - the paper's exhaustive check to n = 9, dominated by
  family enumeration and support-enumeration solves.
* ``session`` - a desk session: four large multistart solves (three
  symmetric inputs and one random graph with no symmetry, relabeled by
  the seed), then short calls across compression, freeness,
  symmetrization, partition and the case table.

The large solves and the short calls share one workload so that, within
the time allowed for all runs, every run is long enough to time each call
at least twice: on a shared host the speed of one 20-30 s stretch can
differ from the next by a quarter, and each call keeps its fastest
repetition.

Inputs come from the named families of the checkout under test plus
seeded perturbations; the program only ever sees ``.hg`` files and flags.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gates

NAMES = ("dichotomy", "session")

THEOREM_N_MAX = 9
# One process.  With --jobs 2 on a shared 2-vCPU VM the two workers slowed
# each other (CPU 29 s against 22 s serially) and the call's wall time
# spread by a quarter between runs of the same code
JOBS = 1


@dataclass(frozen=True)
class Call:
    """One ``hlag`` invocation and the gate that judges its output."""

    label: str
    argv: tuple
    check: Callable[[int, str], str | None]
    fresh: tuple = ()  # files the call must write anew


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _write(work: Path, name: str, r: int, n: int, edges):
    path = work / f"{name}.hg"
    path.write_text(gates.emit_hg(r, n, edges), encoding="utf-8")
    return str(path), (r, n, sorted(edges))


def dichotomy(seed: int, work: Path):
    """The fixed theorem suite to n = 9; it reads no input, so the seed is
    unused.  It runs as two calls of about ten seconds each, n <= 8 (mostly
    support-enumeration solves) and n = 9 (mostly enumeration and the
    maximality filter), so that each is repeated within a run."""
    calls = []
    for label, lo, hi in (("theorem_n4_8", 4, 8), ("theorem_n9", 9, THEOREM_N_MAX)):
        argv = (
            "verify", "--suite", "theorem", "--n-min", str(lo), "--n-max", str(hi),
            "--unsafe-size", "--jobs", str(JOBS), "--witness-dir", str(work),
        )
        check = functools.partial(gates.check_theorem, n_min=lo, n_max=hi)
        calls.append(Call(label, argv, check))
    return calls


def _large_solves(seed: int, work: Path):
    """``maximize`` on inputs large enough for the multistart ascent."""
    from hlag.families import case_family, complete, split

    calls = []

    def solve(label, G, **expect):
        path, graph = _write(work, label, G.r, G.n, G.edges)
        check = functools.partial(gates.check_maximize, graph=graph, **expect)
        calls.append(Call(label, ("maximize", "--graph", path), check))

    # lambda(K_20^4) = C(20,4)/20^4 at the uniform weighting
    solve("complete20", complete(20, 4), exact=Fraction(math.comb(20, 4), 20**4))
    # S(20): parts of 5 and 15; weight 1/4 on the small part gives
    # 27/256 * C(15,3)/15^3
    solve("split20", split(20, 4), exact=Fraction(27, 256) * Fraction(math.comb(15, 3), 15**3))
    # the value this solver attains at n = 30, and the case-5 bound
    solve("case5n30", case_family(5, 30), floor=0.011884907305010286, ceiling=gates.CASE5_BOUND)
    # G(17, m) with m = 0.2 * C(17, 4) edges: no symmetry to exploit.  The
    # edges are drawn once and the seed relabels them: every relabeling runs
    # the ascent's full 500 iterations, while a fresh draw per seed stopped
    # anywhere from 290 to 500 and moved the call's time by up to 2x (at
    # n = 16, m = 0.3 * C(16, 4) the ascent mostly stops near 230)
    quads = list(itertools.combinations(range(1, 18), 4))
    drawn = random.Random("random17").sample(quads, round(0.2 * len(quads)))
    path, graph = _write(work, "random17", 4, 17, _relabeled(seed, "random17", 17, drawn))
    calls.append(Call(
        "random17", ("maximize", "--graph", path),
        functools.partial(gates.check_maximize, graph=graph),
    ))
    return calls


def _relabeled(seed, name, n, edges):
    """``edges`` on [n] under a seeded relabeling."""
    perm = list(range(1, n + 1))
    _rng(seed, name).shuffle(perm)
    return [tuple(sorted(perm[v - 1] for v in e)) for e in edges]


def _relabeled_star_subgraph(seed, n):
    """A fixed 60 % of star(n)'s edges under a seeded relabeling.

    The kept edges are drawn once, not per seed: compression re-sorts
    labels by weight at every step, so the relabeling varies the input
    without varying the work, while a per-seed edge subset changes the
    number of compression steps and the call's time by up to 2x.
    """
    from hlag.families import star

    edges = sorted(star(n, 4).edges)
    kept = random.Random(f"star{n}").sample(edges, round(0.6 * len(edges)))
    return _relabeled(seed, f"star{n}", n, kept)


def session(seed: int, work: Path):
    from hlag.families import case_family, split, split_part_size

    calls = _large_solves(seed, work)
    calls.append(Call(
        "cases_n8",
        ("verify", "--suite", "cases", "--n-min", "8", "--n-max", "8",
         "--witness-dir", str(work)),
        gates.check_cases_n8,
    ))
    for n in (10, 14):
        path, graph = _write(work, f"star{n}_sub", 4, n, _relabeled_star_subgraph(seed, n))
        calls.append(Call(
            f"compress_star{n}", ("compress", "--graph", path, "--t", "2"),
            functools.partial(gates.check_compress, graph=graph),
        ))
    # numpy uint64 branch (n <= 63), then the Python-int branch
    for k, n in ((14, 63), (1, 80)):
        G = case_family(k, n)
        path, _ = _write(work, f"case{k}n{n}", 4, n, G.edges)
        calls.append(Call(
            f"core_free_case{k}n{n}",
            ("free", "--graph", path, "--pattern", "core", "--p", "8"),
            gates.check_core_free,
        ))

    alpha = 0.05
    S = sorted(split(28, 4).edges)
    dropped = set(_rng(seed, "split28").sample(S, round(0.05 * len(S))))
    path, graph = _write(work, "split28_minus", 4, 28, [e for e in S if e not in dropped])
    trace_path = str(work / "symmetrize-trace.json")
    calls.append(Call(
        "symmetrize_split28",
        ("symmetrize", "--graph", path, "--alpha", str(alpha), "--trace", trace_path),
        functools.partial(gates.check_symmetrize, graph=graph, alpha=alpha, trace_path=trace_path),
        fresh=(trace_path,),
    ))

    # S(20) with 8 of its edges swapped for 8 non-edges; the planted part
    # bounds the optimum from above
    S = set(split(20, 4).edges)
    rng = _rng(seed, "split20")
    removed = set(rng.sample(sorted(S), 8))
    added = rng.sample([e for e in itertools.combinations(range(1, 21), 4) if e not in S], 8)
    path, graph = _write(work, "split20_perturbed", 4, 20, (S - removed) | set(added))
    planted = range(1, split_part_size(20, 4) + 1)
    calls.append(Call(
        "partition_split20",
        ("partition", "--graph", path, "--exhaustive"),
        functools.partial(gates.check_partition, graph=graph, planted=planted),
    ))
    return calls


BY_NAME = {"dichotomy": dichotomy, "session": session}
