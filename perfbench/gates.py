"""Correctness gates for the benchmark's invocations.

Each gate takes the exit code and standard output of one ``hlag`` run
and returns ``None`` when the output is right, otherwise a one-line
reason.  Expected answers are pinned here or recomputed from the inputs
with the small, independent arithmetic below; nothing is taken from a
timed run and nothing imports the program under test.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# --- pinned answers ----------------------------------------------------------

# dichotomy: left-compressed 2-matching-free 4-graphs on [n], and how many
# of them are maximal (the ones the search solves)
THEOREM_FAMILIES = {4: 2, 5: 6, 6: 32, 7: 352, 8: 3978, 9: 37145}
THEOREM_EVALUATED = {8: 72, 9: 72}
THEOREM_N7_MAX = Fraction(5, 343)  # lambda of the complete 4-graph on 7
EQUALITY_TOL = 1e-9

# case table at n = 8: 45 rows, of which exactly these 7 fail for the two
# documented construction-level reasons (case-1 hull bound, and six cases
# whose optimum puts zero weight on the reduction vertex)
CASES_N8_ROWS = 45
CASES_N8_FAILING = frozenset(
    {"case01-bound-n8"}
    | {f"case{k:02d}-link-identity-n8" for k in (1, 2, 5, 6, 8, 10)}
)

KKT_TOL = 1e-8  # the solver's own certificate tolerance
VALUE_TOL = 1e-12  # printed value against the benchmark's recomputation
CASE5_BOUND = Fraction(1, 64)  # the case-5 hull bound
# a 2-matching-free 4-graph on at most 14 vertices has lambda at most
# max(star(14), K_7^4) = 5/343 (the dichotomy)
INTERSECTING_MAX = Fraction(5, 343)


# --- independent arithmetic --------------------------------------------------


def parse_hg(text: str):
    """(r, n, edges) from ``.hg`` text; ``#`` starts a comment."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(tok) for tok in line.split()))
    if not rows or len(rows[0]) != 2:
        raise ValueError("missing 'r n' header")
    (r, n), edges = rows[0], rows[1:]
    for e in edges:
        if len(e) != r or list(e) != sorted(set(e)) or e[0] < 1 or e[-1] > n:
            raise ValueError(f"bad edge {e}")
    return r, n, edges


def emit_hg(r: int, n: int, edges) -> str:
    return f"{r} {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))


def lagrangian(edges, x) -> float:
    return math.fsum(math.prod(x[v - 1] for v in e) for e in edges)


def gradient(edges, x, n):
    parts = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            parts[v - 1].append(math.prod(x[w - 1] for w in e if w != v))
    return [math.fsum(p) for p in parts]


def kkt_residual(edges, x, r, n) -> float:
    """max |L_i - r*lam| on the support, positive part of it off the support."""
    target = r * lagrangian(edges, x)
    res = 0.0
    for xi, gi in zip(x, gradient(edges, x, n)):
        res = max(res, abs(gi - target) if xi > 0.0 else gi - target)
    return res


def is_left_compressed(edges) -> bool:
    """Every edge stays an edge when one vertex is swapped for a smaller
    label outside it."""
    present = set(edges)
    for e in edges:
        for v in e:
            rest = set(e) - {v}
            for u in range(1, v):
                if u not in e and tuple(sorted(rest | {u})) not in present:
                    return False
    return True


def has_disjoint_pair(edges) -> bool:
    sets = [frozenset(e) for e in edges]
    return any(not (a & b) for a, b in itertools.combinations(sets, 2))


def edge_profile(edges, w1):
    """Counts of edges meeting W1 in 0..4 vertices."""
    counts = [0] * 5
    for e in edges:
        counts[len(w1.intersection(e))] += 1
    return counts


def sigma(counts) -> int:
    return counts[0] + counts[2] + 2 * counts[3] + 3 * counts[4]


# --- gates -------------------------------------------------------------------


def _expect_code(code, want):
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def check_theorem(code, out, n_min=4, n_max=9):
    """``verify --suite theorem --n-min n_min --n-max n_max``: pinned
    counts, the n = 7 maximum when n = 7 is in range, and a final
    ``passed``."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    lines = out.splitlines()
    if not lines or lines[-1] != "passed":
        return "last line is not 'passed'"
    rows = {}
    for line in lines[1:]:
        tok = line.split()
        if len(tok) == 7 and tok[0].isdigit():
            rows[int(tok[0])] = tok
    want_ns = [n for n in THEOREM_FAMILIES if n_min <= n <= n_max]
    if sorted(rows) != want_ns:
        return f"rows for n={sorted(rows)}, expected {want_ns}"
    for n in want_ns:
        tok = rows[n]
        if int(tok[1]) != THEOREM_FAMILIES[n]:
            return f"n={n}: {tok[1]} families, expected {THEOREM_FAMILIES[n]}"
        if n in THEOREM_EVALUATED and int(tok[2]) != THEOREM_EVALUATED[n]:
            return f"n={n}: {tok[2]} evaluated, expected {THEOREM_EVALUATED[n]}"
        if tok[6] != "ok":
            return f"n={n}: checks {tok[6]}"
    if 7 in rows and abs(float(rows[7][3]) - float(THEOREM_N7_MAX)) > EQUALITY_TOL:
        return f"n=7 max {rows[7][3]} is not 5/343"
    if "trend ok" not in lines:
        return "star trend not ok"
    return None


def check_cases_n8(code, out):
    """``verify --suite cases --n-min 8 --n-max 8``: exit 1 with exactly
    the pinned failing rows."""
    if (bad := _expect_code(code, 1)) is not None:
        return bad
    lines = out.splitlines()
    rows = [ln.split() for ln in lines[1:-1]]
    if len(rows) != CASES_N8_ROWS:
        return f"{len(rows)} rows, expected {CASES_N8_ROWS}"
    failing = {tok[0] for tok in rows if tok[-1] == "FAIL"}
    if any(tok[-1] not in ("ok", "FAIL") for tok in rows):
        return "row without an ok/FAIL flag"
    if failing != CASES_N8_FAILING:
        return f"failing rows {sorted(failing ^ CASES_N8_FAILING)} differ from pinned"
    want = f"passed {CASES_N8_ROWS - len(CASES_N8_FAILING)}/{CASES_N8_ROWS}"
    if lines[-1] != want:
        return f"last line {lines[-1]!r}, expected {want!r}"
    return None


def check_maximize(code, out, graph, exact=None, floor=None, ceiling=None):
    """``maximize``: recompute value and KKT residual from the printed
    weighting; optionally compare with a closed form, a known attained
    value (``floor``) or an upper bound (``ceiling``)."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    r, n, edges = graph
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.split()
    try:
        value = float(fields["value"][0])
        x = [float(t) for t in fields["weighting"]]
        support = [int(t) for t in fields["support"]]
        printed_residual = float(fields["residual"][0])
    except (KeyError, IndexError, ValueError):
        return "missing value/weighting/support/residual"
    if len(x) != n or min(x) < 0.0 or abs(math.fsum(x) - 1.0) > 1e-12:
        return "weighting is not a point of the simplex"
    if support != [i + 1 for i, xi in enumerate(x) if xi > 0.0]:
        return "support does not match the weighting"
    lam = lagrangian(edges, x)
    if abs(lam - value) > VALUE_TOL:
        return f"printed value {value!r} but the weighting gives {lam!r}"
    residual = kkt_residual(edges, x, r, n)
    if residual > KKT_TOL or printed_residual > KKT_TOL:
        return f"KKT residual {residual:.3g} (printed {printed_residual:.3g})"
    if exact is not None and abs(lam - float(exact)) > EQUALITY_TOL:
        return f"value {lam!r} differs from the closed form {float(exact)!r}"
    if floor is not None and lam < floor - EQUALITY_TOL:
        return f"value {lam!r} below the known attained {floor!r}"
    if ceiling is not None and lam > float(ceiling) + EQUALITY_TOL:
        return f"value {lam!r} above the bound {float(ceiling)!r}"
    if lam < lagrangian(edges, [1.0 / n] * n) - EQUALITY_TOL:
        return "value below the uniform weighting's"
    return None


def check_compress(code, out, graph):
    """``compress --t 2`` on a star subgraph: the output re-parses, is
    left-compressed, keeps every pair of edges intersecting, has lambda
    non-decreasing along its steps, and obeys the dichotomy bound."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    r, n, edges = graph
    try:
        fr, fn, fedges = parse_hg(out)
    except ValueError as exc:
        return f"output does not re-parse: {exc}"
    if fr != r or fn > n or len(fedges) > len(edges) or not fedges:
        return f"final graph r={fr} n={fn} m={len(fedges)} cannot come from the input"
    if not is_left_compressed(fedges):
        return "final graph is not left-compressed"
    if has_disjoint_pair(fedges):
        return "final graph has two disjoint edges"
    values = [
        float(line.rsplit("lambda=", 1)[1])
        for line in out.splitlines()
        if line.startswith("#") and "lambda=" in line
    ]
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        return "lambda decreased along the steps"
    if values and values[-1] > float(INTERSECTING_MAX) + EQUALITY_TOL:
        return f"final lambda {values[-1]!r} above 5/343"
    return None


def check_core_free(code, out):
    """``free --pattern core --p 8`` on a case hull: case hulls have no two
    disjoint edges, so they are free."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    if out != "pattern core(p=8)\nfree\n":
        return f"output {out!r}, expected core(p=8) free"
    return None


def check_symmetrize(code, out, graph, alpha, trace_path):
    """``symmetrize --trace``: audit ok, the vertex fraction reaches
    1 - alpha, and the trace file agrees with the summary."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    _, n, _ = graph
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.split()
    try:
        steps = int(fields["steps"][0])
        final_v = int(fields["final_vertices"][0])
        final_e = int(fields["final_edges"][0])
    except (KeyError, IndexError, ValueError):
        return "missing steps/final_vertices/final_edges"
    if fields.get("audit") != ["ok"]:
        return "audit not ok"
    if final_v < (1.0 - alpha) * n:
        return f"{final_v} of {n} vertices left, below 1 - alpha"
    try:
        with open(trace_path, encoding="utf-8") as fh:
            records = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"trace file unreadable: {exc}"
    if len(records) != steps or [s["index"] for s in records] != list(range(1, steps + 1)):
        return "trace records do not match the step count"
    kinds = [s["kind"] for s in records]
    if kinds[-1] != "clean" or any(k == kinds[i + 1] for i, k in enumerate(kinds[:-1])):
        return "trace does not alternate clean/merge and end on clean"
    last = records[-1]
    if (last["vertex_count"], last["edge_count"]) != (final_v, final_e):
        return "final trace state differs from the summary"
    return None


def check_partition(code, out, graph, planted):
    """``partition --exhaustive``: the printed score matches the printed
    partition, and is no worse than the planted partition's."""
    if (bad := _expect_code(code, 0)) is not None:
        return bad
    _, n, edges = graph
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest.split()
    try:
        printed_sigma = int(fields["sigma"][0])
        w1 = {int(t) for t in fields["w1"]}
        w2 = {int(t) for t in fields["w2"]}
        tok = fields["good"]
        good, bad_, very_bad, worst = (int(tok[i]) for i in (0, 2, 4, 6))
    except (KeyError, IndexError, ValueError):
        return "missing sigma/w1/w2/good line"
    if fields.get("exhaustive") != ["yes"]:
        return "not certified exhaustive"
    if w1 & w2 or w1 | w2 != set(range(1, n + 1)):
        return "w1, w2 do not partition the vertices"
    counts = edge_profile(edges, w1)
    if (good, bad_, very_bad, worst) != (counts[1], counts[0] + counts[2], counts[3], counts[4]):
        return "edge classes do not match the printed partition"
    if printed_sigma != sigma(counts):
        return "sigma does not match the printed partition"
    best_known = sigma(edge_profile(edges, set(planted)))
    if printed_sigma > best_known:
        return f"sigma {printed_sigma} worse than the planted partition's {best_known}"
    return None
