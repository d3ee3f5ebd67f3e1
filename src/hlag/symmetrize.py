"""Symmetrization of dense 4-graphs: alternate vertex cleaning with
merging of uncovered representative pairs, tracking the part structure
over the original labels the whole way so the run can be audited."""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType

from .core import Hypergraph, _blow, _degree_table, _relabel, _uncovered
from .errors import NotFreeError
from .families import matching
from .freeness import is_core_free

__all__ = [
    "PointedHypergraph",
    "initial_pointed",
    "clean",
    "merge",
    "symmetrize",
    "SymStep",
    "SymTrace",
    "audit",
    "AuditCheck",
    "AuditReport",
]

DENSITY_COEFF = 9.0 / 128.0


@dataclass(frozen=True)
class PointedHypergraph:
    """A hypergraph over an arbitrary label set, with its vertices grouped
    into ordered parts.  The first member of each part is its
    representative; parts are kept sorted by representative."""

    r: int
    vertices: frozenset
    edges: frozenset
    parts: tuple

    def __post_init__(self):
        seen = set()
        for part in self.parts:
            if not part:
                raise ValueError("empty part")
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} in two parts")
                seen.add(v)
        if seen != set(self.vertices):
            raise ValueError("parts must partition the vertex set")
        if any(a[0] > b[0] for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be sorted by representative")
        for e in self.edges:
            if len(e) != self.r or list(e) != sorted(set(e)):
                raise ValueError(f"bad edge {e}")
            if not set(e) <= self.vertices:
                raise ValueError(f"edge {e} leaves the vertex set")

    @property
    def reps(self):
        return tuple(part[0] for part in self.parts)

    def part_by_rep(self):
        return {part[0]: part for part in self.parts}

    def degrees(self):
        """Vertex -> degree, read-only; computed once per state, since
        ``clean`` reads it on the state it returns and ``merge`` again."""
        return self._degrees

    @functools.cached_property
    def _degrees(self):
        return MappingProxyType(_degree_table(self.edges, self.vertices))

    def edge_count(self):
        return len(self.edges)

    def to_hypergraph(self):
        """Relabel to 1..m in increasing label order; returns the graph and
        the old-to-new map."""
        edges, relabel = _relabel(self.edges, sorted(self.vertices))
        return Hypergraph(self.r, len(relabel), edges), relabel


def initial_pointed(G: Hypergraph) -> PointedHypergraph:
    return PointedHypergraph(
        r=G.r,
        vertices=frozenset(range(1, G.n + 1)),
        edges=frozenset(G.edges),
        parts=tuple((v,) for v in range(1, G.n + 1)),
    )


def _drop_vertex(PG: PointedHypergraph, w: int) -> PointedHypergraph:
    parts = []
    for part in PG.parts:
        if w in part:
            kept = tuple(v for v in part if v != w)
            if kept:
                parts.append(kept)
        else:
            parts.append(part)
    return PointedHypergraph(
        r=PG.r,
        vertices=PG.vertices - {w},
        edges=frozenset(e for e in PG.edges if w not in e),
        parts=tuple(sorted(parts)),
    )


def _degree_threshold(alpha: float, vertex_count: int, fixed_n: int | None):
    """(9/128 - alpha) n^3, with n the vertex count unless ``fixed_n`` pins
    it: the degree every representative of a clean state reaches."""
    n = fixed_n if fixed_n is not None else vertex_count
    return (DENSITY_COEFF - alpha) * n**3


def clean(PG: PointedHypergraph, alpha: float, fixed_n: int | None = None):
    """Repeatedly delete from low-degree parts until every representative
    has degree at least (9/128 - alpha) n^3.

    n is the current vertex count unless ``fixed_n`` pins it.  The deleted
    vertex is the last member of the offending part (its representative
    only once the part is a singleton); among under-threshold parts the one
    with the smallest (degree, representative) pair goes first.  Returns
    the cleaned state and the removal order.
    """
    removed = []
    while PG.vertices:
        threshold = _degree_threshold(alpha, len(PG.vertices), fixed_n)
        degs = PG.degrees()
        low = [(degs[rep], rep) for rep in PG.reps if degs[rep] < threshold]
        if not low:
            break
        _, rep = min(low)
        part = PG.part_by_rep()[rep]
        w = part[-1]
        removed.append(w)
        PG = _drop_vertex(PG, w)
    return PG, tuple(removed)


def merge(PG: PointedHypergraph):
    """Merge the lexicographically first uncovered representative pair.

    The pairs come from ``core._uncovered``, which reads each edge only at
    its representatives.  The lower-degree representative's part is
    appended to the other's (ties keep the smaller label), and the graph
    is rebuilt as the blowup (``core._blow``) of its restriction to the
    surviving representatives.  Returns the new state and a step detail,
    or (PG, None) when every pair is covered.
    """
    uncovered = _uncovered(PG.edges, PG.reps)
    if not uncovered:
        return PG, None
    u, v = min(uncovered)
    degs = PG.degrees()
    if degs[u] > degs[v]:
        surv, gone = u, v
    elif degs[v] > degs[u]:
        surv, gone = v, u
    else:
        surv, gone = min(u, v), max(u, v)

    part_of = PG.part_by_rep()
    new_parts = []
    for part in PG.parts:
        if part[0] == surv:
            new_parts.append(part + part_of[gone])
        elif part[0] != gone:
            new_parts.append(part)
    surviving = set(PG.reps) - {gone}
    base = [e for e in PG.edges if surviving.issuperset(e)]
    edges = _blow(base, {part[0]: part for part in new_parts})
    out = PointedHypergraph(
        r=PG.r,
        vertices=PG.vertices,
        edges=edges,
        parts=tuple(sorted(new_parts)),
    )
    detail = {
        "pair": (u, v),
        "survivor": surv,
        "absorbed": gone,
        "survivor_degree": degs[surv],
        "absorbed_degree": degs[gone],
    }
    return out, detail


@dataclass(frozen=True)
class SymStep:
    index: int
    kind: str  # "clean" | "merge"
    detail: dict
    state: PointedHypergraph


@dataclass(frozen=True)
class SymTrace:
    alpha: float
    input_n: int
    initial: PointedHypergraph
    steps: tuple
    final: PointedHypergraph
    fixed_n: int | None = None  # the n that pinned clean's threshold, if any

    def states(self):
        return (self.initial,) + tuple(s.state for s in self.steps)

    def final_graph(self):
        return self.final.to_hypergraph()


def symmetrize(G: Hypergraph, alpha: float, fixed_n: int | None = None) -> SymTrace:
    """Run the clean/merge loop until a clean state has no uncovered
    representative pair; that state is the result.

    The input must be 4-uniform and must not contain two disjoint edges
    spanning a fully covered 8-set.
    """
    if G.r != 4:
        raise ValueError(f"symmetrization is defined for 4-graphs, got r={G.r}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if fixed_n is not None and fixed_n < 1:
        raise ValueError(f"fixed_n must be >= 1, got {fixed_n}")
    report = is_core_free(G, 8, matching(2, 4))
    if not report.free:
        raise NotFreeError(
            "input has two disjoint edges on a covered 8-set",
            witness=report.witness,
        )

    pg = initial = initial_pointed(G)
    steps = []
    idx = 0
    cap = 2 * G.n + 2
    while True:
        idx += 1
        cleaned, removed = clean(pg, alpha, fixed_n=fixed_n)
        steps.append(SymStep(idx, "clean", {"removed": removed}, cleaned))
        merged, detail = merge(cleaned)
        if detail is None:
            final = cleaned
            break
        idx += 1
        steps.append(SymStep(idx, "merge", detail, merged))
        pg = merged
        if idx > cap:
            raise RuntimeError("symmetrization failed to settle")
    return SymTrace(
        alpha=alpha,
        input_n=G.n,
        initial=initial,
        steps=tuple(steps),
        final=final,
        fixed_n=fixed_n,
    )


@dataclass(frozen=True)
class AuditCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple
    final_vertex_fraction: float
    alpha: float

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def violations(self):
        return tuple(c for c in self.checks if not c.ok)


def _links_by_vertex(state: PointedHypergraph):
    links = defaultdict(set)
    for e in state.edges:
        for v in e:
            links[v].add(tuple(w for w in e if w != v))
    return links


def _is_blowup(state: PointedHypergraph) -> bool:
    rep_set = set(state.reps)
    base = [e for e in state.edges if rep_set.issuperset(e)]
    return _blow(base, state.part_by_rep()) == state.edges


def audit(trace: SymTrace) -> AuditReport:
    """Re-check the structural guarantees of a symmetrization run.

    Covers: vertex/representative chains shrink; each step refines parts
    (so transversality and the partition property at any stage imply them
    for all earlier stages); edges meet each part at most once; each state
    equals the blowup (``core._blow``, as ``merge`` builds it) of its
    restriction to the representatives; part members are pairwise
    interchangeable; a merge never loses edges; once a merge survivor's
    part misses the final vertex set, so does the absorbed part; the final
    state meets the degree threshold that ``clean`` applied
    (``trace.fixed_n`` pins its n as it pinned the run's); and its base,
    relabelled onto 1..m by ``core._relabel``, stays free of the forbidden
    core pattern.  That parts partition the vertices is left to
    ``PointedHypergraph``, which refuses any state whose parts do not.

    A clean step that removes nothing returns its input, so the per-state
    checks skip a state that is the same object as the one before it.
    ``edges-transversal`` and ``parts-interchangeable`` are derived from
    ``blowup-idempotent``: parts partition the vertices (enforced by
    ``PointedHypergraph``), so a state equal to the blowup of its base
    consists of transversals, and members of a part have equal links.
    Those two scans therefore run only on the states that fail the blowup
    check, which gives the same first failure and detail.  Details name
    the index into ``trace.states()``.
    """
    checks = []
    states = trace.states()
    vf = trace.final.vertices
    distinct = [
        (k, s) for k, s in enumerate(states) if k == 0 or s is not states[k - 1]
    ]

    ok = all(
        states[k + 1].vertices <= states[k].vertices
        and set(states[k + 1].reps) <= set(states[k].reps)
        for k in range(len(states) - 1)
    )
    checks.append(AuditCheck("chains-shrink", ok))

    ok, why = True, ""
    for k in range(len(states) - 1):
        nxt = {}
        for part in states[k + 1].parts:
            for v in part:
                nxt[v] = part[0]
        for part in states[k].parts:
            live = [v for v in part if v in nxt]
            if len({nxt[v] for v in live}) > 1:
                ok, why = False, f"step {k}: part {part} split"
                break
        if not ok:
            break
    checks.append(AuditCheck("parts-refine", ok, why))

    not_blowups = [(k, s) for k, s in distinct if not _is_blowup(s)]

    ok, why = True, ""
    for k, s in not_blowups:
        owner = {}
        for part in s.parts:
            for v in part:
                owner[v] = part[0]
        for e in s.edges:
            if len({owner[v] for v in e}) != len(e):
                ok, why = False, f"state {k}: edge {e} repeats a part"
                break
        if not ok:
            break
    checks.append(AuditCheck("edges-transversal", ok, why))

    ok, why = True, ""
    if not_blowups:
        ok, why = False, f"state {not_blowups[0][0]} is not the blowup of its base"
    checks.append(AuditCheck("blowup-idempotent", ok, why))

    ok, why = True, ""
    for k, s in not_blowups:
        links = _links_by_vertex(s)
        for part in s.parts:
            first = links[part[0]]
            if any(links[v] != first for v in part[1:]):
                ok, why = False, f"state {k}: part {part} links differ"
                break
        if not ok:
            break
    checks.append(AuditCheck("parts-interchangeable", ok, why))

    ok, why = True, ""
    for step in trace.steps:
        if step.kind != "merge":
            continue
        before = states[step.index - 1]
        after = step.state
        if after.edge_count() < before.edge_count():
            ok, why = False, (
                f"merge {step.index}: {before.edge_count()} -> "
                f"{after.edge_count()} edges"
            )
            break
    checks.append(AuditCheck("merge-gains-edges", ok, why))

    ok, why = True, ""
    for step in trace.steps:
        if step.kind != "merge":
            continue
        pre = states[step.index - 1].part_by_rep()
        pu = pre.get(step.detail["survivor"], ())
        pv = pre.get(step.detail["absorbed"], ())
        if not (set(pu) & vf) and (set(pv) & vf):
            ok, why = False, (
                f"merge {step.index}: survivor part gone from the final "
                "state but absorbed part survives"
            )
            break
    checks.append(AuditCheck("absorbed-dies-first", ok, why))

    final = trace.final
    threshold = _degree_threshold(trace.alpha, len(final.vertices), trace.fixed_n)
    degs = final.degrees()
    low = min((v for v in final.vertices if degs[v] < threshold), default=None)
    ok, why = True, ""
    if low is not None:
        ok, why = False, (
            f"vertex {low}: degree {degs[low]} < threshold {threshold:.17g}"
        )
    checks.append(AuditCheck("final-min-degree", ok, why))

    if final.vertices:
        reps = sorted(final.reps)
        base_graph = Hypergraph(final.r, len(reps), _relabel(final.edges, reps)[0])
        report = is_core_free(base_graph, 8, matching(2, 4))
        checks.append(AuditCheck("final-base-free", report.free))
    else:
        checks.append(AuditCheck("final-base-free", True))

    frac = len(final.vertices) / trace.input_n if trace.input_n else 1.0
    return AuditReport(
        checks=tuple(checks),
        final_vertex_fraction=frac,
        alpha=trace.alpha,
    )
