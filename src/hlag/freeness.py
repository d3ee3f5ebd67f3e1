"""Matching numbers, covered-core freeness, and the exhaustive
left-compressed extremal search at small n.  One bitset clique search,
``_cliques``, serves the core search and the family walk's matching test;
``hom_search`` is the core search's independent cross-check."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import _bind, _lazy
from .core import Hypergraph, uncovered_pairs
from .errors import UnsupportedSizeError
from .families import extension

__all__ = [
    "FreenessReport",
    "matching_number",
    "is_matching_free",
    "is_core_free",
    "hom_search",
    "enumerate_left_compressed_free",
    "extremal_lambda_search",
    "SearchResult",
]

ENUM_GUARD_N = 9
HOM_GUARD_N = 10

# Only the extremal search solves, so numpy loads with its first call.
__getattr__ = _lazy(globals(), {
    "SolverConfig": "solver", "_degree_runs": "solver", "_solve_quotient": "solver",
})


@dataclass(frozen=True)
class FreenessReport:
    pattern: str
    free: bool
    witness: tuple | None = None


def _edge_masks(edges):
    return [sum(1 << (v - 1) for v in e) for e in edges]


def _max_matching(masks, n, r, stop_at=None):
    """Largest set of pairwise disjoint edges, by branch and bound.

    Returns (size, indices of one maximum matching).  With ``stop_at`` the
    search exits as soon as that many disjoint edges are found.
    """
    # Not ``_cliques`` over a disjointness table: this search bounds by
    # the vertices left, (n - |used|) // r more edges at most, which the
    # clique routine cannot see.  is_matching_free(complete(16, 4), 5) takes
    # 0.003 s here and 11.8 s through ``_cliques`` (Python 3.11, 2 vCPUs).
    m = len(masks)
    best, best_pick = 0, []

    def rec(idx, used, pick):
        nonlocal best, best_pick
        if len(pick) > best:
            best, best_pick = len(pick), list(pick)
        if stop_at is not None and best >= stop_at:
            return True
        free_slots = (n - bin(used).count("1")) // r
        for k in range(idx, m):
            if len(pick) + free_slots <= best or len(pick) + (m - k) <= best:
                break
            if masks[k] & used:
                continue
            pick.append(k)
            done = rec(k + 1, used | masks[k], pick)
            pick.pop()
            if done:
                return True
        return False

    rec(0, 0, [])
    return best, best_pick


def matching_number(G: Hypergraph) -> int:
    """Maximum number of pairwise disjoint edges."""
    if not G.edges:
        return 0
    size, _ = _max_matching(_edge_masks(G.edge_list()), G.n, G.r)
    return size


def is_matching_free(G: Hypergraph, t: int) -> FreenessReport:
    """Free iff G has no t pairwise disjoint edges."""
    pattern = f"matching(t={t},r={G.r})"
    if t < 1:
        return FreenessReport(pattern, False, witness=())
    edge_list = G.edge_list()
    size, pick = _max_matching(_edge_masks(edge_list), G.n, G.r, stop_at=t)
    if size >= t:
        return FreenessReport(pattern, False, tuple(edge_list[k] for k in pick))
    return FreenessReport(pattern, True)


def _cliques(pool, s, narrow):
    """Yield, lowest first, the s-tuples of increasing set-bit indices of
    ``pool`` in which each pick k keeps only the later indices inside the
    bitmask ``narrow(k)``: for the symmetric ``narrow`` every caller passes,
    the s-cliques of the graph it defines on ``pool``, each met once."""
    if s <= 0:
        yield ()
        return
    # scan digits, not pop bits as ``_bits`` does: the core search's first
    # pool has a bit per host edge, and each pop copies the whole integer
    digits = bin(pool)[:1:-1]
    k = digits.find("1")
    while k >= 0:
        if s == 1:
            yield (k,)
        else:
            later = pool & narrow(k)
            if later >> (k + 1):
                for rest in _cliques(later & -(2 << k), s - 1, narrow):
                    yield (k, *rest)
        k = digits.find("1", k + 1)


def is_core_free(G: Hypergraph, p: int, F: Hypergraph) -> FreenessReport:
    """Search for p pairwise-covered vertices that hold a copy of F.

    F must be a matching (``ValueError`` otherwise); its isolated vertices
    only count towards p >= |V(F)|.  ``_cliques`` picks F's t host edges,
    each disjoint from and covered with those before it, then the p - rt
    other core vertices.  Free iff no such core exists; the witness is
    (sorted core, edges) for the first such edges in edge-list order.
    """
    pattern = f"core(p={p})"
    if F.r != G.r:
        raise ValueError("pattern uniformity must match the host")
    if p < F.n:
        raise ValueError(f"core size p={p} must be >= |V(F)| = {F.n}")
    if len({v for e in F.edges for v in e}) != F.r * len(F.edges):
        raise ValueError("pattern F must be a matching: its edges meet")
    if G.n < p:
        return FreenessReport(pattern, True)
    edge_list = G.edge_list()
    through = [0] * (G.n + 1)
    for j, e in enumerate(edge_list):
        for v in e:
            through[v] |= 1 << j
    every = (1 << len(edge_list)) - 1

    # covered[v] (1-based) holds the vertices sharing an edge with v; over
    # edge indices, fits[v] holds the edges that can sit beside an edge
    # through v: those that miss v and meet only vertices covered with v
    everyone = (1 << G.n) - 1
    covered = [0] + [everyone & ~(1 << v) for v in range(G.n)]
    clash = list(through)
    for u, v in uncovered_pairs(G):
        covered[u] &= ~(1 << (v - 1))
        covered[v] &= ~(1 << (u - 1))
        clash[u] |= through[v]
        clash[v] |= through[u]
    fits = [every & ~c for c in clash]

    def partners(k):
        a, *rest = edge_list[k]
        mask = fits[a]
        for v in rest:
            mask &= fits[v]
        return mask

    by_bit = covered[1:]
    for picked in _cliques(every, len(F.edges), partners):
        used = [v for k in picked for v in edge_list[k]]
        pool = everyone
        for v in used:
            pool &= covered[v]
        extra = next(_cliques(pool, p - len(used), by_bit.__getitem__), None)
        if extra is not None:
            core = tuple(sorted(used + [b + 1 for b in extra]))
            return FreenessReport(
                pattern, False, (core, tuple(edge_list[k] for k in picked))
            )
    return FreenessReport(pattern, True)


def hom_search(G: Hypergraph, F: Hypergraph, p: int):
    """Direct backtracking search for a homomorphism extension(F, p) -> G.

    Returns the vertex map as a tuple (image of vertex v at index v-1), or
    None.  Guarded: meant for cross-validation on small hosts.
    """
    if G.n > HOM_GUARD_N:
        raise UnsupportedSizeError(
            f"hom search needs n <= {HOM_GUARD_N}, got n={G.n}"
        )
    H = extension(F, p)
    # placing v changes only the assigned sets of the edges through v
    through = [[] for _ in range(H.n + 1)]
    for e in sorted(H.edges):
        for w in e:
            through[w].append(e)
    # partial images must stay inside some edge of G
    partial_ok = set()
    for e in G.edges:
        for k in range(1, G.r + 1):
            partial_ok.update(itertools.combinations(e, k))

    def rec(assign):
        v = len(assign) + 1
        if v > H.n:
            return tuple(assign)
        for img in range(1, G.n + 1):
            # the p core vertices must land on distinct images
            if v <= p and img in assign[:p]:
                continue
            assign.append(img)
            ok = True
            for e in through[v]:
                assigned = [assign[w - 1] for w in e if w <= v]
                image = tuple(sorted(set(assigned)))
                if len(image) < len(assigned):
                    ok = False  # an edge may not collapse
                    break
                if len(assigned) == len(e):
                    if image not in G.edges:
                        ok = False
                        break
                elif image not in partial_ok:
                    ok = False
                    break
            if ok:
                out = rec(assign)
                if out is not None:
                    return out
            assign.pop()
        return None

    return rec([])


def _bits(mask):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class _ColexTable:
    """The edges of K_n^r in colex order, with what the family walk needs
    per edge as bitmasks over edge indices: its single-replacement
    predecessors (swap one vertex for the next label down when that label
    is outside the edge), which come earlier in colex order, and the edges
    disjoint from it."""

    def __init__(self, n, r):
        self.edges = tuple(sorted(
            itertools.combinations(range(1, n + 1), r), key=lambda e: e[::-1]
        ))
        index = {e: k for k, e in enumerate(self.edges)}
        masks = _edge_masks(self.edges)
        preds = []
        for e in self.edges:
            se = set(e)
            bits = 0
            for v in e:
                if v - 1 >= 1 and v - 1 not in se:
                    bits |= 1 << index[tuple(sorted(se - {v} | {v - 1}))]
            preds.append(bits)
        self.preds = tuple(preds)
        self.succs = tuple(
            tuple(j for j, pj in enumerate(preds) if pj >> k & 1)
            for k in range(len(preds))
        )
        self.disjoint = tuple(
            sum(1 << j for j, mj in enumerate(masks) if not mj & mk)
            for mk in masks
        )

    def has_matching(self, pool, s) -> bool:
        """Whether the edges in the bitmask ``pool`` hold s pairwise
        disjoint edges: whether ``_cliques`` over the ``disjoint`` table
        yields one s-tuple."""
        return next(_cliques(pool, s, self.disjoint.__getitem__), None) is not None

    def edge_set(self, present):
        """The edges whose indices are the bits of ``present``."""
        return [self.edges[k] for k in _bits(present)]


@functools.lru_cache(maxsize=None)
def _colex_table(n, r) -> _ColexTable:
    """The read-only table for (n, r), built once per process."""
    return _ColexTable(n, r)


def _walk_table(n, r, t, guard) -> _ColexTable:
    """The colex table for a walk over r-graphs on [n] with no t disjoint
    edges, after checking r >= 1, t >= 1 and n against the guard."""
    if r < 1:
        raise ValueError(f"uniformity r must be >= 1, got r={r}")
    if t < 1:
        raise ValueError(f"matching size t must be >= 1, got t={t}")
    guard = ENUM_GUARD_N if guard is None else guard
    if n > guard:
        raise UnsupportedSizeError(
            f"enumeration needs n <= {guard}, got n={n} "
            "(raise with the guard argument, or --unsafe-size on the CLI)"
        )
    return _colex_table(n, r)


def _walk(table: _ColexTable, t):
    """Yield (edge bitmask, maximal) for every left-compressed graph in
    ``table`` with no t disjoint edges, by a depth-first walk over the
    edges in colex order.  An edge is ready once all its single-replacement
    predecessors are taken; a ready edge that completes no t-matching is
    first left out, then taken.

    The family only grows, so an edge that is never ready or that completes
    a t-matching can never join it: a missing predecessor comes earlier in
    colex order and is not taken later, and the matching stays.  Only the
    edges left out by choice can, and they had all their predecessors, so
    at a leaf their matching test alone decides maximality.

    For t = 2 an edge completes a 2-matching iff it is disjoint from a
    taken edge.  Disjointness is symmetric, so the walk carries the union
    ``blocked`` of the taken edges' ``disjoint`` masks and tests that bit
    inline, when branching and at the leaf, instead of calling
    ``has_matching``.
    """
    preds, succs, disjoint = table.preds, table.succs, table.disjoint
    pair = t == 2
    # (ready edges not yet passed, edges taken, edges left out by choice,
    # edges disjoint from some taken edge)
    stack = [(sum(1 << k for k, p in enumerate(preds) if not p), 0, 0, 0)]
    while stack:
        ready, present, skipped, blocked = stack.pop()
        while ready:
            low = ready & -ready
            ready ^= low
            k = low.bit_length() - 1
            if (
                blocked & low
                if pair
                else table.has_matching(present & disjoint[k], t - 1)
            ):
                continue
            taken = present | low
            grown = ready
            for j in succs[k]:
                if not preds[j] & ~taken:
                    grown |= 1 << j
            stack.append((grown, taken, skipped, blocked | disjoint[k]))
            stack.append((ready, present, skipped | low, blocked))
            break
        else:
            if pair:
                maximal = not skipped & ~blocked
            else:
                maximal = all(
                    table.has_matching(present & disjoint[j], t - 1)
                    for j in _bits(skipped)
                )
            yield present, maximal


def enumerate_left_compressed_free(n, r, t, guard: int | None = None):
    """Yield every left-compressed r-graph on [n] with no t disjoint edges.

    Graphs are produced as edge frozensets exactly once, by branching over
    edges in colex order; an edge may enter only when all its
    single-replacement predecessors are present and no t-matching appears.
    This is the public generator; ``extremal_lambda_search`` reads ``_walk``
    directly and builds edge sets only for maximal families.
    """
    table = _walk_table(n, r, t, guard)
    for present, _ in _walk(table, t):
        yield frozenset(table.edge_set(present))


def _is_star_subgraph(edges) -> bool:
    it = iter(edges)
    try:
        common = set(next(it))
    except StopIteration:
        return True
    for e in it:
        common &= set(e)
        if not common:
            return False
    return True


@dataclass(frozen=True)
class SearchResult:
    n: int
    r: int
    t: int
    families: int
    evaluated: int
    max_value: float
    witness: Hypergraph
    witness_is_star_subgraph: bool
    max_nonstar_value: float
    nonstar_witness: Hypergraph | None


def extremal_lambda_search(n, r, t, guard: int | None = None) -> SearchResult:
    """Maximize lambda over all left-compressed free graphs on [n].

    Only maximal families are evaluated: lambda is monotone under
    subgraphs, so the maximum is attained on a maximal family.  Each goes
    to the solver as its class quotient, with no vertex-level graph: the
    walk builds only left-compressed families (Talbot, CPC 2002), so its
    classes are its runs of equal degree, and the value is what
    ``maximize`` gives under the default ``SolverConfig()``, bit for bit,
    without its left-compression test or KKT residual.
    """
    table = _walk_table(n, r, t, guard)
    families = 0
    to_eval = []
    for present, maximal in _walk(table, t):
        families += 1
        if maximal and present:
            to_eval.append(tuple(sorted(table.edge_set(present))))
    to_eval.sort()

    # module __getattr__ serves attribute reads, not global lookups, so the
    # solver names are bound here (a tracer's wrapper, if any, included)
    _bind(__name__, "SolverConfig", "_degree_runs", "_solve_quotient")
    cfg = SolverConfig()
    # to_eval is sorted, so within 1e-12 the lex-first family wins
    best = (-1.0, None)
    best_nonstar = (-1.0, None)
    for edges in to_eval:
        classes = _degree_runs(edges, n)
        value, _, _ = _solve_quotient(edges, n, r, classes, "support-enum", True, cfg)
        if value > best[0] + 1e-12:
            best = (value, edges)
        if value > best_nonstar[0] + 1e-12 and not _is_star_subgraph(edges):
            best_nonstar = (value, edges)

    if best[1] is None:
        best = (0.0, ())
        witness = Hypergraph(r, n, frozenset())
    else:
        witness = Hypergraph(r, n, frozenset(best[1]))
    nonstar_witness = (
        Hypergraph(r, n, frozenset(best_nonstar[1]))
        if best_nonstar[1] is not None
        else None
    )
    return SearchResult(
        n=n,
        r=r,
        t=t,
        families=families,
        evaluated=len(to_eval),
        max_value=best[0],
        witness=witness,
        witness_is_star_subgraph=_is_star_subgraph(witness.edges),
        max_nonstar_value=best_nonstar[0],
        nonstar_witness=nonstar_witness,
    )
