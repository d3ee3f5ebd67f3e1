"""Matching numbers, core- and hom-freeness, and the exhaustive
left-compressed extremal search at small n."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import _bind, _lazy
from .core import Hypergraph
from .errors import UnsupportedSizeError
from .families import extension

__all__ = [
    "FreenessReport",
    "matching_number",
    "is_matching_free",
    "is_core_free",
    "is_hom_free",
    "hom_search",
    "enumerate_left_compressed_free",
    "extremal_lambda_search",
    "SearchResult",
]

ENUM_GUARD_N = 9
HOM_GUARD_N = 10

# Only the extremal search solves, so numpy loads with its first call.
__getattr__ = _lazy(globals(), {"SolverConfig": "solver", "maximize": "solver"})


@dataclass(frozen=True)
class FreenessReport:
    pattern: str
    free: bool
    witness: tuple | None = None


def _edge_masks(G: Hypergraph):
    return [sum(1 << (v - 1) for v in e) for e in G.edge_list()]


def _max_matching(masks, n, r, stop_at=None):
    """Largest set of pairwise disjoint edges, by branch and bound.

    Returns (size, indices of one maximum matching).  With ``stop_at`` the
    search exits as soon as that many disjoint edges are found.
    """
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
    size, _ = _max_matching(_edge_masks(G), G.n, G.r)
    return size


def is_matching_free(G: Hypergraph, t: int) -> FreenessReport:
    """Free iff G has no t pairwise disjoint edges."""
    pattern = f"matching(t={t},r={G.r})"
    if t < 1:
        return FreenessReport(pattern, False, witness=())
    edge_list = G.edge_list()
    size, pick = _max_matching(_edge_masks(G), G.n, G.r, stop_at=t)
    if size >= t:
        return FreenessReport(pattern, False, tuple(edge_list[k] for k in pick))
    return FreenessReport(pattern, True)


def _covered_matrix(G: Hypergraph):
    """Row v (1-based) = bitmask of vertices sharing an edge with v."""
    rows = [0] * (G.n + 1)
    for e in G.edges:
        for v in e:
            for w in e:
                if w != v:
                    rows[v] |= 1 << (w - 1)
    return rows


def _is_perfect_matching(F: Hypergraph) -> bool:
    seen = set()
    for e in F.edges:
        if seen & set(e):
            return False
        seen.update(e)
    return len(seen) == F.n


def is_core_free(G: Hypergraph, p: int, F: Hypergraph) -> FreenessReport:
    """Search for p fully-covered vertices whose induced subgraph contains F.

    Free iff no such core exists; the witness is (core, embedded F edges).
    For F a perfect matching the embedding test reduces to finding disjoint
    edges inside the candidate core, which is what the fast path below does.
    """
    pattern = f"core(p={p})"
    if F.r != G.r:
        raise ValueError("pattern uniformity must match the host")
    if p < F.n:
        raise ValueError(f"core size p={p} must be >= |V(F)| = {F.n}")
    if G.n < p:
        return FreenessReport(pattern, True)
    covered = _covered_matrix(G)
    edge_list = G.edge_list()

    if _is_perfect_matching(F) and len(F.edges) == 2 and p == 2 * G.r:
        # core = union of two disjoint edges e, f with every cross pair
        # covered.  Over edge indices, clash[v] holds the edges that cannot
        # be f for an e through v: those through v itself or through a
        # vertex sharing no edge with v
        through = [0] * (G.n + 1)
        for j, e in enumerate(edge_list):
            for v in e:
                through[v] |= 1 << j
        clash = [0] * (G.n + 1)
        for v in range(1, G.n + 1):
            c = through[v]
            for u in range(1, G.n + 1):
                if u != v and not covered[v] >> (u - 1) & 1:
                    c |= through[u]
            clash[v] = c
        every = (1 << len(edge_list)) - 1
        for e in edge_list:
            blocked = 0
            for v in e:
                blocked |= clash[v]
            partners = every & ~blocked
            if partners:
                f = edge_list[(partners & -partners).bit_length() - 1]
                core = tuple(sorted(e + f))
                return FreenessReport(pattern, False, (core, (e, f)))
        return FreenessReport(pattern, True)

    # general path: grow cores around an embedded copy of F
    full = (1 << G.n) - 1
    for image in _candidate_images(G, F, edge_list):
        base = set(image)
        allowed = full
        for v in base:
            allowed &= covered[v] | (1 << (v - 1))
        pool = [
            u
            for u in range(1, G.n + 1)
            if u not in base and allowed >> (u - 1) & 1
        ]
        for extra in itertools.combinations(pool, p - len(base)):
            core = sorted(base | set(extra))
            ok = all(
                covered[a] >> (b - 1) & 1
                for a, b in itertools.combinations(core, 2)
            )
            if ok:
                emb = tuple(
                    tuple(sorted(image[w - 1] for w in e)) for e in sorted(F.edges)
                )
                return FreenessReport(pattern, False, (tuple(core), emb))
    return FreenessReport(pattern, True)


def _candidate_images(G: Hypergraph, F: Hypergraph, edge_list):
    """All injective embeddings of F into G (images as assignment tuples)."""
    host_edges = G.edges

    def rec(assign):
        v = len(assign) + 1
        if v > F.n:
            yield tuple(assign)
            return
        for img in range(1, G.n + 1):
            if img in assign:
                continue
            assign.append(img)
            ok = True
            for e in sorted(F.edges):
                if e[-1] <= v and tuple(sorted(assign[w - 1] for w in e)) not in host_edges:
                    ok = False
                    break
            if ok:
                yield from rec(assign)
            assign.pop()

    yield from rec([])


def is_hom_free(G: Hypergraph, F: Hypergraph, p: int) -> FreenessReport:
    """Freeness from edge-preserving maps of the extension of F to p cores.

    A host admits such a homomorphism exactly when it has a covered p-core
    containing F, so this delegates to the core search; ``hom_search`` is
    the direct (slower) route kept for cross-validation.
    """
    report = is_core_free(G, p, F)
    return FreenessReport(f"hom(p={p})", report.free, report.witness)


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
    hedges = sorted(H.edges)
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
            for e in hedges:
                assigned = [assign[w - 1] for w in e if w <= v]
                if not assigned:
                    continue
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
        masks = [sum(1 << (v - 1) for v in e) for e in self.edges]
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
        disjoint edges.  The lowest edge of such a matching is tried first,
        so each matching is met once."""
        if s <= 1:
            return s <= 0 or pool != 0
        while pool:
            low = pool & -pool
            pool ^= low
            if self.has_matching(pool & self.disjoint[low.bit_length() - 1], s - 1):
                return True
        return False

    def edge_set(self, present):
        """The edges whose indices are the bits of ``present``."""
        return [self.edges[k] for k in _bits(present)]


@functools.lru_cache(maxsize=None)
def _colex_table(n, r) -> _ColexTable:
    """The read-only table for (n, r), built once per process."""
    return _ColexTable(n, r)


def _walk_table(n, r, t, guard) -> _ColexTable:
    """The colex table for a walk over r-graphs on [n] with no t disjoint
    edges, after checking n against the guard and t >= 1."""
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


def _eval_family(args):
    edges, n, r, seed = args
    G = Hypergraph(r, n, frozenset(edges))
    res = maximize(G, SolverConfig(seed=seed))
    return edges, res.value


def extremal_lambda_search(
    n,
    r,
    t,
    jobs: int = 1,
    seed: int = 0,
    guard: int | None = None,
) -> SearchResult:
    """Maximize lambda over all left-compressed free graphs on [n].

    Only maximal families are evaluated: lambda is monotone under
    subgraphs, so the maximum is attained on a maximal family.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    table = _walk_table(n, r, t, guard)
    families = 0
    to_eval = []
    for present, maximal in _walk(table, t):
        families += 1
        if maximal and present:
            to_eval.append(tuple(sorted(table.edge_set(present))))
    to_eval.sort()

    args = [(edges, n, r, seed) for edges in to_eval]
    # bound before any fork, so each worker calls the same (maybe wrapped) solver
    _bind(__name__, "SolverConfig", "maximize")
    if jobs > 1 and len(args) > 1:
        import multiprocessing  # only a forking call pays for the import

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(args))) as pool:
            results = pool.map(_eval_family, args, chunksize=4)
    else:
        results = [_eval_family(a) for a in args]

    best = (-1.0, None)
    best_nonstar = (-1.0, None)
    for edges, value in results:
        if value > best[0] + 1e-12 or (
            abs(value - best[0]) <= 1e-12 and best[1] is not None and edges < best[1]
        ):
            best = (value, edges)
        if not _is_star_subgraph(edges):
            if value > best_nonstar[0] + 1e-12 or (
                abs(value - best_nonstar[0]) <= 1e-12
                and best_nonstar[1] is not None
                and edges < best_nonstar[1]
            ):
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
