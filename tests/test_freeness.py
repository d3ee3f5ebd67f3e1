import itertools
import random

import pytest

from hlag.core import Hypergraph, is_left_compressed
from hlag.errors import UnsupportedSizeError
from hlag.families import complete, extension, matching, split, star
from hlag.freeness import (
    _max_matching,
    _walk,
    _walk_table,
    enumerate_left_compressed_free,
    extremal_lambda_search,
    hom_search,
    is_core_free,
    is_matching_free,
    matching_number,
)
from hlag.solver import maximize

# enumeration freeze, cross-checked pre-build by brute force at n=5
FAMILY_COUNTS = {5: 6, 6: 32, 7: 352, 8: 3978}
# maximal ones among them: below n = 8 only the complete 4-graph
MAXIMAL_COUNTS = {5: 1, 6: 1, 7: 1, 8: 72}


def test_matching_number():
    assert matching_number(Hypergraph(4, 8, frozenset())) == 0
    assert matching_number(star(10, 4)) == 1
    assert matching_number(complete(8, 4)) == 2
    assert matching_number(complete(12, 4)) == 3
    assert matching_number(matching(3, 3)) == 3


def test_is_matching_free():
    rep = is_matching_free(star(9, 4), 2)
    assert rep.free and rep.witness is None
    assert rep.pattern == "matching(t=2,r=4)"

    rep = is_matching_free(complete(8, 4), 2)
    assert not rep.free
    e1, e2 = rep.witness
    assert e1 in complete(8, 4).edges and e2 in complete(8, 4).edges
    assert set(e1).isdisjoint(e2)


def test_split_contains_matchings_but_no_covered_core():
    # the split graph has plenty of 2-matchings; what it lacks is an 8-core
    # with all pairs covered around one, which is the freeness that matters
    for n in (8, 12):
        assert not is_matching_free(split(n, 4), 2).free
        assert is_core_free(split(n, 4), 8, matching(2, 4)).free


def test_is_core_free_basic():
    M2 = matching(2, 4)
    assert is_core_free(star(12, 4), 8, M2).free
    rep = is_core_free(complete(8, 4), 8, M2)
    assert not rep.free
    core, edges = rep.witness
    assert len(core) == 8 and len(edges) == 2
    assert all(set(e) <= set(core) for e in edges)


def test_extension_contains_its_own_core():
    M2 = matching(2, 4)
    E = extension(M2, 8)  # the 8-core 4-graph the freeness check targets
    rep = is_core_free(E, 8, M2)
    assert not rep.free


def test_split_and_star_are_core_free():
    M2 = matching(2, 4)
    assert is_core_free(split(12, 4), 8, M2).free
    assert is_core_free(star(16, 4), 8, M2).free


def _first_covered_disjoint_pair(G):
    """Brute force: the first edge e (in edge-list order) with a disjoint
    edge f whose every pair with e is covered, and the first such f."""
    covered = set()
    for e in G.edges:
        covered.update(itertools.combinations(e, 2))
    edges = G.edge_list()
    for e in edges:
        for f in edges:
            if set(e).isdisjoint(f) and all(
                tuple(sorted((a, b))) in covered for a in e for b in f
            ):
                return e, f
    return None


@pytest.mark.parametrize("n,m,planted", [
    (12, 40, ()),
    (12, 120, ()),
    (63, 250, ()),
    (63, 250, (2, 9, 17, 30, 41, 50, 58, 63)),
    (64, 250, ()),
    (64, 250, (5, 12, 33, 47, 60, 62, 63, 64)),
    (80, 300, ()),
    (80, 300, (64, 66, 69, 71, 74, 76, 78, 80)),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_core_free_matches_brute_force(n, m, planted, seed):
    rng = random.Random(f"core-free:{n}:{m}:{seed}")
    edges = set(itertools.combinations(planted, 4))
    target = len(edges) + m
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 4))))
    G = Hypergraph(4, n, frozenset(edges))
    rep = is_core_free(G, 8, matching(2, 4))
    pair = _first_covered_disjoint_pair(G)
    if pair is None:
        assert rep.free and rep.witness is None
    else:
        e, f = pair
        assert not rep.free
        assert rep.witness == (tuple(sorted(e + f)), (e, f))


# (r, t, p): the theorem's M_2^4 at p = 2r and beyond it, single edges, and
# matchings of up to three edges in 3-graphs; the last two need at least two
# core vertices outside the edges, which must be covered with each other
CORE_CASES = [(3, 1, 3), (3, 1, 4), (3, 2, 6), (3, 2, 7), (3, 3, 9), (4, 2, 8),
              (4, 2, 9), (4, 1, 5), (3, 1, 5), (4, 1, 7)]


def test_core_free_matches_hom_search_for_any_matching():
    # 40 seeded hosts per case; hom_search takes n <= 10
    free = 0
    for r, t, p in CORE_CASES:
        rng = random.Random(f"core-hom:{r}:{t}:{p}")
        F = matching(t, r)
        for _ in range(40):
            n = rng.randint(p, 10)
            every = list(itertools.combinations(range(1, n + 1), r))
            G = Hypergraph(r, n, frozenset(rng.sample(every, rng.randint(1, len(every)))))
            rep = is_core_free(G, p, F)
            assert rep.free == (hom_search(G, F, p) is None), (r, t, p, G)
            free += rep.free
            if rep.free:
                continue
            # p pairwise-covered vertices holding t disjoint host edges
            core, edges = rep.witness
            covered = {pair for e in G.edges for pair in itertools.combinations(e, 2)}
            assert list(core) == sorted(set(core)) and len(core) == p
            assert all(pair in covered for pair in itertools.combinations(core, 2))
            assert len(edges) == t and all(e in G.edges for e in edges)
            held = [v for e in edges for v in e]
            assert len(set(held)) == r * t and set(held) <= set(core)
    assert free >= 20


@pytest.mark.parametrize("G,p,F,core", [
    (split(12, 4), 9, matching(2, 4), None),
    (star(12, 4), 12, matching(3, 4), None),
    (complete(12, 4), 12, matching(3, 4), tuple(range(1, 13))),
    (complete(9, 4), 9, matching(2, 4), tuple(range(1, 10))),
], ids=["split12-p9", "star12-M3-p12", "complete12-M3-p12", "complete9-p9"])
def test_core_free_beyond_two_edges_and_p_2r(G, p, F, core):
    rep = is_core_free(G, p, F)
    assert rep.free == (core is None)
    if core is not None:
        assert rep.witness[0] == core
        assert rep.witness[1] == tuple(sorted(F.edges))


def test_core_free_refuses_a_pattern_that_is_not_a_matching():
    path = Hypergraph(4, 7, frozenset({(1, 2, 3, 4), (4, 5, 6, 7)}))
    with pytest.raises(ValueError, match="must be a matching"):
        is_core_free(complete(9, 4), 8, path)
    # isolated vertices are fine: the core only has to be large enough
    padded = Hypergraph(4, 10, matching(2, 4).edges)
    assert is_core_free(complete(10, 4), 10, padded).witness[0] == tuple(range(1, 11))


def test_hom_search_cross_validation():
    M2 = matching(2, 4)
    m = hom_search(complete(8, 4), M2, 8)
    assert m is not None
    # core vertices 1..8 must be injective and every 2-matching edge present
    assert len(set(m[:8])) == 8
    assert hom_search(star(9, 4), M2, 8) is None


def test_hom_search_guard():
    with pytest.raises(UnsupportedSizeError):
        hom_search(star(11, 4), matching(2, 4), 8)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_enumeration_counts(n):
    families = list(enumerate_left_compressed_free(n, 4, 2))
    assert len(families) == FAMILY_COUNTS[n]
    assert len(set(families)) == len(families)  # no duplicates


def test_enumeration_members_are_free_and_compressed():
    for edges in enumerate_left_compressed_free(6, 4, 2):
        G = Hypergraph(4, 6, frozenset(edges))
        assert is_left_compressed(G)
        assert is_matching_free(G, 2).free


def test_enumeration_guard():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_left_compressed_free(10, 4, 2))


def test_search_guard():
    with pytest.raises(UnsupportedSizeError, match="--unsafe-size"):
        extremal_lambda_search(10, 4, 2)


@pytest.mark.parametrize("t", [0, -1])
def test_matching_size_below_one_is_rejected(t):
    # is_matching_free(G, 0) calls every graph not free, so no family is
    with pytest.raises(ValueError):
        list(enumerate_left_compressed_free(7, 4, t))
    with pytest.raises(ValueError):
        extremal_lambda_search(7, 4, t)


@pytest.mark.parametrize("r", [0, -2])
def test_uniformity_below_one_is_rejected(r):
    # an r-graph needs r >= 1, so the walk refuses before it builds a table
    with pytest.raises(ValueError, match=f"got r={r}"):
        list(enumerate_left_compressed_free(5, r, 2))
    with pytest.raises(ValueError, match=f"got r={r}"):
        extremal_lambda_search(5, r, 2)


def test_search_n7_max_is_complete():
    res = extremal_lambda_search(7, 4, 2)
    assert res.families == 352
    assert res.evaluated == 1  # a single maximal family at n=7
    assert res.witness.edges == complete(7, 4).edges
    assert res.max_value == pytest.approx(5 / 343, abs=1e-9)
    assert not res.witness_is_star_subgraph


def test_search_n5():
    res = extremal_lambda_search(5, 4, 2)
    assert res.families == 6
    assert res.max_value == pytest.approx(5 / 625, abs=1e-9)  # K_5^4


def test_search_n9_counts():
    res = extremal_lambda_search(9, 4, 2)
    assert (res.families, res.evaluated) == (37145, 72)


def test_search_n10_past_the_guard():
    res = extremal_lambda_search(10, 4, 2, guard=10)
    assert (res.families, res.evaluated) == (299819, 72)
    assert res.max_nonstar_value == pytest.approx(5 / 343, abs=1e-9)


def test_search_all_families_mode():
    # the maximal-only search loses nothing against solving every family
    families = [f for f in enumerate_left_compressed_free(6, 4, 2) if f]
    assert len(families) == 31  # everything but the empty family
    best = max(maximize(Hypergraph(4, 6, f)).value for f in families)
    res = extremal_lambda_search(6, 4, 2)
    assert res.evaluated < len(families)
    assert res.max_value == pytest.approx(best, abs=1e-9)


def _maximal_by_definition(edges, n, r=4, t=2):
    # no edge outside keeps F + e left-compressed and t-matching-free
    for e in itertools.combinations(range(1, n + 1), r):
        if e in edges:
            continue
        G = Hypergraph(r, n, edges | {e})
        if is_left_compressed(G) and is_matching_free(G, t).free:
            return False
    return True


def _walk_families(n, r, t, guard=None):
    table = _walk_table(n, r, t, guard)
    return [
        (frozenset(table.edge_set(present)), maximal)
        for present, maximal in _walk(table, t)
    ]


# below n = 8 no two 4-sets are disjoint, so only n = 8 tests the matching
# half of the definition
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_is_maximal_matches_definition(n):
    maximal = 0
    for edges, verdict in _walk_families(n, 4, 2):
        assert verdict == _maximal_by_definition(edges, n)
        maximal += verdict
    assert maximal == MAXIMAL_COUNTS[n]


# the matching test recurses past one level once t >= 3
@pytest.mark.parametrize("n,r,t", [(6, 2, 3), (7, 3, 2), (7, 3, 3), (8, 2, 4)])
def test_maximal_flag_matches_definition_for_any_r_and_t(n, r, t):
    families = _walk_families(n, r, t)
    assert any(maximal for _, maximal in families)
    for edges, verdict in families:
        assert verdict == _maximal_by_definition(edges, n, r, t)


class _SeedTable:
    """Reference: the colex table of the recursive enumerator the walk
    replaced, with vertex masks and a matching search per edge."""

    def __init__(self, n, r):
        self.n, self.r = n, r
        self.edges = tuple(sorted(
            itertools.combinations(range(1, n + 1), r), key=lambda e: e[::-1]
        ))
        index = {e: k for k, e in enumerate(self.edges)}
        self.masks = tuple(sum(1 << (v - 1) for v in e) for e in self.edges)
        preds = []
        for e in self.edges:
            se = set(e)
            bits = 0
            for v in e:
                if v - 1 >= 1 and v - 1 not in se:
                    bits |= 1 << index[tuple(sorted(se - {v} | {v - 1}))]
            preds.append(bits)
        self.preds = tuple(preds)

    def addable(self, k, present, chosen_masks, t):
        if self.preds[k] & ~present:
            return False
        avail = [mk for mk in chosen_masks if mk & self.masks[k] == 0]
        size, _ = _max_matching(avail, self.n, self.r, stop_at=t - 1)
        return size < t - 1


def _seed_enumerate(table, t):
    def rec(start, chosen, present, chosen_masks):
        for k in range(start, len(table.edges)):
            if not table.addable(k, present, chosen_masks, t):
                continue
            yield from rec(k + 1, chosen, present, chosen_masks)
            chosen.append(table.edges[k])
            chosen_masks.append(table.masks[k])
            yield from rec(k + 1, chosen, present | 1 << k, chosen_masks)
            chosen.pop()
            chosen_masks.pop()
            return
        yield frozenset(chosen)

    yield from rec(0, [], 0, [])


def _seed_is_maximal(table, edges, t):
    present, chosen_masks = 0, []
    for k, e in enumerate(table.edges):
        if e in edges:
            present |= 1 << k
            chosen_masks.append(table.masks[k])
    return not any(
        not present >> k & 1 and table.addable(k, present, chosen_masks, t)
        for k in range(len(table.edges))
    )


@pytest.mark.parametrize("n,r,t", [(8, 4, 2), (7, 3, 2), (8, 3, 3), (8, 4, 3), (9, 3, 3)])
def test_walk_matches_recursive_enumerator(n, r, t):
    table = _SeedTable(n, r)
    expected = [
        (edges, _seed_is_maximal(table, edges, t))
        for edges in _seed_enumerate(table, t)
    ]
    assert _walk_families(n, r, t) == expected


def test_search_nonstar_sentinel_at_n4():
    # at n=4 the only nonempty family is one edge, which is a star subgraph
    res = extremal_lambda_search(4, 4, 2)
    assert res.witness_is_star_subgraph
    assert res.nonstar_witness is None


def test_search_does_no_vertex_level_work(monkeypatch):
    # each family goes to the solver as its class quotient: no per-family
    # graph, left-compression test, vertex-level value or KKT residual;
    # the two graphs built are the witnesses
    import hlag.solver

    calls = {"kkt_residual": 0, "evaluate": 0, "is_left_compressed": 0, "Hypergraph": 0}
    for name in ("kkt_residual", "evaluate", "is_left_compressed"):
        real = getattr(hlag.solver, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(hlag.solver, name, counted)
    post_init = Hypergraph.__post_init__

    def counted_post_init(self):
        calls["Hypergraph"] += 1
        post_init(self)

    monkeypatch.setattr(Hypergraph, "__post_init__", counted_post_init)
    res = extremal_lambda_search(8, 4, 2)
    assert res.evaluated == 72
    assert calls.pop("Hypergraph") <= 2
    assert calls == {"kkt_residual": 0, "evaluate": 0, "is_left_compressed": 0}
