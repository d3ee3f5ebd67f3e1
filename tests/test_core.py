import itertools
import random

import pytest

from hlag.core import (
    Hypergraph,
    _uncovered,
    blowup,
    covers_pairs,
    degree,
    equivalent,
    induced,
    is_left_compressed,
    link,
    link_diff,
    min_degree,
    same_links,
    uncovered_pairs,
)
from hlag.families import (
    case_family,
    complete,
    extension,
    k53minus2,
    matching,
    split,
    star,
)
from hlag.freeness import enumerate_left_compressed_free


def test_hypergraph_basics():
    G = Hypergraph.from_edges(3, 5, [(3, 1, 2), (2, 4, 5)])
    assert G.r == 3 and G.n == 5
    assert len(G) == 2
    assert (1, 2, 3) in G.edges
    assert G.edge_list() == [(1, 2, 3), (2, 4, 5)]
    assert list(G.vertices) == [1, 2, 3, 4, 5]


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(4, 5, frozenset({(1, 2, 3)}))  # wrong arity
    with pytest.raises(ValueError):
        Hypergraph(3, 4, frozenset({(2, 3, 5)}))  # vertex out of range
    with pytest.raises(ValueError):
        Hypergraph(3, 4, frozenset({(0, 1, 2)}))  # labels are 1-based
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 5, [(1, 2, 2)])  # repeated vertex


def test_empty_graph_allowed():
    G = Hypergraph(4, 6, frozenset())
    assert len(G) == 0
    assert min_degree(G) == 0


def test_link_of_star_center():
    # link at the center of a star is the complete (r-1)-graph on the leaves
    L = link(star(6, 4), (1,))
    assert L.r == 3
    assert len(L) == 10  # C(5,3)
    assert all(1 not in e for e in L.edges)


def test_link_of_pair():
    L = link(complete(7, 4), (1, 2))
    assert L.r == 2
    assert len(L) == 10  # C(5,2)


def test_link_diff_star():
    # L(1\2) in the star: all 3-sets of leaves other than 2; L(2\1) is empty
    assert len(link_diff(star(6, 4), 1, 2)) == 4
    assert link_diff(star(6, 4), 2, 1) == frozenset()


def test_induced_relabels():
    H, relabel = induced(complete(7, 4), {2, 3, 4, 5, 6})
    assert H.n == 5 and len(H) == 5
    assert relabel == {2: 1, 3: 2, 4: 3, 5: 4, 6: 5}


def test_covers_pairs():
    assert covers_pairs(complete(5, 4))
    assert covers_pairs(star(6, 4))
    assert not covers_pairs(matching(2, 4))


def test_uncovered_pairs_of_matching():
    pairs = sorted(uncovered_pairs(matching(2, 4)))
    assert len(pairs) == 16
    assert pairs[0] == (1, 5)
    assert all(i <= 4 < j for i, j in pairs)


def _uncovered_by_definition(edges, vs):
    return [
        (a, b) for a, b in itertools.combinations(vs, 2)
        if not any(a in e and b in e for e in edges)
    ]


def test_uncovered_routine_matches_the_definition():
    # a pair of the queried set is uncovered iff no edge holds both, however
    # much of each edge lies outside the set
    rng = random.Random(22)
    found = set()
    for _ in range(400):
        n, r = rng.randint(2, 9), rng.randint(2, 4)
        pool = list(itertools.combinations(range(1, n + 1), min(r, n)))
        p = rng.random()
        edges = [e for e in pool if rng.random() < p]
        vs = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        got = _uncovered(edges, vs)
        assert got == _uncovered_by_definition(edges, vs), (edges, vs)
        found.add(bool(got))
    # sorted class-index term rows that may repeat an index, all of them or
    # only those inside the support, as support enumeration passes them
    for _ in range(400):
        k, r = rng.randint(1, 6), rng.randint(2, 4)
        rows = [
            tuple(sorted(rng.randrange(k) for _ in range(r)))
            for _ in range(rng.randint(0, 8))
        ]
        S = sorted(rng.sample(range(k), rng.randint(1, k)))
        for terms in (rows, [t for t in rows if set(t) <= set(S)]):
            got = _uncovered(terms, S)
            assert got == _uncovered_by_definition(terms, S), (terms, S)
            found.add(bool(got))
    assert found == {False, True}


def test_blowup_identity_and_sizes():
    G = complete(4, 4)
    assert blowup(G, [1, 1, 1, 1]) == G
    B = blowup(G, [2, 1, 1, 1])
    assert B.n == 5
    assert sorted(B.edges) == [(1, 3, 4, 5), (2, 3, 4, 5)]


def test_blowup_of_star_is_split():
    # blowing the star center into a class of size a gives the split graph
    a = 2
    B = blowup(star(7, 4), [a, 1, 1, 1, 1, 1, 1])
    S = split(8, 4, a=a)
    assert B.n == S.n and len(B) == len(S)
    assert B.edges == S.edges


def test_degrees():
    G = star(8, 4)
    assert degree(G, 1) == 35  # C(7,3)
    assert degree(G, 2) == 15  # C(6,2)
    assert min_degree(G) == 15


def test_same_links_vs_equivalent():
    # star leaves have symmetric links but share edges, so they are not
    # equivalent; the two split classes are uncovered and equivalent
    G = star(6, 4)
    assert same_links(G, 2, 3)
    assert not equivalent(G, 2, 3)
    S = split(8, 4)  # part size 2: A = {1, 2}
    assert equivalent(S, 1, 2)
    assert not equivalent(S, 1, 3)


def test_equivalence_is_symmetric():
    S = split(8, 4)
    assert equivalent(S, 2, 1) == equivalent(S, 1, 2)


def _is_left_compressed_all_pairs(G):
    """Reference: every edge stays an edge when any vertex is swapped for
    any smaller vertex outside it."""
    for e in G.edges:
        se = set(e)
        for v in e:
            rest = se - {v}
            for u in range(1, v):
                if u not in se and tuple(sorted(rest | {u})) not in G.edges:
                    return False
    return True


def test_is_left_compressed_single_steps_match_all_pairs():
    rng = random.Random(12)
    graphs = []
    # every walk family for n <= 8, and each with one random edge removed
    for r in (3, 4):
        for n in range(r, 9):
            for F in enumerate_left_compressed_free(n, r, 2):
                graphs.append(Hypergraph(r, n, F))
                if F:
                    graphs.append(Hypergraph(r, n, F - {rng.choice(sorted(F))}))
    # seeded random graphs of every density
    for r in (3, 4):
        for n in range(r, 9):
            pool = list(itertools.combinations(range(1, n + 1), r))
            for _ in range(40):
                p = rng.random()
                graphs.append(Hypergraph(r, n, {e for e in pool if rng.random() < p}))
    # named families
    graphs += [star(8, 4), complete(7, 4), complete(6, 3), k53minus2()]
    graphs += [split(8, 4), matching(2, 4), extension(complete(5, 3), 7)]
    graphs += [case_family(k, n) for k in range(1, 16) for n in (8, 10)]
    answers = [is_left_compressed(G) for G in graphs]
    assert answers == [_is_left_compressed_all_pairs(G) for G in graphs]
    assert 0 < sum(answers) < len(answers)
