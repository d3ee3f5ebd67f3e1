import random

import pytest

from hlag.compression import compress_pair, dense_and_compress, potential
from hlag.core import Hypergraph, is_left_compressed, link_diff
from hlag.errors import NotFreeError
from hlag.families import case_family, complete, k53minus2, split, star
from hlag.freeness import is_matching_free
from hlag.solver import maximize


def _random_free_graph(n, r, t, density, seed):
    import itertools

    rng = random.Random(seed)
    edges = []
    for e in sorted(itertools.combinations(range(1, n + 1), r)):
        if rng.random() >= density:
            continue
        if is_matching_free(Hypergraph(r, n, frozenset(edges + [e])), t).free:
            edges.append(e)
    return Hypergraph(r, n, frozenset(edges))


def test_compress_pair_moves_edges():
    G = Hypergraph.from_edges(3, 6, [(1, 2, 3), (2, 4, 5), (3, 4, 6), (4, 5, 6)])
    H = compress_pair(G, 1, 4)
    # every L(4\1) edge re-homed to vertex 1
    assert (1, 5, 6) in H.edges
    assert (4, 5, 6) not in H.edges
    assert len(H) == len(G)


def test_compress_pair_size_always_preserved():
    G = _random_free_graph(8, 4, 2, 0.6, seed=5)
    for i in range(1, 8):
        for j in range(i + 1, 9):
            assert len(compress_pair(G, i, j)) == len(G)


def test_compress_pair_empties_link_diff():
    G = _random_free_graph(7, 3, 2, 0.7, seed=9)
    H = compress_pair(G, 2, 6)
    assert link_diff(H, 6, 2) == frozenset()


def test_potential_decreases_under_compression():
    G = Hypergraph.from_edges(3, 6, [(1, 2, 3), (2, 4, 5), (3, 4, 6), (4, 5, 6)])
    H = compress_pair(G, 1, 4)
    assert potential(H) < potential(G)


def test_is_left_compressed_known_families():
    assert is_left_compressed(star(8, 4))
    assert is_left_compressed(complete(7, 4))
    assert is_left_compressed(k53minus2())
    # the split graph and the fifth case family genuinely are not
    assert not is_left_compressed(split(8, 4))
    assert not is_left_compressed(case_family(5, 8))


def test_dense_and_compress_reaches_fixed_point():
    G = _random_free_graph(8, 4, 2, 0.5, seed=3)
    final, res, trace = dense_and_compress(G, 2)
    assert is_left_compressed(final)
    assert is_matching_free(final, 2).free
    # compression and densification never lose Lagrangian value
    v0 = maximize(G).value
    assert res.value >= v0 - 1e-9
    assert trace.final_value == pytest.approx(res.value, abs=1e-12)
    assert trace.initial is G and trace.final == final


def test_dense_and_compress_fixed_point_is_idempotent():
    G = _random_free_graph(8, 4, 2, 0.5, seed=3)
    final, _, _ = dense_and_compress(G, 2)
    again, _, trace = dense_and_compress(final, 2)
    assert again == final
    assert trace.steps == ()


def test_dense_and_compress_star_untouched():
    final, res, trace = dense_and_compress(star(8, 4), 2)
    assert final == star(8, 4)
    assert trace.steps == ()


def test_dense_and_compress_refuses_matchings():
    with pytest.raises(NotFreeError) as ei:
        dense_and_compress(complete(8, 4), 2)
    w = ei.value.witness
    assert len(w) == 2
    assert set(w[0]).isdisjoint(w[1])


def test_trace_step_values_monotone():
    G = _random_free_graph(9, 4, 2, 0.45, seed=12)
    final, res, trace = dense_and_compress(G, 2)
    values = [trace.initial_value] + [
        s.value for s in trace.steps if s.value
    ] + [trace.final_value]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
