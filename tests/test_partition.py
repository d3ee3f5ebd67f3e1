import random

import pytest

from hlag.core import Hypergraph
from hlag.errors import UnsupportedSizeError
from hlag.families import complete, split, split_part_size
from hlag.partition import classify_edges, min_sigma_partition, sigma_score


def test_sigma_complete_8():
    # W1 = {1,2}: 15 edges inside W2 and 15 edges meeting W1 twice
    assert sigma_score(complete(8, 4), [1, 2]) == 30


def test_sigma_split_at_its_own_part_is_zero():
    for n in (8, 12):
        a = split_part_size(n, 4)
        assert sigma_score(split(n, 4), range(1, a + 1)) == 0


def test_sigma_empty_side():
    G = split(8, 4)
    # W1 empty: every edge lies inside W2 and scores 1
    assert sigma_score(G, []) == len(G)
    # W1 everything: every edge scores 3
    assert sigma_score(G, range(1, 9)) == 3 * len(G)


def test_classify_edges_counts():
    score = classify_edges(complete(8, 4), [1, 2])
    assert score.w1 == (1, 2)
    assert score.w2 == tuple(range(3, 9))
    assert score.good == 40  # edges meeting W1 exactly once
    assert score.bad == 30  # 15 inside W2 + 15 meeting W1 twice
    assert score.very_bad == 0 and score.worst == 0
    assert score.sigma == 30


def test_classify_edges_very_bad_and_worst():
    score = classify_edges(complete(8, 4), [1, 2, 3, 4, 5])
    # |e ∩ W1| = 3 -> very bad (weight 2); = 4 -> worst (weight 3)
    assert score.very_bad == 30  # C(5,3)*C(3,1)
    assert score.worst == 5  # C(5,4)
    assert score.sigma == 1 * score.bad + 2 * 30 + 3 * 5


def test_classify_requires_valid_w1():
    with pytest.raises(ValueError):
        classify_edges(split(8, 4), [0, 1])
    with pytest.raises(ValueError):
        classify_edges(Hypergraph(3, 6, frozenset()), [1])  # r must be 4


def test_min_sigma_heuristic_recovers_split():
    res = min_sigma_partition(split(12, 4), seed=0)
    assert res.score.sigma == 0
    assert res.score.w1 == tuple(range(1, split_part_size(12, 4) + 1))
    assert not res.exhaustive


def test_min_sigma_exhaustive_recovers_split():
    for n in (8, 12):
        res = min_sigma_partition(split(n, 4), exhaustive=True)
        a = split_part_size(n, 4)
        assert res.score.sigma == 0
        assert res.score.w1 == tuple(range(1, a + 1))
        assert res.exhaustive


def test_exhaustive_guard():
    with pytest.raises(UnsupportedSizeError):
        min_sigma_partition(split(24, 4), exhaustive=True)


def test_min_sigma_perturbed_split_stays_small():
    import itertools

    rng = random.Random(1)
    G = split(12, 4)
    pool = [
        e
        for e in itertools.combinations(range(1, 13), 4)
        if e not in G.edges
    ]
    extra = rng.sample(pool, 3)
    H = Hypergraph(4, 12, G.edges | frozenset(extra))
    res = min_sigma_partition(H, exhaustive=True)
    assert res.score.sigma <= 3


def test_min_sigma_deterministic():
    a = min_sigma_partition(split(12, 4), seed=5)
    b = min_sigma_partition(split(12, 4), seed=5)
    assert a == b


def test_sigma_zero_iff_split_shape():
    # zero sigma means every edge meets W1 exactly once
    G = split(8, 4)
    res = min_sigma_partition(G, exhaustive=True)
    w1 = set(res.score.w1)
    assert all(len(w1 & set(e)) == 1 for e in G.edges)


@pytest.mark.parametrize("restarts", [0, -2])
def test_restarts_below_one_rejected(restarts):
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        min_sigma_partition(split(8, 4), restarts=restarts)
