from fractions import Fraction

import pytest

from hlag.core import is_left_compressed, uncovered_pairs
from hlag.families import (
    FamilySpec,
    case_family,
    complete,
    complete_lambda,
    extension,
    k53minus2,
    matching,
    split,
    split_part_size,
    star,
    star_lambda,
)
from hlag.freeness import is_matching_free

# transcription freeze: edge counts of the fourteen case families + the star
CASE_EDGE_COUNTS = {
    8: [35, 36, 37, 35, 38, 37, 36, 36, 37, 36, 36, 35, 35, 35, 35],
    10: [48, 53, 72, 60, 66, 60, 66, 64, 72, 61, 66, 68, 70, 75, 84],
}
# which case families are matching-free / left-compressed as *written*;
# the missing ones are proof-case hulls, not globally free objects
MATCHING_FREE_CASES = {1, 4, 12, 13, 14, 15}
LEFT_COMPRESSED_CASES = set(range(1, 16)) - {5}


def test_complete():
    G = complete(7, 4)
    assert G.n == 7 and len(G) == 35
    assert complete(4, 4).edge_list() == [(1, 2, 3, 4)]


def test_matching():
    G = matching(2, 4)
    assert G.n == 8
    assert G.edge_list() == [(1, 2, 3, 4), (5, 6, 7, 8)]
    G3 = matching(3, 3)
    assert G3.n == 9 and len(G3) == 3


def test_star():
    G = star(8, 4)
    assert len(G) == 35  # C(7,3)
    assert all(e[0] == 1 for e in G.edges)


def test_split_sizes():
    assert [split_part_size(n, 4) for n in (8, 12, 16, 20, 24)] == [2, 3, 4, 5, 6]
    S = split(8, 4)
    assert len(S) == 40  # 2 * C(6,3)
    a = split_part_size(8, 4)
    assert all(sum(1 for v in e if v <= a) == 1 for v in [0] for e in S.edges)


def test_split_explicit_part():
    S = split(8, 4, a=3)
    assert len(S) == 3 * 10  # 3 * C(5,3)
    with pytest.raises(ValueError):
        split(8, 4, a=0)
    with pytest.raises(ValueError):
        split(8, 4, a=8)


def test_extension_of_matching_is_pad_cover():
    E = extension(matching(2, 4), 8)
    # 16 uncovered cross pairs, each padded by 2 fresh vertices
    assert E.n == 8 + 16 * 2
    assert len(E) == 2 + 16
    # the pads cover every core pair
    uncovered = set(uncovered_pairs(E))
    assert all(
        (i, j) not in uncovered for i in range(1, 9) for j in range(i + 1, 9)
    )


def test_extension_no_uncovered_pairs_is_identity():
    G = complete(5, 4)
    assert extension(G, 5) == G


def test_k53minus2():
    G = k53minus2()
    assert G.r == 3 and G.n == 5
    assert len(G) == 8  # C(5,3) - 2
    assert (2, 4, 5) not in G.edges and (3, 4, 5) not in G.edges


@pytest.mark.parametrize("n", [8, 10])
def test_case_family_edge_counts(n):
    assert [len(case_family(k, n)) for k in range(1, 16)] == CASE_EDGE_COUNTS[n]


def test_case_family_spot_checks():
    G = case_family(1, 10)
    assert (1, 2, 9, 10) in G.edges
    assert (1, 3, 4, 5) in G.edges and (2, 3, 4, 5) in G.edges
    assert (1, 3, 4, 8) not in G.edges  # extras stop at vertex 7
    assert case_family(15, 9) == star(9, 4)
    # every case family below 15 contains the common {1,2,i,j} layer
    for k in range(1, 15):
        F = case_family(k, 8)
        assert all((1, 2, i, j) in F.edges for i in range(3, 9) for j in range(i + 1, 9))


def test_case_family_statuses():
    for k in range(1, 16):
        F = case_family(k, 8)
        assert is_matching_free(F, 2).free == (k in MATCHING_FREE_CASES)
        assert is_left_compressed(F) == (k in LEFT_COMPRESSED_CASES)


def test_case_family_guards():
    with pytest.raises(ValueError):
        case_family(1, 7)
    with pytest.raises(ValueError):
        case_family(0, 8)
    with pytest.raises(ValueError):
        case_family(16, 8)


def test_star_lambda_formula():
    assert star_lambda(8) == Fraction(9 * 6 * 5, 512 * 49)
    assert star_lambda(4) == Fraction(9 * 2 * 1, 512 * 9)


def test_complete_lambda_formula():
    assert complete_lambda(7, 4) == Fraction(5, 343)
    assert complete_lambda(4, 3) == Fraction(1, 16)


def test_family_spec_builds():
    assert FamilySpec("star", n=8).build() == star(8, 4)
    assert FamilySpec("complete", n=7).build() == complete(7, 4)
    assert FamilySpec("matching", n=0, t=2).build() == matching(2, 4)
    assert FamilySpec("split", n=8).build() == split(8, 4)
    assert FamilySpec("case3", n=9).build() == case_family(3, 9)
    assert FamilySpec("k53minus2", n=5).build() == k53minus2()
    with pytest.raises(ValueError):
        FamilySpec("nonsense", n=8).build()
