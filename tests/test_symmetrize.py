import dataclasses

import pytest

from hlag.core import Hypergraph, blowup
from hlag.errors import NotFreeError
from hlag.families import complete, split, star
from hlag.symmetrize import (
    PointedHypergraph,
    audit,
    clean,
    initial_pointed,
    merge,
    symmetrize,
)


def star_blowup(n, base_n=6):
    sizes = [n // base_n + (1 if i <= n % base_n else 0) for i in range(1, base_n + 1)]
    return blowup(star(base_n, 4), sizes)


def test_initial_pointed_is_singleton_partition():
    PG = initial_pointed(split(8, 4))
    assert PG.parts == tuple((v,) for v in range(1, 9))
    assert PG.reps == tuple(range(1, 9))
    assert PG.edge_count() == 40


def test_clean_deletes_everything_under_small_alpha():
    # at n=12 the star's leaf degree C(10,2)=45 sits below (9/128-0.01)*12^3,
    # so the cascade removes every vertex; that is the documented behavior
    out, removed = clean(initial_pointed(star(12, 4)), 0.01)
    assert len(out.vertices) == 0
    assert len(removed) == 12


def test_clean_noop_under_large_alpha():
    out, removed = clean(initial_pointed(star(12, 4)), 0.08)
    assert removed == ()
    assert len(out.vertices) == 12


def test_clean_fixed_n_threshold():
    out, removed = clean(initial_pointed(star(12, 4)), 0.01, fixed_n=5)
    assert removed == ()


def test_merge_split_pair():
    M, detail = merge(initial_pointed(split(8, 4)))
    assert detail["pair"] == (1, 2)
    assert detail["survivor"] == 1  # degree tie broken towards the lower label
    assert detail["absorbed"] == 2
    assert M.edge_count() == 40  # re-blowup of the star base restores the count
    assert M.parts[0] == (1, 2)


def test_merge_identity_when_pairs_covered():
    M, detail = merge(initial_pointed(complete(6, 4)))
    assert detail is None
    assert M.edge_count() == 15


def test_symmetrize_trace_shape():
    tr = symmetrize(split(12, 4), alpha=0.05)
    assert tr.alpha == 0.05
    assert tr.input_n == 12
    kinds = [s.kind for s in tr.steps]
    assert kinds[0] == "clean"
    assert "merge" in kinds
    states = tr.states()
    assert states[0] == tr.initial
    assert states[-1] == tr.final
    assert len(states) == len(tr.steps) + 1


def test_symmetrize_split_merges_whole_part():
    tr = symmetrize(split(12, 4), alpha=0.05)
    # the three interchangeable vertices collapse into one part
    assert max(len(p) for p in tr.final.parts) == 3
    assert tr.final.edge_count() == len(split(12, 4))


def test_symmetrize_small_alpha_empties():
    tr = symmetrize(star(12, 4), alpha=0.01)
    assert len(tr.final.vertices) == 0
    rep = audit(tr)
    assert all(c.ok for c in rep.checks)
    assert rep.final_vertex_fraction == 0.0


def test_symmetrize_refuses_unfree_input():
    with pytest.raises(NotFreeError) as ei:
        symmetrize(complete(8, 4), alpha=0.05)
    assert ei.value.witness is not None


def test_symmetrize_check_free_opt_out():
    tr = symmetrize(complete(8, 4), alpha=0.08, check_free=False)
    assert tr.final.edge_count() >= 0  # runs to completion


def test_symmetrize_argument_validation():
    with pytest.raises(ValueError):
        symmetrize(split(12, 4), alpha=0.0)
    with pytest.raises(ValueError):
        symmetrize(split(12, 3) if False else Hypergraph(3, 6, frozenset()), alpha=0.05)


@pytest.mark.parametrize(
    "G,alpha",
    [
        (split(12, 4), 0.05),
        (split(16, 4), 0.05),
        (split(16, 4), 0.01),
        (star_blowup(14), 0.065),
    ],
)
def test_audit_clean_on_real_traces(G, alpha):
    rep = audit(symmetrize(G, alpha=alpha))
    assert all(c.ok for c in rep.checks)
    assert rep.alpha == alpha


def test_audit_flags_removed_edge():
    tr = symmetrize(split(12, 4), alpha=0.05)
    edges = sorted(tr.final.edges)
    cut = dataclasses.replace(tr.final, edges=frozenset(edges[1:]))
    bad = dataclasses.replace(
        tr,
        final=cut,
        steps=tr.steps[:-1] + (dataclasses.replace(tr.steps[-1], state=cut),),
    )
    failed = {c.name for c in audit(bad).checks if not c.ok}
    assert "blowup-idempotent" in failed


def test_audit_flags_intra_part_edge():
    tr = symmetrize(split(12, 4), alpha=0.05)
    part = next(p for p in tr.final.parts if len(p) > 1)
    others = sorted(tr.final.vertices - set(part))[-2:]
    bad_edge = tuple(sorted((part[0], part[1], *others)))
    cut = dataclasses.replace(tr.final, edges=tr.final.edges | {bad_edge})
    bad = dataclasses.replace(
        tr,
        final=cut,
        steps=tr.steps[:-1] + (dataclasses.replace(tr.steps[-1], state=cut),),
    )
    failed = {c.name for c in audit(bad).checks if not c.ok}
    assert "edges-transversal" in failed


def test_audit_vacuous_on_trivial_trace():
    # nothing to clean or merge: complete coverage, high alpha
    tr = symmetrize(star(10, 4), alpha=0.08)
    rep = audit(tr)
    assert all(c.ok for c in rep.checks)


def test_pointed_hypergraph_validation():
    with pytest.raises(ValueError):
        PointedHypergraph(
            4,
            frozenset({1, 2, 3, 4}),
            frozenset({(1, 2, 3, 4)}),
            ((1, 2), (3,)),  # parts do not cover vertex 4
        )


def test_perturbed_split_still_audits():
    import random

    rng = random.Random(7)
    G = split(16, 4)
    keep = [e for e in sorted(G.edges) if rng.random() >= 0.05]
    H = Hypergraph(4, 16, frozenset(keep))
    rep = audit(symmetrize(H, alpha=0.05))
    assert all(c.ok for c in rep.checks)
