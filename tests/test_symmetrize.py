import dataclasses
import importlib
from collections import defaultdict

import pytest

from hlag.core import Hypergraph, _blow, _relabel, blowup
from hlag.errors import NotFreeError
from hlag.families import complete, matching, split, star
from hlag.freeness import is_core_free
from hlag.symmetrize import (
    DENSITY_COEFF,
    AuditCheck,
    AuditReport,
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


def test_degrees_are_computed_once_per_state():
    # a clean that removes nothing hands its input to merge, which reads
    # the same state's degrees again
    PG = initial_pointed(split(8, 4))
    cleaned, removed = clean(PG, 0.08)
    assert cleaned is PG and removed == ()
    degs = PG.degrees()
    assert merge(cleaned)[1]["survivor_degree"] == degs[1] == 20
    assert PG.degrees() is degs
    with pytest.raises(TypeError):
        degs[1] = 0
    # the cache is not a field: a fresh equal state compares equal
    assert PG == initial_pointed(split(8, 4))


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


def test_symmetrize_argument_validation():
    with pytest.raises(ValueError):
        symmetrize(split(12, 4), alpha=0.0)
    with pytest.raises(ValueError):
        symmetrize(split(12, 3) if False else Hypergraph(3, 6, frozenset()), alpha=0.05)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_symmetrize_rejects_alpha_of_one_or_more(alpha):
    # the target vertex fraction 1 - alpha must be positive
    with pytest.raises(ValueError, match="alpha must lie in"):
        symmetrize(split(12, 4), alpha=alpha)


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
    tr = symmetrize(G, alpha=alpha)
    rep = audit(tr)
    assert all(c.ok for c in rep.checks)
    assert rep.alpha == alpha
    assert rep == _reference_audit(tr)


def _reference_links_by_vertex(state):
    links = defaultdict(set)
    for e in state.edges:
        for v in e:
            links[v].add(tuple(w for w in e if w != v))
    return links


def _reference_audit(trace):
    """Reference: the audit before each state object was checked once and
    transversality and interchangeability were derived from the blowup
    check; every check scans every state."""
    checks = []
    states = trace.states()
    vf = trace.final.vertices

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

    ok = all(
        frozenset(v for part in s.parts for v in part) == s.vertices
        for s in states
    )
    checks.append(AuditCheck("parts-partition", ok))

    ok, why = True, ""
    for k, s in enumerate(states):
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
    for k, s in enumerate(states):
        rep_set = set(s.reps)
        base = [e for e in s.edges if set(e) <= rep_set]
        if _blow(base, s.part_by_rep()) != s.edges:
            ok, why = False, f"state {k} is not the blowup of its base"
            break
    checks.append(AuditCheck("blowup-idempotent", ok, why))

    ok, why = True, ""
    for k, s in enumerate(states):
        links = _reference_links_by_vertex(s)
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
    if final.vertices:
        n = len(final.vertices)
        threshold = (DENSITY_COEFF - trace.alpha) * n**3
        degs = final.degrees()
        ok = all(degs[v] >= threshold for v in final.vertices)
    else:
        ok = True
    checks.append(AuditCheck("final-min-degree", ok))

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
    assert audit(bad) == _reference_audit(bad)


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
    assert audit(bad) == _reference_audit(bad)


def _unmirrored(state):
    """``state`` minus one edge through a non-representative part member:
    that member's link loses an edge its representative's link keeps, and
    the edge set drops below the blowup of the (unchanged) base."""
    part = next(p for p in state.parts if len(p) > 1)
    gone = min(e for e in state.edges if part[1] in e)
    return dataclasses.replace(state, edges=state.edges - {gone})


def test_audit_flags_unmirrored_part_member():
    tr = symmetrize(split(12, 4), alpha=0.05)
    cut = _unmirrored(tr.final)
    bad = dataclasses.replace(
        tr,
        final=cut,
        steps=tr.steps[:-1] + (dataclasses.replace(tr.steps[-1], state=cut),),
    )
    rep = audit(bad)
    failed = {c.name for c in rep.checks if not c.ok}
    assert failed == {"blowup-idempotent", "parts-interchangeable"}
    assert rep == _reference_audit(bad)


def test_audit_names_original_index_of_a_shared_state():
    # states 0..5 are init, clean, merge, clean, merge, clean, and each
    # clean removes nothing: states 2 and 3 are one object, held by a
    # merge and the clean after it
    tr = symmetrize(split(12, 4), alpha=0.05)
    states = tr.states()
    assert [s.kind for s in tr.steps[1:3]] == ["merge", "clean"]
    assert states[3] is states[2] and states[1] is states[0]
    cut = _unmirrored(states[2])
    bad = dataclasses.replace(tr, steps=tuple(
        dataclasses.replace(s, state=cut) if s.state is states[2] else s
        for s in tr.steps
    ))
    rep = audit(bad)
    details = {c.name: c.detail for c in rep.checks if not c.ok}
    assert details["blowup-idempotent"] == "state 2 is not the blowup of its base"
    assert details["parts-interchangeable"].startswith("state 2: ")
    assert rep == _reference_audit(bad)


def test_audit_checks_each_state_object_once(monkeypatch):
    # the skip rests on identity (a clean that removed nothing), so a state
    # equal to its predecessor but rebuilt as a new object is checked again
    tr = symmetrize(split(16, 4), alpha=0.05)
    copy = dataclasses.replace(tr.steps[0], state=dataclasses.replace(tr.initial))
    tr = dataclasses.replace(tr, steps=(copy,) + tr.steps[1:])
    states = tr.states()
    assert states[1] == states[0] and states[1] is not states[0]
    objects = [k for k in range(len(states)) if k == 0 or states[k] is not states[k - 1]]
    assert objects == [0, 1, 2, 4, 6]
    expected = _reference_audit(tr)
    blown = []

    def counting_blow(base, part_of):
        blown.append(1)
        return _blow(base, part_of)

    # the package re-exports the function symmetrize under the module's name
    module = importlib.import_module("hlag.symmetrize")
    monkeypatch.setattr(module, "_blow", counting_blow)
    assert audit(tr) == expected
    assert len(blown) == len(objects)


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
