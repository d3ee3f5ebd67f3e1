"""Two-part vertex partitions of 4-graphs scored by how far the edge
profile is from the ideal one-vertex-per-edge pattern on the small side."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Hypergraph
from .errors import UnsupportedSizeError

__all__ = [
    "PartitionScore",
    "MinSigmaResult",
    "classify_edges",
    "sigma_score",
    "min_sigma_partition",
]

EXACT_GUARD_N = 20

# contribution to sigma by |e & W1| = 0..4
_CONTRIB = (1, 0, 1, 2, 3)


def _check(G: Hypergraph, W1):
    if G.r != 4:
        raise ValueError(f"partition scoring is defined for 4-graphs, got r={G.r}")
    W1 = frozenset(W1)
    if not W1 <= set(range(1, G.n + 1)):
        raise ValueError("W1 must be a subset of the vertex set")
    return W1


def sigma_score(G: Hypergraph, W1) -> int:
    """bad + 2 * very_bad + 3 * worst over the partition (W1, rest)."""
    return classify_edges(G, W1).sigma


@dataclass(frozen=True)
class PartitionScore:
    """Edge-class counts of a bipartition: good edges meet W1 exactly
    once; bad twice or not at all; very_bad three times; worst lie inside
    W1 entirely."""

    w1: tuple
    w2: tuple
    good: int
    bad: int
    very_bad: int
    worst: int
    sigma: int


@dataclass(frozen=True)
class MinSigmaResult:
    score: PartitionScore
    exhaustive: bool
    restarts: int


def classify_edges(G: Hypergraph, W1) -> PartitionScore:
    W1 = _check(G, W1)
    counts = [0] * 5
    for e in G.edges:
        counts[len(W1.intersection(e))] += 1
    return PartitionScore(
        w1=tuple(sorted(W1)),
        w2=tuple(sorted(set(range(1, G.n + 1)) - W1)),
        good=counts[1],
        bad=counts[0] + counts[2],
        very_bad=counts[3],
        worst=counts[4],
        sigma=sum(c * k for c, k in zip(_CONTRIB, counts)),
    )


def _descend(G, w1_set, incident, k_counts):
    """Steepest-descent single vertex moves; mutates w1_set/k_counts."""
    while True:
        best_delta, best_v = 0, None
        for v in range(1, G.n + 1):
            delta = 0
            sign = -1 if v in w1_set else 1
            for idx in incident[v]:
                k = k_counts[idx]
                delta += _CONTRIB[k + sign] - _CONTRIB[k]
            if delta < best_delta:  # first strict improver = smallest label
                best_delta, best_v = delta, v
        if best_v is None:
            return
        sign = -1 if best_v in w1_set else 1
        for idx in incident[best_v]:
            k_counts[idx] += sign
        if sign < 0:
            w1_set.discard(best_v)
        else:
            w1_set.add(best_v)


def min_sigma_partition(
    G: Hypergraph,
    restarts: int = 32,
    seed: int = 0,
    exhaustive: bool = False,
) -> MinSigmaResult:
    """Minimize sigma over all 2^n labeled partitions.

    Seeded random starts with local descent give the default answer;
    ``exhaustive`` adds a branch-and-bound pass that certifies the optimum
    (guarded by graph size).
    """
    if G.r != 4:
        raise ValueError(f"partition scoring is defined for 4-graphs, got r={G.r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    edges = G.edge_list()
    incident = {v: [] for v in range(1, G.n + 1)}
    for idx, e in enumerate(edges):
        for v in e:
            incident[v].append(idx)

    rng = random.Random(seed)
    best_sigma, best_w1 = None, None
    for _ in range(restarts):
        w1_set = {v for v in range(1, G.n + 1) if rng.random() < 0.25}
        k_counts = [len(w1_set.intersection(e)) for e in edges]
        _descend(G, w1_set, incident, k_counts)
        sigma = sum(_CONTRIB[k] for k in k_counts)
        key = (sigma, tuple(sorted(w1_set)))
        if best_sigma is None or key < (best_sigma, best_w1):
            best_sigma, best_w1 = key
    if exhaustive:
        if G.n > EXACT_GUARD_N:
            raise UnsupportedSizeError(
                f"exhaustive partition search needs n <= {EXACT_GUARD_N}, "
                f"got n={G.n}"
            )
        best_sigma, best_w1 = _branch_and_bound(G, incident, best_sigma, best_w1)

    score = classify_edges(G, best_w1)
    return MinSigmaResult(score=score, exhaustive=exhaustive, restarts=restarts)


def _lb(assigned, k, r):
    if assigned == r:
        return _CONTRIB[k]
    return 0 if k <= 1 else _CONTRIB[k]


def _branch_and_bound(G, incident, best_sigma, best_w1):
    """Exact DFS over vertex assignments, high-degree vertices first,
    pruning once the partial lower bound reaches the incumbent.
    ``incident[v]`` lists the indices of the edges through v."""
    n, r = G.n, G.r
    order = sorted(range(1, n + 1), key=lambda v: (-len(incident[v]), v))
    inc = [incident[v] for v in order]

    assigned = [0] * len(G.edges)
    in_w1 = [0] * len(G.edges)
    choice = [False] * n
    state = {"best": best_sigma, "w1": best_w1, "lb": 0}

    def place(i, to_w1):
        delta = 0
        for idx in inc[i]:
            old = _lb(assigned[idx], in_w1[idx], r)
            assigned[idx] += 1
            if to_w1:
                in_w1[idx] += 1
            delta += _lb(assigned[idx], in_w1[idx], r) - old
        state["lb"] += delta
        return delta

    def unplace(i, to_w1, delta):
        for idx in inc[i]:
            assigned[idx] -= 1
            if to_w1:
                in_w1[idx] -= 1
        state["lb"] -= delta

    def rec(i):
        if state["lb"] >= state["best"]:
            return
        if i == n:
            # entry prune ensures lb < best here
            w1 = tuple(sorted(order[j] for j in range(n) if choice[j]))
            state["best"], state["w1"] = state["lb"], w1
            return
        for to_w1 in (False, True):
            choice[i] = to_w1
            delta = place(i, to_w1)
            rec(i + 1)
            unplace(i, to_w1, delta)
        choice[i] = False

    rec(0)
    return state["best"], state["w1"]
