"""Shifting compressions pi_ij and the densify-then-compress loop."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph, _relabel, induced, link_diff
from .errors import NotFreeError
from .solver import LagrangianResult, SolverConfig, maximize

__all__ = [
    "compress_pair",
    "potential",
    "dense_and_compress",
    "CompressionStep",
    "CompressionTrace",
]


def compress_pair(G: Hypergraph, i: int, j: int) -> Hypergraph:
    """pi_ij(G): every edge {j}+F with F in L(j\\i) becomes {i}+F.

    Moved edges are fresh by the definition of L(j\\i), so the edge count
    is preserved exactly.
    """
    if i == j:
        raise ValueError("compress_pair requires distinct vertices")
    moved = link_diff(G, j, i)
    if not moved:
        return G
    edges = set(G.edges)
    for F in moved:
        edges.remove(tuple(sorted(F + (j,))))
        edges.add(tuple(sorted(F + (i,))))
    return Hypergraph(G.r, G.n, frozenset(edges))


def potential(G: Hypergraph) -> int:
    """s(G): the sum of all vertex labels over all edges."""
    return sum(sum(e) for e in G.edges)


@dataclass(frozen=True)
class CompressionStep:
    kind: str  # "densify" | "compress"
    removed: tuple = ()  # densify: deleted vertices (labels before relabel)
    i: int = 0
    j: int = 0
    moved: int = 0
    value: float = 0.0  # lambda after the step


@dataclass(frozen=True)
class CompressionTrace:
    initial: Hypergraph
    final: Hypergraph
    initial_value: float
    final_value: float
    steps: tuple


def _relabel_by_weight(G: Hypergraph, x):
    """Permute labels so weights are non-increasing.

    Weight ties (within 1e-10, via quantization) are broken by the old
    label, so relabeling is deterministic.
    """
    order = sorted(G.vertices, key=lambda v: (-int(round(x[v - 1] * 1e10)), v))
    return Hypergraph(G.r, G.n, _relabel(G.edges, order)[0])


def _first_compressible(G: Hypergraph):
    """Smallest j, then smallest i < j, with L(j\\i) nonempty."""
    for j in range(2, G.n + 1):
        for i in range(1, j):
            moved = link_diff(G, j, i)
            if moved:
                return i, j, len(moved)
    return None


def dense_and_compress(G: Hypergraph, t: int, cfg: SolverConfig | None = None):
    """Alternate densification and single compressions to a fixed point.

    The input must have no t pairwise disjoint edges; the output is dense,
    left-compressed, still free, and its Lagrangian matches the input's.
    Returns (graph, LagrangianResult, CompressionTrace).
    """
    # looked up per call, so a wrapper patched onto freeness (the tracer's
    # timing span) is the one that runs; no import cycle needs it
    from .freeness import is_matching_free

    cfg = cfg or SolverConfig()
    report = is_matching_free(G, t)
    if not report.free:
        raise NotFreeError(
            f"input contains {t} disjoint edges", witness=report.witness
        )
    initial = G
    steps = []
    budget = G.n * potential(G) + G.n + 1
    current = G
    res: LagrangianResult = maximize(current, cfg)
    initial_value = res.value
    while True:
        if len(steps) > budget:
            raise RuntimeError("compression exceeded its termination budget")
        if 0 < len(res.support) < current.n:
            removed = tuple(
                v for v in current.vertices if v not in set(res.support)
            )
            current, _ = induced(current, res.support)
            res = maximize(current, cfg)
            steps.append(
                CompressionStep(kind="densify", removed=removed, value=res.value)
            )
            continue
        relabeled = _relabel_by_weight(current, res.weighting)
        found = _first_compressible(relabeled)
        if found is None:
            current = relabeled
            break
        i, j, moved = found
        current = compress_pair(relabeled, i, j)
        res = maximize(current, cfg)
        steps.append(
            CompressionStep(kind="compress", i=i, j=j, moved=moved, value=res.value)
        )
    final_res = maximize(current, cfg)
    trace = CompressionTrace(
        initial=initial,
        final=current,
        initial_value=initial_value,
        final_value=final_res.value,
        steps=tuple(steps),
    )
    return current, final_res, trace
