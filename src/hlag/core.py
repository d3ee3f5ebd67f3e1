"""Uniform hypergraphs on vertex set {1..n} and the basic structural maps.

Everything downstream (solvers, compression, symmetrization) works with the
immutable :class:`Hypergraph` defined here.  Edges are canonically sorted
tuples; equality of graphs is equality of (r, n, edge set).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field

__all__ = [
    "Hypergraph",
    "link",
    "link_diff",
    "induced",
    "covers_pairs",
    "uncovered_pairs",
    "blowup",
    "equivalent",
    "same_links",
    "is_left_compressed",
    "degree",
    "min_degree",
]


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph with vertices 1..n.

    ``edges`` is a frozenset of strictly increasing r-tuples.  Instances are
    immutable and hashable; all operations below are pure functions.
    """

    r: int
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"uniformity must be >= 1, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if not isinstance(e, tuple) or len(e) != self.r:
                raise ValueError(f"edge {e!r} does not have arity {self.r}")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e!r} is not strictly increasing")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"edge {e!r} out of range 1..{self.n}")

    @classmethod
    def from_edges(cls, r, n, edges):
        """Build a graph from any iterable of vertex iterables.

        Each edge is sorted into canonical form; repeated edges collapse.
        Edges with repeated vertices are rejected.
        """
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(set(t)) != len(t):
                raise ValueError(f"edge {e!r} has repeated vertices")
            canon.add(t)
        return cls(r, n, frozenset(canon))

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def edge_list(self):
        """Edges in sorted (lexicographic) order, for deterministic iteration."""
        return sorted(self.edges)

    def __len__(self):
        return len(self.edges)

    def __contains__(self, e):
        return tuple(sorted(e)) in self.edges

    def __repr__(self):
        return f"Hypergraph(r={self.r}, n={self.n}, m={len(self.edges)})"


# The set-system primitives every module shares.  They take bare edge
# collections, not a Hypergraph, so the pointed states of symmetrization
# and the class-index term rows of the solver use them too.


def _degree_table(edges, vertices) -> dict:
    """Vertex -> the number of ``edges`` through it, for each of
    ``vertices`` in their order (the edges lie within them)."""
    table = dict.fromkeys(vertices, 0)
    table.update(collections.Counter(itertools.chain.from_iterable(edges)))
    return table


def _uncovered(edges, vs) -> list:
    """The pairs of the sorted vertex sequence ``vs`` that lie together in
    none of ``edges``, in lexicographic order.

    Each edge, a sorted tuple or a sorted row of class indices that may
    repeat one, is read only at its members inside ``vs``; an edge that
    lies inside ``vs`` is used as it is, without a filtering pass.
    """
    inside = set(vs)
    covered = set()
    for e in edges:
        if not inside.issuperset(e):
            e = [v for v in e if v in inside]
        covered.update(itertools.combinations(e, 2))
    return [p for p in itertools.combinations(vs, 2) if p not in covered]


def _blow(edges, classes) -> frozenset:
    """The transversal blow-up: each edge becomes every sorted tuple that
    takes one member of ``classes[v]`` for each of its vertices v."""
    return frozenset(
        tuple(sorted(combo))
        for e in edges
        for combo in itertools.product(*(classes[v] for v in e))
    )


def _relabel(edges, order):
    """The edges inside the vertex sequence ``order``, with ``order[k - 1]``
    renamed k and each edge sorted again, as a frozenset; and the map from
    old labels to new."""
    new = {v: k for k, v in enumerate(order, start=1)}
    keep = set(new)
    return frozenset(
        tuple(sorted(map(new.__getitem__, e))) for e in edges if keep.issuperset(e)
    ), new


def degree(G: Hypergraph, v: int) -> int:
    """Number of edges containing v."""
    return sum(1 for e in G.edges if v in e)


def min_degree(G: Hypergraph) -> int:
    """Minimum vertex degree; 0 for the graph on no vertices."""
    if G.n == 0:
        return 0
    return min(_degree_table(G.edges, G.vertices).values())


def link(G: Hypergraph, T) -> Hypergraph:
    """The (r-|T|)-graph {e : e disjoint from T, e + T an edge of G}.

    Vertex labels are preserved (the result lives on 1..n as well).
    """
    T = frozenset(T)
    if not T <= set(G.vertices):
        raise ValueError(f"link set {sorted(T)} not within 1..{G.n}")
    if len(T) >= G.r:
        raise ValueError(f"link set size {len(T)} must be < uniformity {G.r}")
    out = set()
    for e in G.edges:
        se = set(e)
        if T <= se:
            out.add(tuple(sorted(se - T)))
    return Hypergraph(G.r - len(T), G.n, frozenset(out))


def link_diff(G: Hypergraph, i: int, j: int) -> frozenset:
    """L(i \\ j): the (r-1)-sets F with j not in F, F+{i} an edge, F+{j} not.

    Returned as a frozenset of sorted tuples (not a Hypergraph: it is a set
    family used for comparisons and compression).
    """
    if i == j:
        raise ValueError("link_diff requires distinct vertices")
    out = set()
    for e in G.edges:
        if i in e and j not in e:
            rest = tuple(sorted(set(e) - {i}))
            if tuple(sorted(rest + (j,))) not in G.edges:
                out.add(rest)
    return frozenset(out)


def induced(G: Hypergraph, vs):
    """Induced subgraph on ``vs``, relabeled to 1..|vs| preserving order.

    Returns ``(H, relabel)`` where ``relabel`` maps old labels to new.
    """
    vs = sorted(set(vs))
    if vs and (vs[0] < 1 or vs[-1] > G.n):
        raise ValueError(f"vertex set {vs} not within 1..{G.n}")
    out, relabel = _relabel(G.edges, vs)
    return Hypergraph(G.r, len(vs), out), relabel


def uncovered_pairs(G: Hypergraph):
    """All pairs {i,j} that appear together in no edge, as sorted tuples."""
    return _uncovered(G.edges, G.vertices)


def covers_pairs(G: Hypergraph) -> bool:
    """True iff every vertex pair lies in some edge."""
    return not _uncovered(G.edges, G.vertices)


def blowup(G: Hypergraph, sizes) -> Hypergraph:
    """Replace vertex v by a class of ``sizes[v-1]`` vertices; edges become
    all transversals of the original edges.

    Classes are consecutive blocks: vertex v maps to labels
    offset(v)+1 .. offset(v)+sizes[v-1].
    """
    sizes = list(sizes)
    if len(sizes) != G.n:
        raise ValueError(f"need {G.n} sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("all blowup sizes must be >= 1")
    offset = [0]
    for s in sizes:
        offset.append(offset[-1] + s)
    classes = {
        v: range(offset[v - 1] + 1, offset[v] + 1) for v in G.vertices
    }
    return Hypergraph(G.r, offset[-1], _blow(G.edges, classes))


def same_links(G: Hypergraph, i: int, j: int) -> bool:
    """True iff swapping i and j is an automorphism of G.

    Equivalent to L(i\\j) and L(j\\i) both empty: every edge through exactly
    one of i, j has its mirror present.
    """
    for e in G.edges:
        has_i, has_j = i in e, j in e
        if has_i == has_j:
            continue
        a, b = (i, j) if has_i else (j, i)
        mirror = tuple(sorted((set(e) - {a}) | {b}))
        if mirror not in G.edges:
            return False
    return True


def is_left_compressed(G: Hypergraph) -> bool:
    """True iff L(j\\i) is empty for every i < j.

    Checked via single steps: for every edge and every vertex v in it with
    v - 1 >= 1 outside the edge, replacing v by v - 1 must give an edge.
    Single steps generate every replacement of a vertex by a smaller one
    outside the edge, so this equals the all-pairs replacement test.
    """
    edges = G.edges
    for e in edges:
        for k, v in enumerate(e):
            # e is sorted, so v - 1 lies outside e iff it is not e[k - 1].
            if v > 1 and (k == 0 or e[k - 1] != v - 1):
                if e[:k] + (v - 1,) + e[k + 1 :] not in edges:
                    return False
    return True


def equivalent(G: Hypergraph, i: int, j: int) -> bool:
    """Vertex equivalence: mirrored links and {i,j} covered by no edge."""
    if i == j:
        raise ValueError("equivalent requires distinct vertices")
    for e in G.edges:
        if i in e and j in e:
            return False
    return same_links(G, i, j)
