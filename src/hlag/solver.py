"""Maximization of the Lagrangian polynomial over the probability simplex.

Two routes are implemented and kept deliberately independent so they can
cross-check each other:

* ``multistart-ascent`` — batched exponentiated-gradient ascent from
  Dirichlet(1) restarts plus the uniform start, handed to a damped Newton
  polish on the best rows' supports every ``CHUNK`` steps; it stops at the
  first polished point that is certified (KKT residual <= 1e-10 on the
  quotient, off the support too) and that nothing found beats by more
  than 1e-12, and otherwise runs to the stall rule or ``MAX_ITERATIONS``;
* ``support-enum`` — exact enumeration of candidate supports, solving the
  stationarity system on each support by damped Newton from its uniform
  point, with at most one retry chosen by how that run ended: from a
  degree-weighted seed after any run that did not resolve, and from the
  multistart ascent on the support after a saddle; on a left-compressed
  graph only the prefix supports of classes in label order are tried, at
  most one per class, and otherwise every subset of at most
  ``ENUM_CLASSES`` classes; no support is tried on fewer vertices than a
  complete graph would need to reach the best value found.

``auto`` picks support-enum for left-compressed graphs of any size and for
graphs of at most 8 classes (so for every n <= 8); multistart otherwise.

Both routes solve on the classes of vertices with mirrored links rather
than on vertices: swapping two such vertices is an automorphism, so
averaging their weights never lowers the value (the symmetrization of
Frankl and Rodl), and some optimum is constant on every class.  With mass
z_c on class c and x_v = z_c / |c|, the Lagrangian is a weighted sum of
monomials in z over the edges' sorted class tuples; the solve runs on that
quotient and the answer is lifted back to vertices.  ``_solve_quotient`` is
that solve, from a lex-sorted edge list and its classes, and it reads the
value by class, which is ``evaluate`` at the lifted weighting bit for bit.
``maximize`` feeds it any graph; the extremal search feeds it each walked
family, with no vertex-level graph.

A left-compressed graph has an optimum that is non-increasing in the label
(Talbot, CPC 2002): swapping the weights of i < j with x_i < x_j never
lowers the value when L(j\\i) is empty, and it keeps the support size, so
a minimal-support optimum, which covers all its pairs, sorts into one on a
prefix [k].  Its classes are label intervals, the runs of equal degree
(``_degree_runs``), so averaging over them keeps the weights
non-increasing and makes the support a prefix of the classes in label
order, one that passes the pair filter of support enumeration.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Hypergraph,
    _degree_table,
    _uncovered,
    induced,
    is_left_compressed,
    link,
    uncovered_pairs,
)
from .errors import UnsupportedSizeError

__all__ = [
    "SolverConfig",
    "LagrangianResult",
    "KktReport",
    "evaluate",
    "gradient",
    "kkt_residual",
    "kkt_report",
    "maximize",
    "uncovered_reduce",
]

ENUM_CLASSES = 12  # most classes for the full 2**k support walk
MAX_ITERATIONS = 500  # exponentiated-gradient steps per multistart ascent
NEWTON_ITERATIONS = 60  # Newton iterations per run on one support
STALL_TOL = 1e-12  # a row gain below this is a stall step of the ascent
CHUNK = 25  # ascent steps between Newton polishes of the best rows
_CERTIFIED = 1e-10  # quotient KKT residual that ends the ascent early
_TIE = 1e-12  # value margin within which a certified point is preferred
_CLAMP = 1e-12  # weights below _CLAMP * max(x) are treated as exact zeros
_HALVINGS = np.ldexp(1.0, -np.arange(40))  # Newton step lengths 1, 1/2, ..., 2**-39
_BOUNDARY_STREAK = 5  # Newton iterations in a row with no feasible step >= 1/2


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`maximize`.

    ``method`` is ``auto`` (support enumeration for left-compressed graphs
    and for graphs of at most 8 classes, multistart ascent otherwise),
    ``support-enum`` or ``multistart-ascent``.  The ascent runs
    ``restarts`` Dirichlet starts drawn from ``seed`` plus the uniform
    one.  It stops as soon as a Newton-polished point is certified
    stationary and no start beats it, else once no start gains
    ``STALL_TOL`` for 20 steps or after ``MAX_ITERATIONS`` steps.  Support
    enumeration on a graph that is not left-compressed needs at most
    ``ENUM_CLASSES`` classes.
    """

    method: str = "auto"
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "multistart-ascent", "support-enum"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class LagrangianResult:
    """A solve's value, weighting, support and KKT residual.

    ``restarts_used`` is the number of Dirichlet restarts under
    ``multistart-ascent`` and the number of class supports tried (Newton
    run on them) under ``support-enum``, which leaves out the supports the
    complete-graph bound skips; the CLI's JSON calls it ``restarts``.
    """

    value: float
    weighting: tuple
    support: tuple
    kkt_residual: float
    method: str
    restarts_used: int
    seed: int


@dataclass(frozen=True)
class KktReport:
    residual: float
    uncovered_support_pairs: tuple


def evaluate(G: Hypergraph, x) -> float:
    """lambda(G, x): the edge-monomial sum, accumulated deterministically."""
    if len(x) != G.n:
        raise ValueError(f"weighting has length {len(x)}, expected {G.n}")
    return math.fsum(
        math.prod(x[v - 1] for v in e) for e in G.edge_list()
    )


def gradient(G: Hypergraph, x):
    """Per-vertex partial derivatives L(x_i)."""
    if len(x) != G.n:
        raise ValueError(f"weighting has length {len(x)}, expected {G.n}")
    contrib = [[] for _ in range(G.n)]
    for e in G.edge_list():
        w = [x[v - 1] for v in e]
        for t, v in enumerate(e):
            p = 1.0
            for s, wv in enumerate(w):
                if s != t:
                    p *= wv
            contrib[v - 1].append(p)
    return [math.fsum(c) for c in contrib]


def kkt_residual(G: Hypergraph, x, value: float | None = None) -> float:
    """Stationarity residual: on-support |L_i - r*lam|, off-support the
    positive part of L_i - r*lam."""
    lam = evaluate(G, x) if value is None else value
    grad = gradient(G, x)
    target = G.r * lam
    res = 0.0
    for i in range(G.n):
        if x[i] > 0.0:
            res = max(res, abs(grad[i] - target))
        else:
            res = max(res, grad[i] - target)
    return max(res, 0.0)


def kkt_report(G: Hypergraph, x) -> KktReport:
    """Residual plus any positive-weight pair not covered by an edge."""
    res = kkt_residual(G, x)
    support = [i + 1 for i in range(G.n) if x[i] > 0.0]
    return KktReport(res, tuple(_uncovered(G.edges, support)))


# ---------------------------------------------------------------------------
# vectorized internals
#
# The kernels are the methods of ``_Terms``, which holds a term array E of
# 0-based variable indices, one row per term (a row may repeat an index),
# and a weight w_t per row: the polynomial is sum_t w_t prod_j x[E[t, j]].
# A term array is the class quotient or its restriction to one support.


def _classes(G: Hypergraph) -> tuple:
    """Classes of vertices with mirrored links, ordered by smallest vertex.

    The union-find over ``same_links`` pairs; each class is a sorted tuple
    of labels.  A pair is tested on the edges through its two vertices:
    i and j are mirrored iff they have equal degree and every edge through
    i but not j has its mirror (i swapped for j) among the edges through
    j, since the mirror map is then a bijection between the two sides.
    On a left-compressed graph ``_degree_runs`` finds the same classes.
    """
    through = [set() for _ in range(G.n + 1)]
    for e in G.edges:
        for v in e:
            through[v].add(e)

    def mirrored(i, j):
        at_i, at_j = through[i], through[j]
        if len(at_i) != len(at_j):
            return False
        return all(
            tuple(sorted(j if w == i else w for w in e)) in at_j
            for e in at_i
            if j not in e
        )

    parent = list(range(G.n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(1, G.n + 1), 2):
        if find(i) != find(j) and mirrored(i, j):
            parent[find(j)] = find(i)
    classes = {}
    for v in range(1, G.n + 1):
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(members) for members in classes.values())


def _degree_runs(edges, n) -> tuple:
    """The classes of a left-compressed r-graph with these edges on [n]:
    its maximal runs of consecutive labels with equal degree.

    Replacing i + 1 by i maps the edges through i + 1 but not i
    injectively into the edges through i but not i + 1, which left
    compression keeps in the graph.  So i and i + 1 have mirrored links iff
    that map is onto, iff their degrees are equal; and the classes are
    label intervals (see the module docstring).
    """
    vertices = range(1, n + 1)
    degree = _degree_table(edges, vertices)
    return tuple(
        tuple(run) for _, run in itertools.groupby(vertices, key=degree.__getitem__)
    )


def _quotient(edges, n, r, classes):
    """The Lagrangian of the r-graph with the lex-sorted ``edges`` on [n]
    as a polynomial in class masses z_c = sum_{v in c} x_v.

    Each edge maps to the sorted tuple of its vertices' class indices, and
    equal tuples merge into one term of weight count / prod_c |c|^k_c, so
    the quotient at z equals lambda(G) at x_v = z_c / |c|.  Returns the
    term array, the weights, the class sizes, each vertex's class index,
    and how often each label-ordered class tuple (an edge's class indices
    in the order of its vertices) occurs.  With singleton classes the terms
    are the edges in order with weight 1.0.
    """
    label = [0] * (n + 1)
    for c, members in enumerate(classes):
        for v in members:
            label[v] = c
    ordered = collections.Counter(
        tuple(map(label.__getitem__, e)) for e in edges
    )
    # each sorted tuple enters ``counts`` in the order of its first edge,
    # as when the edges are read one by one: that edge's ordered tuple
    # entered ``ordered`` before those first met at later edges
    counts = {}
    for key, cnt in ordered.items():
        key = tuple(sorted(key))
        counts[key] = counts.get(key, 0) + cnt
    sizes = [len(members) for members in classes]
    E = np.asarray(list(counts), dtype=np.int64).reshape(-1, r)
    w = np.array(
        [cnt / math.prod(sizes[c] for c in key) for key, cnt in counts.items()]
    )
    of = np.asarray(label[1:], dtype=np.int64)
    return E, w, np.asarray(sizes, dtype=float), of, ordered


@functools.lru_cache(maxsize=None)
def _column_pairs(r: int):
    """The ordered pairs (ia, ib) of distinct columns of an r-column term
    array, ia-major, shape (pairs, 2); and for each pair the other columns
    in increasing order, shape (pairs, r - 2).  Read-only, built once per r.
    """
    pairs = np.array(
        [(ia, ib) for ia in range(r) for ib in range(r) if ia != ib],
        dtype=np.int64,
    ).reshape(-1, 2)
    others = np.array(
        [[t for t in range(r) if t != ia and t != ib] for ia, ib in pairs.tolist()],
        dtype=np.int64,
    ).reshape(len(pairs), max(r - 2, 0))
    pairs.flags.writeable = others.flags.writeable = False
    return pairs, others


class _Terms:
    """The polynomial sum_t w_t prod_j x[E[t, j]] in n variables, with the
    index arrays of its kernels built once.

    A term array does not change within one ascent or one support, so the
    gradient's bincount index and work buffers (per batch size) and the
    Hessian's cell index are built on first use and reused by every later
    call.  Every product and every bincount runs in a fixed order, so equal
    inputs give bit-identical outputs.
    """

    def __init__(self, E: np.ndarray, w: np.ndarray, n: int):
        self.E, self.w, self.n = E, w, n
        self._grad_work = {}  # batch size -> bincount index and buffers

    @functools.cached_property
    def _hessian_index(self):
        """For each ordered pair of columns (ia, ib): its cells
        E[:, ia] * n + E[:, ib], concatenated pair by pair; the other
        columns' indices in increasing column order, shape
        (pairs, r - 2, m); and the weights repeated once per pair."""
        pairs, others = _column_pairs(self.E.shape[1])
        ET = self.E.T
        ends = ET[pairs]  # (pairs, 2, m)
        return (
            (ends[:, 0] * self.n + ends[:, 1]).ravel(),
            ET[others],
            np.broadcast_to(self.w, (len(pairs), len(self.w))),
        )

    def value(self, X: np.ndarray) -> np.ndarray:
        """The polynomial at each row of X."""
        return (np.prod(X[:, self.E], axis=2) * self.w).sum(axis=1)

    def grad(self, X: np.ndarray) -> np.ndarray:
        """The gradient at each row of X.

        Term t adds w_t times the product of its other columns' weights to
        each column's variable, formed as (prefix product) * (suffix
        product) in the same order on every call.
        """
        E, n = self.E, self.n
        B = X.shape[0]
        m, r = E.shape
        work = self._grad_work.get(B)
        if work is None:
            idx = (np.arange(B)[:, None, None] * n + E[None, :, :]).ravel()
            pre = np.empty((B, r, m))  # prefix products
            pre[:, 0] = self.w  # the term weight rides on the prefix products
            W = np.empty((B, r, m))  # X at each column of E
            suf = np.empty((B, m))  # the running suffix product
            loo = np.empty((B, m, r))  # leave-one-out, in idx's order
            work = self._grad_work[B] = (idx, W, pre, suf, loo)
        idx, W, pre, suf, loo = work
        np.take(X, E.T, axis=1, out=W, mode="clip")  # unbuffered; E is in range
        for t in range(1, r):
            np.multiply(pre[:, t - 1], W[:, t - 1], out=pre[:, t])
        loo[:, :, r - 1] = pre[:, r - 1]
        if r > 1:
            suf[:] = W[:, r - 1]
        for t in range(r - 2, -1, -1):
            np.multiply(pre[:, t], suf, out=loo[:, :, t])
            if t:
                suf *= W[:, t]
        flat = np.bincount(idx, weights=loo.ravel(), minlength=B * n)
        return flat.reshape(B, n)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """The Hessian at the point x."""
        cells, others, p = self._hessian_index
        X = x[others]  # (pairs, r - 2, m)
        for j in range(others.shape[1]):
            p = p * X[:, j]
        # bincount adds in input order, so each cell sums pair by pair
        flat = np.bincount(cells, weights=p.ravel(), minlength=self.n * self.n)
        return flat.reshape(self.n, self.n)


def _restrict(T: _Terms, S):
    """Return S (0-based labels) sorted, and the terms of T inside S
    relabeled to 0..len(S)-1 with their weights; the term array is empty
    when S carries no term."""
    S = np.asarray(sorted(S), dtype=np.int64)
    mask = np.zeros(T.n, dtype=bool)
    mask[S] = True
    pos = -np.ones(T.n, dtype=np.int64)
    pos[S] = np.arange(len(S))
    inside = mask[T.E].all(axis=1)
    return S, _Terms(pos[T.E[inside]], T.w[inside], len(S))


class _NewtonRun(tuple):
    """A Newton run's (weighting, residual) pair, with how the run ended
    as ``label``: ``resolved``, ``boundary`` or ``interior``."""

    def __new__(cls, weighting, residual, label):
        run = super().__new__(cls, (weighting, residual))
        run.label = label
        return run


def _newton_on_support(Ts: _Terms, S, n, x0=None):
    """Damped Newton for the stationarity system of Ts, the terms
    restricted to the sorted support S (0-based labels of n variables).

    Each iteration solves the bordered system for a step and forms the 40
    candidates x + 2**-j * step at once; of the rows with every weight
    >= -1e-10 it accepts, in order, the first that lowers the residual, as
    halving t from 1 would.  The run stops when no row is accepted, at
    residual 1e-14 or after ``NEWTON_ITERATIONS`` iterations.  It also
    stops once ``_BOUNDARY_STREAK`` iterations in a row find neither the
    full nor the half step feasible: the step keeps pointing out of the
    face, whose stationary point then lies outside it.

    Returns a ``_NewtonRun``: (full-length weighting, residual of the
    stationarity system), labelled ``resolved`` when the residual is at
    most 1e-6, else ``boundary`` when the streak stopped the run (pushed
    out of its face) and ``interior`` when no step was accepted or the
    iterations ran out.  An ``interior`` run can still end on the edge of
    the face, with a weight clipped to 0.  The weighting is None and the
    residual inf when the support carries no terms.
    """
    k = Ts.n
    if Ts.E.size == 0:
        return _NewtonRun(None, math.inf, "interior")

    x = np.full(k, 1.0 / k) if x0 is None else np.asarray(x0, dtype=float)
    g = Ts.grad(x[None, :])[0]
    c = float(x @ g)  # r*lam at start
    fnorm = max(np.abs(g - c).max(), abs(x.sum() - 1.0))
    J = np.zeros((k + 1, k + 1))
    J[:k, k] = -1.0
    J[k, :k] = 1.0
    F = np.empty(k + 1)
    streak = 0  # iterations in a row whose longest feasible step is <= 1/4
    for _ in range(NEWTON_ITERATIONS):
        if fnorm < 1e-14:
            break
        J[:k, :k] = Ts.hessian(x)
        F[:k] = g - c
        F[k] = x.sum() - 1.0
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        # row j is x + 2**-j * step, bit for bit as t = 1, 1/2, ... forms it
        X = x + _HALVINGS[:, None] * step[:k]
        feasible = X.min(axis=1) >= -1e-10
        streak = 0 if feasible[0] or feasible[1] else streak + 1
        if streak == _BOUNDARY_STREAK:
            break
        accepted = False
        for j in np.flatnonzero(feasible):
            xn = X[j]
            cn = c + _HALVINGS[j] * step[k]
            gn = Ts.grad(xn[None, :])[0]
            fn = max(np.abs(gn - cn).max(), abs(xn.sum() - 1.0))
            if fn < fnorm:
                x, c, g, fnorm, accepted = xn, cn, gn, fn, True
                break
        if not accepted:
            break
    if fnorm <= 1e-6:
        label = "resolved"
    else:
        label = "boundary" if streak == _BOUNDARY_STREAK else "interior"
    x = np.clip(x, 0.0, None)
    total = x.sum()
    if total <= 0:
        return _NewtonRun(None, math.inf, label)
    x = x / total
    out = np.zeros(n)
    out[S] = x
    return _NewtonRun(out, fnorm, label)


def _tangent_ascent_exists(Ts: _Terms, x) -> bool:
    """True when the simplex-tangent Hessian of the restricted terms Ts at
    the restricted point x has positive curvature.

    A stationary point of the restricted problem with an ascent direction
    is a saddle, not the support's maximum, and needs re-seeding.
    """
    k = Ts.n
    if k <= 1:
        return False
    H = Ts.hessian(x)
    P = np.eye(k) - np.full((k, k), 1.0 / k)
    M = P @ H @ P
    eig = np.linalg.eigvalsh((M + M.T) / 2.0)
    return bool(eig[-1] > 1e-12 + 1e-9 * float(np.abs(H).max()))


def _lambda_complete(s: int, r: int) -> float:
    """lambda(K_s^r) = C(s, r) / s^r, non-decreasing in s.

    K_s^r is one class, so the uniform weighting is optimal on it (Frankl
    and Rodl); every r-graph on s vertices is a subgraph, so no weighting
    on s vertices reaches more.
    """
    return math.comb(s, r) / s**r


def _solve_support(T: _Terms, Ts: _Terms, S, k: int) -> _NewtonRun:
    """Solve one support: Newton from its uniform point, then at most one
    more run, chosen by how the first ended.

    Ts is T restricted to the sorted support S (0-based labels of T's k
    variables).  A run that did not resolve, ``boundary`` or ``interior``,
    is retried from a degree-weighted seed.  An ``interior`` stall there
    decides star(n, 4) for n in {6, 7, 10, 11, 12}, whose bordered Jacobian
    is singular at the uniform start, so no step is feasible at the first
    iteration; a ``boundary`` run from the uniform point can leave the
    face that holds the optimum, which the seeded run then finds.  A
    ``resolved`` point with a tangent ascent direction is a saddle, and it
    is retried from the multistart ascent on Ts from its uniform point.
    The retry replaces the first run when it resolves and the first did
    not, or when both resolve and it reaches a higher value.
    """
    run = _newton_on_support(Ts, S, k)
    m = len(S)
    if run.label != "resolved":
        seed = np.bincount(Ts.E.ravel(), minlength=m) + 1.0
        x0 = seed / seed.sum()
    elif _tangent_ascent_exists(Ts, run[0][S]):
        x0 = _multistart(Ts, np.full((1, m), 1.0 / m))
    else:
        return run
    retry = _newton_on_support(Ts, S, k, x0=x0)
    better = retry.label == "resolved" and (
        run.label != "resolved"
        or float(T.value(retry[0][None, :])[0]) > float(T.value(run[0][None, :])[0])
    )
    return retry if better else run


def _support_enum(r: int, T: _Terms, sizes, prefix_only: bool):
    """Exact enumeration of class supports of the quotient T of an r-graph;
    returns (class masses, supports tried).

    A support is tried only when every pair of its classes shares a term
    and, when ``prefix_only`` (the graph is left-compressed), when it is a prefix
    of the classes in label order (see the module docstring), so at most
    k supports are tried.  Otherwise all 2**k - 1 class subsets are
    candidates, and more than ``ENUM_CLASSES`` classes are refused.  Each
    support's terms are restricted once and solved by ``_solve_support``;
    a support whose run is not labelled ``resolved`` is dropped.  When no
    support resolves, the class masses of the uniform weighting on
    vertices come back.

    Supports are visited by vertex count s (the sizes of their classes
    summed), largest first.  No weighting on s vertices beats
    lambda(K_s^r) (``_lambda_complete``), which grows with s; so once that
    bound falls more than 1e-9 below the best resolved value, no later
    support can win or tie, and the walk stops.  The supports
    solved are then compared in mask order: a larger value by more than
    1e-12 wins, and a tie goes to the smaller support.
    """
    k = T.n
    if not prefix_only and k > ENUM_CLASSES:
        raise UnsupportedSizeError(
            "support enumeration of a graph that is not left-compressed "
            f"needs at most {ENUM_CLASSES} classes, got {k}"
        )
    terms = [tuple(t) for t in T.E.tolist()]
    tmasks = [sum(1 << c for c in set(t)) for t in terms]
    # classes come in label order, so a prefix mask is 0b0..01..1
    masks = (
        [(1 << j) - 1 for j in range(1, k + 1)] if prefix_only else range(1, 1 << k)
    )
    csize = [int(v) for v in sizes]
    vertices = {m: sum(csize[c] for c in range(k) if m >> c & 1) for m in masks}
    solved = []  # (mask, value, class masses, support)
    top = -math.inf  # the best resolved value so far
    tried = 0
    for smask in sorted(masks, key=lambda m: -vertices[m]):
        s = vertices[smask]
        if _lambda_complete(s, r) < top - 1e-9:
            break  # s only falls from here, and the bound with it
        inside = [terms[i] for i, tm in enumerate(tmasks) if tm & ~smask == 0]
        if not inside:
            continue
        S = [c for c in range(k) if smask >> c & 1]
        # some optimum is constant on classes, and an optimum of minimal
        # support covers all its pairs; so two distinct classes meeting it
        # share an edge, while a pair inside one class may be uncovered
        if _uncovered(inside, S):
            continue
        S, Ts = _restrict(T, S)
        run = _solve_support(T, Ts, S, k)
        tried += 1
        if run.label != "resolved":
            continue
        z = run[0]
        val = float(T.value(z[None, :])[0])
        top = max(top, val)
        solved.append((smask, val, z, tuple(c for c in range(k) if z[c] > 0.0)))
    best_val, best_z, best_support = -1.0, None, None
    for _, val, z, sup in sorted(solved, key=lambda row: row[0]):
        if val > best_val + 1e-12 or (
            abs(val - best_val) <= 1e-12
            and best_support is not None
            and sup < best_support
        ):
            best_val, best_z, best_support = val, z, sup
    if best_z is None:
        return sizes / sizes.sum(), tried
    return best_z, tried


def _quotient_residual(T: _Terms, z) -> float:
    """The KKT residual of class masses z on the quotient: on the support
    |L_c - r*lam|, off it the positive part of L_c - r*lam."""
    g = T.grad(z[None, :])[0]
    target = float(z @ g)  # r*lam, by Euler's identity
    on = z > 0.0
    return max(
        float(np.abs(g[on] - target).max(initial=0.0)),
        float((g[~on] - target).max(initial=0.0)),
    )


def _multistart(T: _Terms, X: np.ndarray):
    """Exponentiated-gradient ascent from the start rows X, one point of
    the simplex each, handed to Newton early; returns the best point.

    ``maximize`` passes the uniform weighting on vertices and the
    ``cfg.restarts`` Dirichlet(1) points; ``_solve_support`` passes the
    uniform point of a support to re-seed a saddle.  Every ``CHUNK``
    steps, the supports of the ten best rows (weights above 1e-3, 1e-6
    and 1e-9 of the row's largest) are polished by Newton.  The ascent
    stops as soon as a polished point is certified (quotient residual <=
    ``_CERTIFIED``) and nothing found beats it by more than ``_TIE``.
    Otherwise it runs until no row gains ``STALL_TOL`` for 20 steps or
    ``MAX_ITERATIONS`` steps have run, and returns the best polished point
    if it beats every row, else the best row.
    """
    k = T.n
    eta = np.full(len(X), 1.0)
    val = T.value(X)
    polished_val, polished_z = -math.inf, None
    certified_val, certified_z = -math.inf, None
    attempts = {}  # support -> its row's value when it was last polished

    def polish():
        nonlocal polished_val, polished_z, certified_val, certified_z
        for row in np.argsort(-val, kind="stable")[:10]:
            z = X[row]
            mx = z.max()
            if mx <= 0:
                continue
            for thr in (1e-3, 1e-6, 1e-9):
                S = np.where(z > thr * mx)[0]
                key = S.tobytes()
                if val[row] < attempts.get(key, -math.inf) + STALL_TOL:
                    continue
                attempts[key] = val[row]
                z0 = z[S] / z[S].sum()
                S, Ts = _restrict(T, S)
                run = _newton_on_support(Ts, S, k, x0=z0)
                if run.label != "resolved":
                    continue
                p = run[0]
                v = float(T.value(p[None, :])[0])
                if v > polished_val:
                    polished_val, polished_z = v, p
                if v > certified_val and _quotient_residual(T, p) <= _CERTIFIED:
                    certified_val, certified_z = v, p
        return certified_val >= max(float(val.max()), polished_val) - _TIE

    stall = 0
    for step in range(1, MAX_ITERATIONS + 1):
        L = T.grad(X)
        shift = L - L.max(axis=1, keepdims=True)
        Y = X * np.exp(eta[:, None] * shift)
        s = Y.sum(axis=1, keepdims=True)
        Y = np.where(s > 0, Y / np.where(s > 0, s, 1.0), X)
        vy = T.value(Y)
        acc = vy >= val
        improvement = np.where(acc, vy - val, 0.0).max()
        X = np.where(acc[:, None], Y, X)
        val = np.where(acc, vy, val)
        eta = np.where(acc, np.minimum(eta * 1.3, 1e6), eta * 0.5)
        if step % CHUNK == 0 and polish():
            return certified_z
        stall = stall + 1 if improvement < STALL_TOL else 0
        if stall >= 20:
            break
    if step % CHUNK and polish():
        return certified_z
    top = int(np.argmax(val))
    if polished_val > val[top]:
        return polished_z
    return X[top]


def _solve_quotient(edges, n, r, classes, method, prefix_only, cfg):
    """Solve lambda of the r-graph with the lex-sorted ``edges`` on [n] on
    its quotient by ``classes`` (vertices with mirrored links, see
    ``_quotient``); returns (value, weighting as an array over [n], supports
    tried or restarts drawn).

    ``method`` is ``support-enum``, prefix supports only when
    ``prefix_only`` (the caller knows the graph is left-compressed), or
    ``multistart-ascent`` from the uniform point and ``cfg.restarts``
    Dirichlet starts drawn from ``cfg.seed``.  The class masses z are
    lifted to x_v = z_c / |c|, clipped at 0, with weights below ``_CLAMP``
    of the largest set to 0, and normalised.  The weighting is constant on
    classes, so every edge's product of weights in label order is the
    product of its classes' weights in the same order: the value, a
    ``math.fsum`` over the label-ordered class tuples each repeated by its
    count, is ``evaluate`` at the weighting bit for bit.
    """
    E, w, sizes, of, ordered = _quotient(edges, n, r, classes)
    T = _Terms(E, w, len(sizes))
    if method == "support-enum":
        z, used = _support_enum(r, T, sizes, prefix_only)
    else:
        rng = np.random.default_rng(cfg.seed)
        starts = rng.dirichlet(np.ones(len(sizes)), size=cfg.restarts)
        z = _multistart(T, np.vstack([sizes / sizes.sum(), starts]))
        used = cfg.restarts
    x = z[of] / sizes[of]
    x = np.clip(x, 0.0, None)
    x[x < _CLAMP * x.max()] = 0.0
    x = x / x.sum()
    y = np.empty(len(sizes))
    y[of] = x
    y = y.tolist()
    value = math.fsum(itertools.chain.from_iterable(
        itertools.repeat(math.prod(y[c] for c in key), cnt)
        for key, cnt in ordered.items()
    ))
    return value, x, used


def maximize(G: Hypergraph, cfg: SolverConfig | None = None) -> LagrangianResult:
    """Best found Lagrangian value with its weighting and KKT certificate.

    The solve runs on the classes of vertices with mirrored links
    (``_solve_quotient``), so the weighting is constant on each class.
    """
    cfg = cfg or SolverConfig()
    method = cfg.method
    if G.n == 0:
        return LagrangianResult(0.0, (), (), 0.0, method, 0, cfg.seed)
    if not G.edges:
        x = (1.0 / G.n,) * G.n
        support = tuple(range(1, G.n + 1))
        return LagrangianResult(0.0, x, support, 0.0, method, 0, cfg.seed)
    # a left-compressed graph has an optimum on a prefix of its classes,
    # so support enumeration tries at most one support per class; any
    # other graph is enumerated when it has at most 8 classes
    prefix_only = method != "multistart-ascent" and is_left_compressed(G)
    classes = _degree_runs(G.edges, G.n) if prefix_only else _classes(G)
    if method == "auto":
        exact = prefix_only or len(classes) <= 8
        method = "support-enum" if exact else "multistart-ascent"
    value, x, used = _solve_quotient(
        G.edge_list(), G.n, G.r, classes, method, prefix_only, cfg
    )
    weighting = tuple(x.tolist())
    support = tuple(i + 1 for i in range(G.n) if weighting[i] > 0.0)
    residual = kkt_residual(G, weighting, value)
    return LagrangianResult(value, weighting, support, residual, method, used, cfg.seed)


def uncovered_reduce(G: Hypergraph, cfg: SolverConfig | None = None) -> Hypergraph:
    """Shrink G along uncovered pairs without changing its Lagrangian.

    For an uncovered pair {i, j}: when one link contains the other the
    dominated vertex is deleted outright; otherwise both deletions are
    explored and the branch with the larger value is kept.
    """
    cfg = cfg or SolverConfig()
    current = G
    while True:
        pairs = uncovered_pairs(current)
        if not pairs:
            return current
        deleted = False
        for i, j in pairs:
            Li = link(current, [i]).edges
            Lj = link(current, [j]).edges
            if Lj <= Li:
                keep = [v for v in current.vertices if v != j]
            elif Li <= Lj:
                keep = [v for v in current.vertices if v != i]
            else:
                continue
            current, _ = induced(current, keep)
            deleted = True
            break
        if deleted:
            continue
        i, j = pairs[0]
        Gi, _ = induced(current, [v for v in current.vertices if v != i])
        Gj, _ = induced(current, [v for v in current.vertices if v != j])
        Ri = uncovered_reduce(Gi, cfg)
        Rj = uncovered_reduce(Gj, cfg)
        vi = maximize(Ri, cfg).value
        vj = maximize(Rj, cfg).value
        # keep the better branch; on a tie prefer deleting the smaller label
        return Ri if vi > vj + 1e-12 or abs(vi - vj) <= 1e-12 else Rj
