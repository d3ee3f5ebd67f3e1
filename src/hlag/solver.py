"""Maximization of the Lagrangian polynomial over the probability simplex.

Two routes are implemented and kept deliberately independent so they can
cross-check each other:

* ``multistart-ascent`` — batched exponentiated-gradient ascent from
  Dirichlet(1) restarts plus the uniform start, followed by a damped Newton
  polish on the detected support;
* ``support-enum`` — exact enumeration of candidate supports (guarded by
  size), solving the stationarity system on each support by damped Newton.

``auto`` picks support-enum for small graphs and multistart otherwise.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, induced, link, same_links, uncovered_pairs
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
    "densify",
    "uncovered_reduce",
]

DEFAULT_GUARD_N = 12
MAX_ITERATIONS = 500  # exponentiated-gradient steps per multistart ascent
_CLAMP = 1e-12  # weights below _CLAMP * max(x) are treated as exact zeros


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`maximize`.

    ``method`` is ``auto`` (support enumeration for n <= 8, multistart
    ascent above), ``support-enum`` or ``multistart-ascent``.  The ascent
    runs ``restarts`` Dirichlet starts drawn from ``seed`` plus the uniform
    one, and stops once no start gains ``tol`` for 20 steps.  Support
    enumeration is bounded by the HLAG_GUARD_N environment variable
    (default 12).
    """

    method: str = "auto"
    restarts: int = 64
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "multistart-ascent", "support-enum"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.restarts < 1 or self.tol <= 0:
            raise ValueError("restarts must be >= 1 and tol positive")


def _guard_n() -> int:
    """The support-enumeration size bound: HLAG_GUARD_N, or 12 when unset."""
    env = os.environ.get("HLAG_GUARD_N")
    if not env:
        return DEFAULT_GUARD_N
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HLAG_GUARD_N must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class LagrangianResult:
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
    support = {i + 1 for i in range(G.n) if x[i] > 0.0}
    covered = set()
    for e in G.edges:
        covered.update(itertools.combinations(e, 2))
    bad = tuple(
        p
        for p in itertools.combinations(sorted(support), 2)
        if p not in covered
    )
    return KktReport(res, bad)


# ---------------------------------------------------------------------------
# vectorized internals


def _edge_array(G: Hypergraph) -> np.ndarray:
    return np.asarray(G.edge_list(), dtype=np.int64).reshape(-1, G.r) - 1


def _eval_rows(E: np.ndarray, X: np.ndarray) -> np.ndarray:
    if E.size == 0:
        return np.zeros(X.shape[0])
    return np.prod(X[:, E], axis=2).sum(axis=1)


def _grad_rows(E: np.ndarray, X: np.ndarray, n: int) -> np.ndarray:
    B = X.shape[0]
    if E.size == 0:
        return np.zeros((B, n))
    W = X[:, E]  # (B, m, r)
    r = E.shape[1]
    pre = np.ones_like(W)
    suf = np.ones_like(W)
    for t in range(1, r):
        pre[:, :, t] = pre[:, :, t - 1] * W[:, :, t - 1]
    for t in range(r - 2, -1, -1):
        suf[:, :, t] = suf[:, :, t + 1] * W[:, :, t + 1]
    loo = pre * suf
    idx = (np.arange(B)[:, None, None] * n + E[None, :, :]).ravel()
    flat = np.bincount(idx, weights=loo.ravel(), minlength=B * n)
    return flat.reshape(B, n)


def _hessian(E: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    H = np.zeros((n, n))
    if E.size == 0:
        return H
    r = E.shape[1]
    for ia in range(r):
        for ib in range(r):
            if ia == ib:
                continue
            p = np.ones(E.shape[0])
            for t in range(r):
                if t != ia and t != ib:
                    p = p * x[E[:, t]]
            np.add.at(H, (E[:, ia], E[:, ib]), p)
    return H


def _restrict(E, n, S):
    """Return S (0-based labels) sorted, and the edges of E inside S
    relabeled to 0..len(S)-1; the edge array is empty when S carries no
    edge."""
    S = np.asarray(sorted(S), dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[S] = True
    pos = -np.ones(n, dtype=np.int64)
    pos[S] = np.arange(len(S))
    return S, pos[E[mask[E].all(axis=1)]]


def _newton_on_support(E, n, r, S, x0=None, iters=60):
    """Damped Newton for the stationarity system on support S (0-based).

    Returns (full-length weighting, residual of the stationarity system) or
    (None, inf) when the support carries no edges.
    """
    S, Es = _restrict(E, n, S)
    k = len(S)
    if Es.size == 0:
        return None, math.inf

    x = np.full(k, 1.0 / k) if x0 is None else np.asarray(x0, dtype=float)
    g = _grad_rows(Es, x[None, :], k)[0]
    c = float(x @ g)  # r*lam at start
    fnorm = max(np.abs(g - c).max(), abs(x.sum() - 1.0))
    for _ in range(iters):
        if fnorm < 1e-14:
            break
        H = _hessian(Es, x, k)
        J = np.zeros((k + 1, k + 1))
        J[:k, :k] = H
        J[:k, k] = -1.0
        J[k, :k] = 1.0
        F = np.concatenate([g - c, [x.sum() - 1.0]])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        t, accepted = 1.0, False
        for _ in range(40):
            xn = x + t * step[:k]
            cn = c + t * step[k]
            if xn.min() >= -1e-10:
                gn = _grad_rows(Es, xn[None, :], k)[0]
                fn = max(np.abs(gn - cn).max(), abs(xn.sum() - 1.0))
                if fn < fnorm:
                    x, c, g, fnorm, accepted = xn, cn, gn, fn, True
                    break
            t *= 0.5
        if not accepted:
            break
    x = np.clip(x, 0.0, None)
    total = x.sum()
    if total <= 0:
        return None, math.inf
    x = x / total
    out = np.zeros(n)
    out[S] = x
    return out, fnorm


def _eg_restricted(E, n, S, iters=3000, tol=1e-16):
    """Single-chain exponentiated-gradient ascent confined to support S.

    Deterministic (uniform start, no RNG); used to seed Newton on supports
    where the damped iteration stalls away from the stationary point.
    Returns the restricted point (length len(S)) or None without edges.
    """
    S, Es = _restrict(E, n, S)
    k = len(S)
    if Es.size == 0:
        return None
    x = np.full(k, 1.0 / k)
    val = float(_eval_rows(Es, x[None, :])[0])
    eta, stall = 1.0, 0
    for _ in range(iters):
        g = _grad_rows(Es, x[None, :], k)[0]
        y = x * np.exp(eta * (g - g.max()))
        s = y.sum()
        if s <= 0:
            break
        y = y / s
        vy = float(_eval_rows(Es, y[None, :])[0])
        if vy >= val:
            stall = stall + 1 if vy - val < tol else 0
            x, val, eta = y, vy, min(eta * 1.3, 1e6)
        else:
            eta *= 0.5
            stall += 1
        if stall >= 30:
            break
    return x


def _tangent_ascent_exists(E, n, S, x_full):
    """True when the simplex-tangent Hessian at x has positive curvature.

    A stationary point of the restricted problem with an ascent direction
    is a saddle, not the support's maximum, and needs re-seeding.
    """
    S, Es = _restrict(E, n, S)
    k = len(S)
    if k <= 1 or Es.size == 0:
        return False
    H = _hessian(Es, x_full[S], k)
    P = np.eye(k) - np.full((k, k), 1.0 / k)
    M = P @ H @ P
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    return bool(w[-1] > 1e-12 + 1e-9 * float(np.abs(H).max()))


def _polish_on_support(E, n, r, x_full):
    """Newton polish of a full-length point on its positive support.

    Falls back to an ascent-seeded retry when Newton stalls; returns the
    input unchanged unless the polished point is stationary and at least
    as valuable.
    """
    S = np.where(x_full > 0)[0]
    if len(S) == 0:
        return x_full
    x0 = x_full[S] / x_full[S].sum()
    pol, fn = _newton_on_support(E, n, r, S, x0=x0)
    if fn > 1e-6:
        seed = _eg_restricted(E, n, S)
        if seed is not None:
            p2, f2 = _newton_on_support(E, n, r, S, x0=seed)
            if p2 is not None and f2 < fn:
                pol, fn = p2, f2
    if pol is None or fn > 1e-6:
        return x_full
    v_new = float(_eval_rows(E, pol[None, :])[0])
    v_old = float(_eval_rows(E, x_full[None, :])[0])
    return pol if v_new >= v_old - 1e-12 else x_full


def _eg_ascent(E, n, cfg: SolverConfig, rng):
    """Batched exponentiated-gradient ascent; returns (X rows, values)."""
    B = cfg.restarts + 1
    X = np.vstack(
        [np.full((1, n), 1.0 / n), rng.dirichlet(np.ones(n), size=cfg.restarts)]
    )
    eta = np.full(B, 1.0)
    val = _eval_rows(E, X)
    stall = 0
    for _ in range(MAX_ITERATIONS):
        L = _grad_rows(E, X, n)
        shift = L - L.max(axis=1, keepdims=True)
        Y = X * np.exp(eta[:, None] * shift)
        s = Y.sum(axis=1, keepdims=True)
        Y = np.where(s > 0, Y / np.where(s > 0, s, 1.0), X)
        vy = _eval_rows(E, Y)
        acc = vy >= val
        improvement = np.where(acc, vy - val, 0.0).max()
        X = np.where(acc[:, None], Y, X)
        val = np.where(acc, vy, val)
        eta = np.where(acc, np.minimum(eta * 1.3, 1e6), eta * 0.5)
        if improvement < cfg.tol:
            stall += 1
            if stall >= 20:
                break
        else:
            stall = 0
    return X, val


def _covered_within(edges_inside, members) -> bool:
    covered = set()
    for e in edges_inside:
        covered.update(itertools.combinations(e, 2))
    return all(
        p in covered for p in itertools.combinations(sorted(members), 2)
    )


def _support_enum(G: Hypergraph, E, cfg: SolverConfig):
    guard = _guard_n()
    if G.n > guard:
        raise UnsupportedSizeError(
            f"support enumeration needs n <= {guard}, got n={G.n} "
            "(raise via HLAG_GUARD_N)"
        )
    n, r = G.n, G.r
    emasks = [sum(1 << (v - 1) for v in e) for e in G.edge_list()]
    edge_list = G.edge_list()
    best_val, best_x, best_support = -1.0, None, None
    tried = 0
    for smask in range(1, 1 << n):
        inside = [
            edge_list[i] for i, em in enumerate(emasks) if em & ~smask == 0
        ]
        if not inside:
            continue
        members = [v for v in range(1, n + 1) if smask >> (v - 1) & 1]
        # an optimum of minimal support covers all its pairs, so supports
        # with an internally uncovered pair cannot be minimal-optimal
        if not _covered_within(inside, members):
            continue
        S = [v - 1 for v in members]
        x, fnorm = _newton_on_support(E, n, r, S)
        tried += 1
        if x is not None and fnorm > 1e-9:
            # retry from a degree-weighted seed (breaks symmetric saddles)
            deg = np.zeros(len(S))
            for e in inside:
                for v in e:
                    deg[members.index(v)] += 1.0
            seed = deg + 1.0
            seed = seed / seed.sum()
            x2, f2 = _newton_on_support(E, n, r, S, x0=seed)
            if x2 is not None and f2 < fnorm:
                x, fnorm = x2, f2
        if (
            x is not None
            and fnorm <= 1e-6
            and _tangent_ascent_exists(E, n, S, x)
        ):
            # Newton converged to a saddle of the restricted problem;
            # re-seed from ascent and keep the better stationary point
            seed = _eg_restricted(E, n, S)
            if seed is not None:
                x3, f3 = _newton_on_support(E, n, r, S, x0=seed)
                if (
                    x3 is not None
                    and f3 <= 1e-6
                    and float(_eval_rows(E, x3[None, :])[0])
                    > float(_eval_rows(E, x[None, :])[0])
                ):
                    x, fnorm = x3, f3
        if x is None or fnorm > 1e-6:
            continue
        val = float(_eval_rows(E, x[None, :])[0])
        sup = tuple(v + 1 for v in range(n) if x[v] > 0.0)
        if val > best_val + 1e-12 or (
            abs(val - best_val) <= 1e-12
            and best_support is not None
            and sup < best_support
        ):
            best_val, best_x, best_support = val, x, sup
    if best_x is None:
        return np.full(n, 1.0 / n), 0
    return best_x, tried


def _multistart(G: Hypergraph, E, cfg: SolverConfig):
    n, r = G.n, G.r
    rng = np.random.default_rng(cfg.seed)
    X, val = _eg_ascent(E, n, cfg, rng)
    order = np.argsort(-val, kind="stable")
    best_x = X[order[0]]
    best_val = float(val[order[0]])
    seen = set()
    for row in order[: min(10, len(order))]:
        x = X[row]
        mx = x.max()
        if mx <= 0:
            continue
        for thr in (1e-3, 1e-6, 1e-9):
            S = np.where(x > thr * mx)[0]
            key = S.tobytes()
            if key in seen or len(S) == 0:
                continue
            seen.add(key)
            x0 = x[S] / x[S].sum()
            polished, fnorm = _newton_on_support(E, n, r, S, x0=x0)
            if polished is None or fnorm > 1e-6:
                continue
            v = float(_eval_rows(E, polished[None, :])[0])
            if v > best_val:
                best_val, best_x = v, polished
    return best_x, cfg.restarts


def _equalize(G: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Average weights over classes of vertices with mirrored links.

    Swapping two such vertices is an automorphism, so averaging never
    decreases the value; the caller still re-checks numerically.
    """
    parent = list(range(G.n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, G.n + 1):
        for j in range(i + 1, G.n + 1):
            if find(i) != find(j) and same_links(G, i, j):
                parent[find(j)] = find(i)
    out = x.copy()
    classes = {}
    for v in range(1, G.n + 1):
        classes.setdefault(find(v), []).append(v - 1)
    for members in classes.values():
        if len(members) > 1:
            out[members] = out[members].mean()
    return out


def maximize(G: Hypergraph, cfg: SolverConfig | None = None) -> LagrangianResult:
    """Best found Lagrangian value with its weighting and KKT certificate."""
    cfg = cfg or SolverConfig()
    method = cfg.method
    if G.n == 0:
        return LagrangianResult(0.0, (), (), 0.0, method, 0, cfg.seed)
    if not G.edges:
        x = (1.0 / G.n,) * G.n
        support = tuple(range(1, G.n + 1))
        return LagrangianResult(0.0, x, support, 0.0, method, 0, cfg.seed)
    if method == "auto":
        method = "support-enum" if G.n <= 8 else "multistart-ascent"
    E = _edge_array(G)
    if method == "support-enum":
        x, used = _support_enum(G, E, cfg)
    else:
        x, used = _multistart(G, E, cfg)

    avg = _equalize(G, x)
    v_avg = float(_eval_rows(E, avg[None, :])[0])
    v_cur = float(_eval_rows(E, x[None, :])[0])
    if v_avg >= v_cur - 1e-10:
        if v_avg > v_cur + 1e-12:
            # averaging moved strictly uphill, so the point left its
            # stationary basin; polish before reporting
            avg = _polish_on_support(E, G.n, G.r, avg)
        x = avg
    x = np.clip(x, 0.0, None)
    x[x < _CLAMP * x.max()] = 0.0
    x = x / x.sum()
    weighting = tuple(float(v) for v in x)
    value = evaluate(G, weighting)
    support = tuple(i + 1 for i in range(G.n) if weighting[i] > 0.0)
    residual = kkt_residual(G, weighting, value)
    return LagrangianResult(value, weighting, support, residual, method, used, cfg.seed)


def densify(G: Hypergraph, cfg: SolverConfig | None = None):
    """Restrict to optimum supports until the optimum has full support.

    Returns (dense subgraph, its LagrangianResult); the value matches the
    input graph's Lagrangian.
    """
    cfg = cfg or SolverConfig()
    current = G
    while True:
        res = maximize(current, cfg)
        if len(res.support) == current.n:
            return current, res
        if not res.support:
            empty = Hypergraph(current.r, 0, frozenset())
            return empty, maximize(empty, cfg)
        current, _ = induced(current, res.support)


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
