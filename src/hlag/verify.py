"""Desk-scale verification tables: per-case bound checks, link identities,
reduction invariance, closed-form values, and the small-n extremal
dichotomy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import link
from .families import (
    case_family,
    complete,
    k53minus2,
    star,
    star_lambda,
)
from .freeness import SearchResult, extremal_lambda_search
from .solver import SolverConfig, gradient, maximize, uncovered_reduce

__all__ = [
    "VerificationRow",
    "CASE_BOUNDS",
    "LINK_VERTEX",
    "NONSTAR_CUTOFF",
    "golden_max",
    "verify_cases",
    "TheoremRow",
    "TheoremSummary",
    "verify_theorem",
]

# per-case upper bounds for the hull Lagrangian
CASE_BOUNDS = {
    1: Fraction(1, 108),
    2: Fraction(1, 64),
    3: Fraction(1, 64),
    4: Fraction(4, 243),
    5: Fraction(1, 64),
    6: Fraction(169, 10000),
    7: Fraction(169, 10000),
    8: Fraction(1, 64),
    9: Fraction(1, 64),
    10: Fraction(2, 135),
    11: Fraction(2, 135),
    12: Fraction(1, 72),
    13: Fraction(2, 135),
    14: Fraction(2, 135),
}

# vertex whose link each case argument reduces through
LINK_VERTEX = {k: (1 if k == 4 else 8) for k in range(1, 15)}

NONSTAR_CUTOFF = 0.0169
BOUND_TOL = 1e-7
IDENTITY_TOL = 1e-6
EQUALITY_TOL = 1e-9
SCALAR_TOL = 1e-10
# Dirichlet restarts of the solves that auto sends to multistart ascent;
# each claim is one auto solve, and the tests cross-check the two methods
RESTARTS = 16

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class VerificationRow:
    """One check: ``computed`` against the exact rational ``bound``.

    kind "upper-bound": pass iff computed <= bound + tol.
    kind "equality":    pass iff |bound - computed| <= tol.
    kind "identity":    computed is a signed gap, bound is 0.
    """

    check_id: str
    family: str
    n: int | None
    bound_num: int
    bound_den: int
    computed: float
    margin: float
    passed: bool
    kind: str
    tol: float


def _row(check_id, family, n, bound: Fraction, computed, kind, tol):
    margin = float(bound) - computed
    if kind == "upper-bound":
        passed = computed <= float(bound) + tol
    else:
        passed = abs(margin) <= tol
    return VerificationRow(
        check_id=check_id,
        family=family,
        n=n,
        bound_num=bound.numerator,
        bound_den=bound.denominator,
        computed=computed,
        margin=margin,
        passed=passed,
        kind=kind,
        tol=tol,
    )


def golden_max(f, a, b, xtol=1e-12):
    """Golden-section maximizer of a unimodal f on [a, b] -> (x, f(x))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def verify_cases(n_range=None, seed: int = 0):
    """The table of case-by-case checks.

    For every case k in 1..14 and every n in the range: lambda against the
    case bound, and the link identity lambda = (1/4) * L(x*_v) at the
    case's reduction vertex.  Plus, per n: the star closed form; once per
    table: the 5-vertex 3-graph bound, the scalar maximization, and
    invariance of each case link's Lagrangian under uncovered-pair
    reduction (at the largest n).
    """
    if n_range is None:
        n_range = range(8, 15)
    ns = sorted(n_range)
    if not ns:
        raise ValueError("empty n range")
    rows = []
    cfg = SolverConfig(restarts=RESTARTS, seed=seed)

    for k in sorted(CASE_BOUNDS):
        for n in ns:
            G = case_family(k, n)
            res = maximize(G, cfg)
            rows.append(
                _row(
                    f"case{k:02d}-bound-n{n}",
                    f"case{k}",
                    n,
                    CASE_BOUNDS[k],
                    res.value,
                    "upper-bound",
                    BOUND_TOL,
                )
            )
            v = LINK_VERTEX[k]
            grad = gradient(G, res.weighting)
            gap = res.value - grad[v - 1] / 4.0
            rows.append(
                _row(
                    f"case{k:02d}-link-identity-n{n}",
                    f"case{k}",
                    n,
                    Fraction(0),
                    gap,
                    "identity",
                    IDENTITY_TOL,
                )
            )

    for n in ns:
        res = maximize(star(n, 4), cfg)
        rows.append(
            _row(
                f"star-value-n{n}",
                "star",
                n,
                star_lambda(n),
                res.value,
                "equality",
                EQUALITY_TOL,
            )
        )

    res = maximize(k53minus2(), cfg)
    rows.append(
        _row(
            "k53minus2-bound",
            "k53minus2",
            5,
            Fraction(673, 10000),
            res.value,
            "upper-bound",
            BOUND_TOL,
        )
    )

    x, fx = golden_max(lambda t: 0.4 * t * (1.0 - t) ** 2, 0.0, 1.0)
    rows.append(
        _row(
            "scalar-max-8-135",
            "(1/5)*2x(1-x)^2",
            None,
            Fraction(8, 135),
            fx,
            "equality",
            SCALAR_TOL,
        )
    )

    n_top = ns[-1]
    for k in sorted(CASE_BOUNDS):
        G = case_family(k, n_top)
        L = link(G, [LINK_VERTEX[k]])
        reduced = uncovered_reduce(L, cfg)
        gap = maximize(reduced, cfg).value - maximize(L, cfg).value
        rows.append(
            _row(
                f"case{k:02d}-link-reduction",
                f"case{k}",
                n_top,
                Fraction(0),
                gap,
                "identity",
                IDENTITY_TOL,
            )
        )
    return rows


@dataclass(frozen=True)
class TheoremRow:
    n: int
    families: int
    evaluated: int
    max_value: float
    witness_is_star_subgraph: bool
    max_nonstar: float
    star_value: float
    star_formula: float
    scaled_star: float  # 4! * star_value
    nonstar_ok: bool
    star_ok: bool


@dataclass(frozen=True)
class TheoremSummary:
    rows: tuple
    violations: tuple  # (description, witness Hypergraph or None)
    trend_monotone: bool
    passed: bool
    results: tuple  # underlying SearchResults


def verify_theorem(
    n_max: int = 7,
    n_min: int = 4,
    jobs: int = 1,
    seed: int = 0,
    guard: int | None = None,
) -> TheoremSummary:
    """Exhaustive small-n check of the extremal dichotomy.

    For each n: no family outside the star has lambda reaching the cutoff,
    the star's lambda matches its closed form, and at n=7 the overall
    maximum is the complete graph's value.  Also reports the rescaled star
    values, which must increase toward 27/64.
    """
    if n_min > n_max:
        raise ValueError("empty n range")
    rows = []
    results = []
    violations = []
    cfg = SolverConfig(restarts=RESTARTS, seed=seed)
    for n in range(n_min, n_max + 1):
        sr: SearchResult = extremal_lambda_search(
            n, 4, 2, jobs=jobs, seed=seed, guard=guard
        )
        results.append(sr)
        star_res = maximize(star(n, 4), cfg)
        formula = float(star_lambda(n))
        nonstar_ok = (
            sr.nonstar_witness is None or sr.max_nonstar_value < NONSTAR_CUTOFF
        )
        star_ok = abs(star_res.value - formula) <= EQUALITY_TOL
        if not nonstar_ok:
            violations.append(
                (
                    f"n={n}: non-star family reaches "
                    f"{sr.max_nonstar_value:.17g} >= {NONSTAR_CUTOFF}",
                    sr.nonstar_witness,
                )
            )
        if not star_ok:
            violations.append(
                (
                    f"n={n}: star value {star_res.value:.17g} "
                    f"!= closed form {formula:.17g}",
                    star(n, 4),
                )
            )
        if n == 7:
            target = 5.0 / 343.0
            if abs(sr.max_value - target) > EQUALITY_TOL:
                violations.append(
                    (
                        f"n=7: overall max {sr.max_value:.17g} != 5/343",
                        sr.witness,
                    )
                )
            if sr.witness.edges != complete(7, 4).edges:
                violations.append(
                    ("n=7: extremal witness is not the complete 4-graph",
                     sr.witness)
                )
        rows.append(
            TheoremRow(
                n=n,
                families=sr.families,
                evaluated=sr.evaluated,
                max_value=sr.max_value,
                witness_is_star_subgraph=sr.witness_is_star_subgraph,
                max_nonstar=sr.max_nonstar_value,
                star_value=star_res.value,
                star_formula=formula,
                scaled_star=24.0 * star_res.value,
                nonstar_ok=nonstar_ok,
                star_ok=star_ok,
            )
        )
    scaled = [r.scaled_star for r in rows]
    trend = all(a < b for a, b in zip(scaled, scaled[1:])) and all(
        s < 27.0 / 64.0 for s in scaled
    )
    if not trend:
        violations.append(("rescaled star values fail to rise toward 27/64", None))
    return TheoremSummary(
        rows=tuple(rows),
        violations=tuple(violations),
        trend_monotone=trend,
        passed=not violations,
        results=tuple(results),
    )
