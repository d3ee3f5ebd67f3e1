import pytest

from hlag.families import complete
from hlag.verify import golden_max, verify_cases, verify_theorem

# the bound- and identity-rows that genuinely fail at the written-out
# case families: the first family's optimum ignores the high vertices, so
# its bound row and the link identities at weight-zero vertices miss
EXPECTED_FAILING_N8 = {
    "case01-bound-n8",
    "case01-link-identity-n8",
    "case02-link-identity-n8",
    "case05-link-identity-n8",
    "case06-link-identity-n8",
    "case08-link-identity-n8",
    "case10-link-identity-n8",
}


@pytest.fixture(scope="module")
def rows_n8():
    return verify_cases(n_range=range(8, 9))


def test_row_count_and_ids_unique(rows_n8):
    assert len(rows_n8) == 45  # 14 bounds + 14 identities + 14 reductions + 3
    ids = [r.check_id for r in rows_n8]
    assert len(set(ids)) == len(ids)


def test_expected_failures_exact(rows_n8):
    failed = {r.check_id for r in rows_n8 if not r.passed}
    assert failed == EXPECTED_FAILING_N8


def test_bound_rows_margins(rows_n8):
    for r in rows_n8:
        if r.kind != "upper-bound":
            continue
        bound = r.bound_num / r.bound_den
        assert r.margin == pytest.approx(bound - r.computed, abs=1e-15)
        assert r.passed == (r.computed <= bound + r.tol)


def test_identity_rows(rows_n8):
    for r in rows_n8:
        if r.kind != "identity":
            continue
        assert r.bound_num == 0
        assert r.passed == (abs(r.computed) <= r.tol)


def test_star_value_row(rows_n8):
    row = next(r for r in rows_n8 if r.check_id == "star-value-n8")
    assert row.passed
    assert row.bound_num == 135 and row.bound_den == 12544


def test_k53minus2_row(rows_n8):
    row = next(r for r in rows_n8 if r.check_id == "k53minus2-bound")
    assert row.passed
    assert row.computed <= 0.0673


def test_scalar_row(rows_n8):
    row = next(r for r in rows_n8 if r.check_id == "scalar-max-8-135")
    assert row.passed
    assert row.computed == pytest.approx(8 / 135, abs=1e-10)


def test_golden_max_criterion_function():
    x, v = golden_max(lambda t: 0.2 * 2 * t * (1 - t) ** 2, 0.0, 1.0)
    assert x == pytest.approx(1 / 3, abs=1e-6)
    assert v == pytest.approx(8 / 135, abs=1e-10)


def test_golden_max_parabola():
    x, v = golden_max(lambda t: -(t - 0.7) ** 2 + 2.0, 0.0, 1.0)
    assert x == pytest.approx(0.7, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_verify_theorem_small():
    summary = verify_theorem(n_max=6, jobs=2)
    assert summary.passed
    assert summary.trend_monotone
    assert summary.violations == ()
    ns = [row.n for row in summary.rows]
    assert ns == [4, 5, 6]
    for row in summary.rows:
        assert row.star_ok
        assert row.nonstar_ok
    # at n=4 there is no non-star family at all
    assert summary.rows[0].max_nonstar == -1.0


def test_verify_theorem_n7_hits_complete():
    summary = verify_theorem(n_max=7, jobs=4)
    assert summary.passed
    row = summary.rows[-1]
    assert row.n == 7
    assert row.max_value == pytest.approx(5 / 343, abs=1e-9)
    assert summary.results[-1].witness.edges == complete(7, 4).edges


def test_theorem_rejects_an_empty_n_range():
    with pytest.raises(ValueError, match="empty n range"):
        verify_theorem(n_max=4, n_min=9)


@pytest.mark.parametrize("jobs", [0, -3])
def test_theorem_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        verify_theorem(n_max=5, jobs=jobs)
