import random

import pytest

from spinor10 import counting
from spinor10.clifford import DIM_S, HalfSpinor, MINUS
from spinor10.counting import (
    BudgetExceededError,
    CountReport,
    MOTIVE_ROWS,
    count_report,
    count_section_points,
    dual_point_profile,
    incidence_rhs,
    predicted_count,
    projective_count,
    quadric_count,
    verify_blowup_identity,
    verify_k6_relation,
)
from spinor10.fields import PrimeField
from spinor10.linalg import Subspace
from spinor10.scan import zero_locus
from spinor10.sections import make_section, smoothness_scan
from spinor10.variety import random_spinor

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_predicted_count_pinned_values():
    assert predicted_count(0, 2) == 2295
    assert predicted_count(1, 2) == 1143
    assert predicted_count(2, 2) == 567
    assert predicted_count(3, 2) == 279
    assert predicted_count(4, 2) == 135
    assert predicted_count(5, 2) == 63
    assert predicted_count(1, 3) == 30604
    assert predicted_count(0, 2) == (2 + 1) * (4 + 1) * (8 + 1) * (16 + 1)


def test_predicted_count_range():
    with pytest.raises(ValueError):
        predicted_count(6, 2)
    with pytest.raises(ValueError):
        predicted_count(-1, 2)


# The rows of smooth X_K for k = 2..5, kept here as reference data: the
# library derives them from rows 0 and 1 through the incidence identity.
REFERENCE_ROWS = {
    **MOTIVE_ROWS,
    2: (1, 1, 1, 2, 2, 2, 1, 1, 1),
    3: (1, 1, 1, 2, 2, 1, 1, 1),
    4: (1, 1, 1, 2, 1, 1, 1),
    5: (1, 1, 1, 1, 1, 1),
}


def test_motive_rows_are_those_of_x_and_its_hyperplane_sections():
    assert sorted(MOTIVE_ROWS) == [0, 1]


@pytest.mark.parametrize("k", range(6))
def test_predicted_count_matches_the_reference_rows(k):
    for q in range(2, 40):
        assert predicted_count(k, q) == sum(n * q**i for i, n in enumerate(REFERENCE_ROWS[k]))


def test_incidence_count_constants_beyond_k_5():
    for q in range(2, 40):
        assert incidence_rhs(6, q, 0) == q**5 * (1 + q + q**3 + q**4)
        assert incidence_rhs(7, q, 0) == q**6 * (1 + q**3)
        assert incidence_rhs(8, q, 0) == 0
        # K = S-: X_K is empty and X^v_K is all of X^v, a copy of X
        assert incidence_rhs(16, q, predicted_count(0, q)) == 0
        for k in range(1, 17):
            assert incidence_rhs(k, q, 3) - incidence_rhs(k, q, 0) == 3 * q**7


def test_motive_rows_hyperplane_pattern():
    # each row is the previous one with one middle Lefschetz power removed
    for k in range(5):
        row, nxt = REFERENCE_ROWS[k], REFERENCE_ROWS[k + 1]
        assert len(nxt) == len(row) - 1
        drop = [i for i in range(len(nxt)) if nxt[i] != row[i]]
        assert len(drop) <= 1
        if drop:
            (i,) = drop
            assert nxt[i] == row[i] - 1 and nxt[i + 1 :] == row[i + 2 :]


def test_full_scan_f2():
    K0 = Subspace(F2, DIM_S, [])
    assert count_section_points(K0, "X") == 2295
    assert count_section_points(Subspace.full(F2, DIM_S), "X^v") == 2295  # self-dual


def test_quadric_count():
    assert quadric_count(2) == 527
    assert quadric_count(2) == sum(2**i for i in range(9)) + 2**4
    assert quadric_count(3) == sum(3**i for i in range(9)) + 3**4


@pytest.mark.parametrize("q", [2, 3, 5])
def test_quadric_count_matches_enumeration(q):
    # q_V = sum_i e_i f_i on P^9
    coeff = [[1 if j == i + 5 else 0 for j in range(10)] for i in range(10)]
    assert quadric_count(q) == zero_locus([coeff], q, 10)[0]


def test_budget_error():
    K0 = Subspace(F3, DIM_S, [])
    with pytest.raises(BudgetExceededError):
        count_section_points(K0, "X", 4, budget=1000)


def test_budget_bounds_the_chart_fibres_not_the_scan():
    # P^15(F_4) and P^15(F_5) are far over the default budget, but the charts
    # enumerate 16 Q^4 fibres: 4096 over F_4
    K0 = Subspace(F2, DIM_S, [])
    assert count_section_points(K0, "X", 2) == predicted_count(0, 4) == 1419925
    assert count_section_points(K0, "X", 2, budget=4096) == 1419925
    with pytest.raises(BudgetExceededError, match="4096 fibres .* exceeds budget 4095"):
        count_section_points(K0, "X", 2, budget=4095)
    assert count_section_points(Subspace(PrimeField(5), DIM_S, []), "X") == 12304656
    # the scan path still refuses by its points: P^4(F_32) on the X^v side
    K5 = make_section("generic-5", F2, seed=0).K
    with pytest.raises(BudgetExceededError, match="1082401 points"):
        count_section_points(K5, "X^v", 5, budget=1082400)
    # X^v_K takes the charts by the same rule: P^14(F_5) has 7.6e9 points,
    # the charts 16 * 5^4 fibres
    K15 = random_section(F5, random.Random(15), 15)
    dual = count_section_points(K15, "X^v", budget=10000)
    assert incidence_rhs(15, 5, dual) == 5**14 * count_section_points(K15, "X")
    with pytest.raises(BudgetExceededError, match="10000 fibres .* exceeds budget 9999"):
        count_section_points(K15, "X^v", budget=9999)


def test_blowup_identity_over_an_extension():
    for k in (1, 3, 5):
        r = verify_blowup_identity(make_section(f"generic-{k}", F2, seed=k).K, 2)
        assert (r.m, r.actual, r.predicted) == (2, predicted_count(k, 4), predicted_count(k, 4))
        assert r.passed and r.identity_lhs == r.identity_rhs


def test_extension_degree_below_one_is_refused():
    K0 = Subspace(F2, DIM_S, [])
    for m in (0, -1):
        with pytest.raises(ValueError, match="extension degree"):
            count_section_points(K0, "X", m)


def test_counts_smooth_sections_f2():
    for k in (1, 2, 3, 4, 5):
        s = make_section(f"generic-{k}", F2, seed=k)
        assert count_section_points(s.K, "X") == predicted_count(k, 2)


def test_count_f3_hyperplane():
    s = make_section("generic-1", F3, seed=1)
    assert count_section_points(s.K, "X") == 30604


def test_extension_count_matches_prediction():
    s = make_section("generic-3", F2, seed=2)
    assert count_section_points(s.K, "X", 2) == predicted_count(3, 4)


def test_blowup_identity_smooth_sections():
    for k in (1, 2, 3, 4, 5):
        s = make_section(f"generic-{k}", F2, seed=10 + k)
        r = verify_blowup_identity(s.K)
        assert r.passed and r.identity_lhs == r.identity_rhs
    s = make_section("generic-5", F3, seed=4)
    r = verify_blowup_identity(s.K)
    assert r.passed


def test_blowup_identity_pinned_k2():
    s = make_section("generic-2", F2, seed=12)
    r = verify_blowup_identity(s.K)
    assert r.identity_lhs == 16383 + 567 * 30 == 33393
    assert r.identity_rhs == 527 * 63 + 3 * 64 == 33393


def test_count_report_csv():
    s = make_section("generic-1", F2, seed=0)
    r = count_report(s.K, "X")
    assert CountReport.CSV_HEADER == "q, m, k, side, actual, predicted, pass"
    assert r.csv_row() == "2, 1, 1, X, 1143, 1143, True"


def pencil_through_a_pure_spinor(field):
    """<e_1, e_2 + e_345> in S-: e_1 is pure, so X_K is singular."""
    pure = HalfSpinor.from_subsets(field, MINUS, [((1,), 1)]).coords
    other = HalfSpinor.from_subsets(field, MINUS, [((2,), 1), ((3, 4, 5), 1)]).coords
    return Subspace(field, DIM_S, [pure, other])


def test_count_report_predicts_singular_sections_from_the_dual_count():
    r = count_report(pencil_through_a_pure_spinor(F2), "X")
    assert (r.actual, r.predicted, r.passed, r.notes) == (631, 567 + 2**6, True, "")


def random_section(field, rng, k):
    while True:
        K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)])
        if K.dim == k:
            return K


def test_count_report_predicts_over_extensions_and_up_to_k_8():
    r = count_report(make_section("generic-3", F2, seed=0).K, "X", 2)
    assert (r.predicted, r.passed, r.notes) == (22165, True, "")
    r = count_report(Subspace(F2, DIM_S, []), "X", 2)
    assert r.actual == r.predicted == 5 * 17 * 65 * 257
    rng = random.Random(7)
    for k in (6, 7, 8):
        r = count_report(random_section(F3, rng, k), "X")
        assert r.passed and r.notes == "", r
    # beyond k = 8 side X is still checked by the identity; X^v_K is not predicted
    K = random_section(F2, rng, 9)
    r = count_report(K, "X")
    assert r.passed and r.identity_lhs == r.identity_rhs == 2**8 * r.actual, r
    assert count_report(K, "X^v").notes == "no prediction"


def test_count_report_fails_when_the_dual_count_is_off_by_one(monkeypatch):
    real = counting.count_section_points

    def off_by_one(K, side="X", m=1, **kw):
        return real(K, side, m, **kw) + (side == "X^v")

    monkeypatch.setattr(counting, "count_section_points", off_by_one)
    rng = random.Random(3)
    for k in (1, 3, 6):
        r = count_report(random_section(F2, rng, k), "X")
        assert not r.passed and r.predicted - r.actual == 2 ** (8 - k), r


def test_dual_point_profile_refuses_degree_one_over_budget():
    K = random_section(F2, random.Random(1), 6)
    with pytest.raises(BudgetExceededError):
        dual_point_profile(K, max_degree=4, budget=10)
    with pytest.raises(BudgetExceededError):
        verify_k6_relation(K, max_degree=4, budget=10)
    # degree 2 (P^5(F_4), 1365 points) over budget is left out
    counts, _ = dual_point_profile(K, max_degree=4, budget=100)
    assert sorted(counts) == [1]


def test_k6_relation_random_sections():
    rng = random.Random(0)
    done = 0
    while done < 3:
        K = Subspace(F2, DIM_S, [random_spinor(F2, rng, MINUS) for _ in range(6)])
        if K.dim != 6:
            continue
        r = verify_k6_relation(K, max_degree=4)
        assert r.predicted == 27 + 4 * (r.predicted - 27) // 4
        assert r.passed, r
        done += 1


def test_dual_point_profile_consistency():
    rng = random.Random(5)
    while True:
        K = Subspace(F2, DIM_S, [random_spinor(F2, rng, MINUS) for _ in range(6)])
        if K.dim == 6:
            break
    counts, degrees = dual_point_profile(K, max_degree=4)
    assert sum(d * a for d, a in degrees.items()) <= 12
    for m, n in counts.items():
        assert n == sum(d * a for d, a in degrees.items() if m % d == 0)
