"""Counts of X_K and X^v_K on the 16 affine charts of X: the charts
themselves, the closed-form quadric counts of the fibres, agreement with the
scans, the size rule, and the incidence identity, checked with one side of
it counted by a scan that shares no code with the charts."""

import random
from functools import reduce
from itertools import product

import numpy as np
import pytest

from spinor10 import counting, scan
from spinor10.clifford import CHARTS, DIM_S, MINUS, MU_INT, PFAFFIAN_TERMS, PLUS
from spinor10.counting import (
    CHART_CROSSOVER,
    count_on_charts,
    count_section_points,
    predicted_count,
    projective_count,
    quadric_count,
)
from spinor10.fields import PrimeField, get_ext_field
from spinor10.linalg import Subspace
from spinor10.scan import ext_zero_locus, num_projective_points, zero_locus
from spinor10.sections import make_section, perp_in_plus
from spinor10.variety import is_pure, random_pure_witness, random_spinor, restrict_quadric


def big_cell_point(field, entries):
    """s(A) = (1, a_ij, Pf_ijkl(A)) for the 10 entries a_ij in S+ order."""
    s = [field.one] + list(entries) + [field.zero] * 5
    for index, terms in PFAFFIAN_TERMS.items():
        for sign, u, v in terms:
            term = field.mul(s[u], s[v])
            s[index] = field.add(s[index], term if sign > 0 else field.neg(term))
    return s


@pytest.mark.parametrize("c", range(DIM_S))
def test_each_chart_maps_the_big_cell_into_x_with_coordinate_c_a_unit(c):
    field = PrimeField(7)
    rng = random.Random(c)
    for _ in range(25):
        s = big_cell_point(field, [field.sample(rng) for _ in range(10)])
        g = [field.zero] * DIM_S
        for x, (j, sign) in zip(s, CHARTS[c]):
            g[j] = x if sign > 0 else field.neg(x)
        assert is_pure(field, tuple(g), PLUS)
        assert g[c] in (1, 6)


def random_section(field, rng, k, pure):
    """A k-dim K in S-, containing a pure spinor when `pure`."""
    while True:
        vectors = [random_spinor(field, rng, MINUS) for _ in range(k)]
        if pure and k:
            vectors[0] = random_pure_witness(field, rng, MINUS).spinor
        K = Subspace(field, DIM_S, vectors)
        if K.dim == k:
            return K


def field_tables(p, m):
    """The addition and multiplication tables of F_{p^m} on codes, built by
    the field's scalar arithmetic, and the scan's code tables."""
    field = PrimeField(p) if m == 1 else get_ext_field(p, m)
    q = p**m
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul, scan.field_tables(p if m == 1 else field)


def enumerated_zeros(add, mul, c):
    """Zeros of z^T c z in F_q^d, those with z_{d-1} = 0 and those with
    z_{d-1} = 1, by evaluating every term c_ij z_i z_j at every z."""
    q, d = len(add), len(c)
    z = np.indices((q,) * d).reshape(d, -1)
    value = np.zeros(q**d, dtype=np.int64)
    for i, j in product(range(d), repeat=2):
        value = add[value, mul[c[i][j], mul[z[i], z[j]]]]
    zero = value == 0
    return int(zero.sum()), int((zero & (z[-1] == 0)).sum()), int((zero & (z[-1] == 1)).sum())


def random_rank_form(add, mul, rng, r, d):
    """An upper-triangular form f(A z) for random f on F_q^r and A: F_q^d ->
    F_q^r, so of rank at most r."""
    q = len(add)
    f = [[rng.randrange(q) if i <= j else 0 for j in range(r)] for i in range(r)]
    A = [[rng.randrange(q) for _ in range(d)] for _ in range(r)]
    c = np.zeros((d, d), dtype=np.int64)
    for a, b in product(range(r), repeat=2):
        for k, l in product(range(d), repeat=2):
            term = mul[f[a][b], mul[A[a][k], A[b][l]]]
            c[min(k, l), max(k, l)] = add[c[min(k, l), max(k, l)], term]
    return c


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (5, 1)])
def test_affine_solve_matches_enumeration(p, m):
    """Random systems of every rank in 3 unknowns, consistent or not: sol
    [t, 1] over t in F_q^3 runs over the solutions, each q^rank times."""
    add, mul, tables = field_tables(p, m)
    q = p**m
    rng = random.Random(q)
    cube = np.indices((q,) * 3).reshape(3, -1)
    for rows in range(1, 7):
        systems = []
        for _ in range(30):
            base = [[rng.randrange(q) for _ in range(4)] for _ in range(rng.randrange(4))]
            e = np.zeros((rows, 4), dtype=np.int64)
            for r in range(rows):
                for b in base:
                    c = rng.randrange(q)
                    e[r] = [add[x, mul[c, y]] for x, y in zip(e[r], b)]
            if rng.random() < 0.3:
                e[rng.randrange(rows), 3] = rng.randrange(q)
            systems.append(e)
        rank, ok, sol = scan.affine_solve(tables, np.array(systems))
        for e, r, good, s in zip(systems, rank, ok, sol):
            value = np.broadcast_to(e[:, 3:], (rows, q**3))
            for j in range(3):
                value = add[value, mul[e[:, j : j + 1], cube[j]]]
            want = sorted(map(tuple, cube[:, (value == 0).all(axis=0)].T))
            assert good == bool(want)
            if good:
                got = np.broadcast_to(s[:, 3:], (3, q**3))
                for j in range(3):
                    got = add[got, mul[s[:, j : j + 1], cube[j]]]
                assert sorted(map(tuple, got.T)) == sorted(want * q**r)


QUADRIC_FIELDS = [(2, 1, 6), (3, 1, 5), (5, 1, 4), (7, 1, 4), (2, 2, 5), (2, 3, 4), (3, 2, 4), (5, 2, 3), (257, 1, 2)]


@pytest.mark.parametrize("p, m, dmax", QUADRIC_FIELDS)
def test_quadric_points_match_enumeration(p, m, dmax):
    """Homogeneous forms of every rank, and affine ones (z_{d-1} = 1) whose
    quadratic part has every rank, with and without linear terms."""
    add, mul, tables = field_tables(p, m)
    q = p**m
    rng = random.Random(q)
    for d in range(1, dmax + 1):
        forms = [random_rank_form(add, mul, rng, r, d) for r in range(d + 1) for _ in range(6)]
        for r in range(d):
            for linear in (False, True):
                c = np.zeros((d, d), dtype=np.int64)
                c[: d - 1, : d - 1] = random_rank_form(add, mul, rng, r, d - 1)
                c[: d - 1, d - 1] = [rng.randrange(q) if linear else 0 for _ in range(d - 1)]
                c[d - 1, d - 1] = rng.randrange(q)
                forms.append(c)
        whole, hyper = scan.quadric_points(tables, np.array(forms))
        for c, w, h in zip(forms, whole, hyper):
            want, want_hyper, affine = enumerated_zeros(add, mul, c)
            assert (w, h, w - h) == (want, want_hyper, (q - 1) * affine), (d, c.tolist())


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_quadric_points_of_the_split_form_q_v(p, m):
    *_, tables = field_tables(p, m)
    q = p**m
    qv = np.zeros((1, 10, 10), dtype=np.int64)
    qv[0, np.arange(5), np.arange(5, 10)] = 1
    whole, _ = scan.quadric_points(tables, qv)
    assert whole[0] == (q - 1) * quadric_count(q) + 1


def scan_count(K, m, side="X"):
    """#X_K(F_{p^m}) by the scan of P(K^perp) with mu_+, or #X^v_K(F_{p^m})
    by the scan of P(K) with mu_-, without the size rule."""
    field = K.field
    amb, half = (perp_in_plus(K), PLUS) if side == "X" else (K, MINUS)
    forms = [restrict_quadric(field, c, amb.basis) for c in MU_INT[half]]
    if m == 1:
        return zero_locus(forms, field.p, amb.dim)[0]
    return ext_zero_locus(forms, get_ext_field(field.p, m), amb.dim)[0]


def side_params(cases):
    """pytest params for cases (..., side), with the ids of side X cases
    left without the side, as they were before side X^v was added."""
    return [
        pytest.param(*case, id="-".join(map(str, case[:-1] if case[-1] == "X" else case)))
        for case in cases
    ]


# Every k over F_2 and F_3 on both sides; over F_5, F_4, F_8 and F_9 the k whose
# ambient space, P(K^perp) for X or P(K) for X^v, the scan covers in about a
# second (the other k are checked by the incidence identity).
CELL_CASES = (
    [(q, 1, k, "X") for q in (2, 3) for k in range(16)]
    + [(5, 1, k, "X") for k in range(5, 16)]
    + [(2, 2, k, "X") for k in (4, 5, 6)]
    + [(2, 3, k, "X") for k in range(5, 16)]
    + [(3, 2, k, "X") for k in range(8, 16)]
    + [(q, 1, k, "X^v") for q in (2, 3) for k in range(1, 16)]
    + [(5, 1, k, "X^v") for k in range(1, 12)]
    + [(2, 2, k, "X^v") for k in range(1, 13)]
    + [(2, 3, k, "X^v") for k in range(1, 11)]
    + [(3, 2, k, "X^v") for k in range(1, 8)]
)


@pytest.mark.parametrize("q, m, k, side", side_params(CELL_CASES))
def test_chart_counts_equal_the_scan(monkeypatch, q, m, k, side):
    monkeypatch.setattr(counting, "CHART_CROSSOVER", (0, 0))
    field = PrimeField(q)
    rng = random.Random(f"{q}:{m}:{k}")
    for pure in (False, True) if k else (False,):
        K = random_section(field, rng, k, pure)
        assert count_section_points(K, side, m) == scan_count(K, m, side)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
def test_chart_counts_of_smooth_sections_match_the_motive(monkeypatch, p, m):
    """On the charts over F_4, F_8 and F_9, which visit one held point per
    Frobenius orbit: a smooth X_K has predicted_count points, and its
    X^v_K none (P(K) misses X^v exactly when X_K is smooth)."""
    monkeypatch.setattr(counting, "CHART_CROSSOVER", (0, 0))
    field = PrimeField(p)
    kinds = [f"generic-{k}" for k in range(1, 6)] + ["special", "very-special"]
    for seed, kind in enumerate(kinds):
        K = make_section(kind, field, seed=seed).K
        assert count_section_points(K, "X", m) == predicted_count(K.dim, p**m), kind
        assert count_section_points(K, "X^v", m) == 0, kind


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_frobenius_orbits_keep_the_least_index_of_each_orbit(p, m):
    """Over the rows t of F_Q^f in index order (base-Q digits), Q = p^m:
    each kept row is the least index of its orbit under t -> t^p, its size
    is the orbit's, a divisor of m, and the sizes add up to Q^f."""
    field = get_ext_field(p, m)
    q = p**m
    frob = np.array([reduce(field.mul, [a] * p) for a in range(q)])
    for f in range(5):
        idx, place = np.arange(q**f), q ** np.arange(f - 1, -1, -1)
        t = idx[:, None] // place % q
        rows, sizes = scan.frobenius_orbits(scan.field_tables(field), t)
        images, y = [], t
        for _ in range(m):
            images.append(y @ place)
            y = frob[y]
        images = np.array(images).T
        assert (images[:, 0] == idx).all() and (y == t).all()
        least = images.min(axis=1) == idx
        assert rows.tolist() == np.flatnonzero(least).tolist()
        assert sizes.tolist() == [len(set(orbit)) for orbit in images[rows].tolist()]
        assert all(m % s == 0 for s in sizes.tolist()) and sizes.sum() == q**f


@pytest.mark.parametrize("q, k, charts, side", side_params([
    (2, 1, True, "X"), (2, 2, False, "X"), (3, 4, True, "X"), (3, 5, False, "X"),
    (4, 6, True, "X"), (4, 7, False, "X"),
    (2, 15, True, "X^v"), (2, 14, False, "X^v"), (3, 12, True, "X^v"), (3, 11, False, "X^v"),
    (4, 10, True, "X^v"), (4, 9, False, "X^v"),
]))
def test_size_rule_picks_the_path_and_both_count_right(monkeypatch, q, k, charts, side):
    p, m = (2, 2) if q == 4 else (q, 1)
    field = PrimeField(p)
    n = num_projective_points(q, DIM_S - k if side == "X" else k)
    assert (n > CHART_CROSSOVER[m > 1] * 16 * q**4) == charts
    calls = []

    def spy(K, m=1):
        calls.append(K)
        return count_on_charts(K, m)

    monkeypatch.setattr(counting, "count_on_charts", spy)
    K = random_section(field, random.Random(k), k, False)
    assert count_section_points(K, side, m) == scan_count(K, m, side)
    assert len(calls) == int(charts)


def incidence_sides(K, m, x, dual):
    """Both sides of q^(k-1) #X_K = A #P^(k-1) - #X #P^(k-2) + q^7 #X^v_K
    over F_Q, Q = p^m, for #X_K = x and #X^v_K = dual."""
    q, k = K.field.p ** m, K.dim
    a, nx = predicted_count(1, q), predicted_count(0, q)
    rhs = a * projective_count(q, k - 1) - nx * projective_count(q, k - 2) + q**7 * dual
    return q ** (k - 1) * x, rhs


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_incidence_identity_with_the_dual_scan(q):
    """Pairs (s, kappa), s in X, kappa in P(K), <kappa, s> = 0, counted from
    both ends: a hyperplane section of X has A = predicted_count(1, q)
    points, or q^7 more when its kappa is pure.  One side is always a
    scan: #X^v_K by the scan of P(K), with #X_K on the charts; over F_4 and
    F_5 at k >= 9, where P(K) grows too large to scan, #X_K by the scan of
    P(K^perp), with #X^v_K from the library (on the charts from k = 10)."""
    p, m = (2, 2) if q == 4 else (q, 1)
    field = PrimeField(p)
    rng = random.Random(q)
    for k in range(1, 16):
        for pure in (False, True):
            K = random_section(field, rng, k, pure)
            if q <= 3 or k <= 8:
                x, dual = count_on_charts(K, m), scan_count(K, m, "X^v")
            else:
                x, dual = scan_count(K, m), count_section_points(K, "X^v", m)
            lhs, rhs = incidence_sides(K, m, x, dual)
            assert lhs == rhs == counting.incidence_rhs(k, q, dual), (k, pure)
