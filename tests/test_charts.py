"""Counts of X_K on the 16 affine charts of X: the charts themselves, the
batched linear fibres, agreement with the scans, the size rule, and the
incidence identity as a check that shares no code with the charts."""

import random
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
)
from spinor10.fields import PrimeField, get_ext_field
from spinor10.linalg import Subspace
from spinor10.scan import ext_zero_locus, fibre_sizes, num_projective_points, zero_locus
from spinor10.sections import perp_in_plus
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


def scalar_fibre_size(field, system):
    """#{a in F^3 : every row r gives r_0 a_0 + r_1 a_1 + r_2 a_2 + r_3 = 0}."""
    n = 0
    for a in product(field.elements(), repeat=3):
        n += all(
            field.add(
                field.add(field.mul(r[0], a[0]), field.mul(r[1], a[1])),
                field.add(field.mul(r[2], a[2]), r[3]),
            )
            == field.zero
            for r in system
        )
    return n


def random_system(field, rng, rows):
    """Rows spanning a random rank 0..3 coefficient space; constants random
    or consistent, and sometimes a zero row with a nonzero constant."""
    rank = rng.randrange(4)
    base = [[field.sample(rng) for _ in range(3)] for _ in range(rank)]
    solution = [field.sample(rng) for _ in range(3)]
    consistent = rng.random() < 0.5
    system = []
    for _ in range(rows):
        coeffs = [field.zero] * 3
        for b in base:
            c = field.sample(rng)
            coeffs = [field.add(x, field.mul(c, y)) for x, y in zip(coeffs, b)]
        if consistent:
            value = field.add(
                field.add(field.mul(coeffs[0], solution[0]), field.mul(coeffs[1], solution[1])),
                field.mul(coeffs[2], solution[2]),
            )
            const = field.neg(value)
        else:
            const = field.sample(rng)
        system.append(coeffs + [const])
    if rng.random() < 0.2:
        system[rng.randrange(rows)] = [field.zero] * 3 + [field.one]
    return system


@pytest.mark.parametrize("q, m", [(3, 1), (2, 2)])
def test_fibre_sizes_match_enumeration_of_f_q_cubed(q, m):
    if m == 1:
        field, tables = PrimeField(q), scan._prime_tables(q)
    else:
        field = get_ext_field(q, m)
        tables = scan._tables_for(field)
    rng = random.Random(q * 10 + m)
    for rows in range(1, 9):
        systems = [random_system(field, rng, rows) for _ in range(40)]
        systems.append([[field.zero] * 4 for _ in range(rows)])
        e = np.array(systems, dtype=np.int64)
        want = [scalar_fibre_size(field, s) for s in systems]
        assert fibre_sizes(tables, e).tolist() == want
        assert want[-1] == (q**m) ** 3
    # the input is left as it was
    assert np.array_equal(e, np.array(systems, dtype=np.int64))


def scan_count(K, m):
    """#X_K(F_{p^m}) by the scan of P(K^perp), without the size rule."""
    field = K.field
    amb = perp_in_plus(K)
    forms = [restrict_quadric(field, c, amb.basis) for c in MU_INT[PLUS]]
    if m == 1:
        return zero_locus(forms, field.p, amb.dim)[0]
    return ext_zero_locus(forms, get_ext_field(field.p, m), amb.dim)[0]


CELL_CASES = (
    [(q, 1, k) for q in (2, 3) for k in range(16)]
    + [(5, 1, 6), (5, 1, 8)]
    + [(2, 2, k) for k in (4, 5, 6)]
)


@pytest.mark.parametrize("q, m, k", CELL_CASES)
def test_chart_counts_equal_the_scan(q, m, k):
    field = PrimeField(q)
    rng = random.Random(f"{q}:{m}:{k}")
    for pure in (False, True) if k else (False,):
        K = random_section(field, rng, k, pure)
        assert count_on_charts(K, m) == scan_count(K, m)


@pytest.mark.parametrize("q, k, charts", [(2, 2, True), (2, 3, False), (3, 4, True), (3, 5, False)])
def test_size_rule_picks_the_path_and_both_count_right(monkeypatch, q, k, charts):
    field = PrimeField(q)
    n = num_projective_points(q, DIM_S - k)
    assert (n > CHART_CROSSOVER * 16 * q**7) == charts
    calls = []

    def spy(K, m=1):
        calls.append(K)
        return count_on_charts(K, m)

    monkeypatch.setattr(counting, "count_on_charts", spy)
    K = random_section(field, random.Random(k), k, False)
    assert count_section_points(K, "X") == scan_count(K, 1)
    assert len(calls) == int(charts)


def incidence_sides(K, m):
    """Both sides of q^(k-1) #X_K = A #P^(k-1) - #X #P^(k-2) + q^7 #X^v_K
    over F_Q, Q = p^m, with #X_K from the charts and #X^v_K from the scan
    of P(K); and the two counts."""
    q, k = K.field.p ** m, K.dim
    a, nx = predicted_count(1, q), predicted_count(0, q)
    x, dual = count_on_charts(K, m), count_section_points(K, "X^v", m, budget=1 << 30)
    rhs = a * projective_count(q, k - 1) - nx * projective_count(q, k - 2) + q**7 * dual
    return q ** (k - 1) * x, rhs, x, dual


@pytest.mark.parametrize("q", [2, 3, 4])
def test_incidence_identity_with_the_dual_scan(q):
    """Pairs (s, kappa), s in X, kappa in P(K), <kappa, s> = 0, counted from
    both ends: a hyperplane section of X has A = predicted_count(1, q)
    points, or q^7 more when its kappa is pure.  For k <= 8 the identity
    solved for #X_K is the library's `_incidence_count`.  F_4 stops at
    k = 8: P^14(F_4) would take minutes to scan."""
    p, m = (2, 2) if q == 4 else (q, 1)
    field = PrimeField(p)
    rng = random.Random(q)
    for k in range(1, 16 if m == 1 else 9):
        for pure in (False, True):
            K = random_section(field, rng, k, pure)
            lhs, rhs, x, dual = incidence_sides(K, m)
            assert lhs == rhs, (k, pure)
            if k <= 8:
                assert counting._incidence_count(k, q, dual) == x
