"""Exactness of the point scans against scalar arithmetic, at small and
large q."""

import random
from functools import reduce
from itertools import product

import pytest

from spinor10 import scan
from spinor10.clifford import DIM_S, DIM_V, MINUS, MU_INT, bV, qV
from spinor10.counting import count_section_points
from spinor10.fields import PrimeField, get_ext_field
from spinor10.gamma import mu_table
from spinor10.linalg import Subspace
from spinor10.scan import ext_zero_locus, find_first_zero, zero_locus
from spinor10.sections import make_section, smoothness_scan
from spinor10.variety import (
    is_pure,
    mu,
    random_pure_witness,
    random_spinor,
    restrict_quadric,
)


def normalized_points(q, d):
    """P^{d-1}(F_q) in scan order: by leading position from the right, then
    lexicographically."""
    for lead in range(d - 1, -1, -1):
        for tail in product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def scalar_zeros(forms, q, d):
    for x in normalized_points(q, d):
        if all(
            sum(c[i][j] * x[i] * x[j] for i in range(d) for j in range(d)) % q == 0
            for c in forms
        ):
            yield x


def random_forms(rng, q, d, n):
    return [[[rng.randrange(-q, q) for _ in range(d)] for _ in range(d)] for _ in range(n)]


@pytest.mark.parametrize("p", [257, 1021, 4093, 65521])
def test_conic_has_p_plus_one_points(p):
    conic = [[0, 0, 1], [0, p - 1, 0], [0, 0, 0]]  # x0 x2 - x1^2
    assert zero_locus([conic], p, 3)[0] == p + 1


@pytest.mark.parametrize(
    "d, p",
    [(2, p) for p in (2, 3, 5, 7, 31, 257, 1021, 4093, 65521)]
    + [(3, p) for p in (2, 3, 5, 7, 31, 257)],
)
def test_zero_locus_matches_scalar_evaluation(d, p):
    rng = random.Random(1000 * d + p)
    for n in (1, 2):
        forms = random_forms(rng, p, d, n)
        ref = list(scalar_zeros(forms, p, d))
        assert zero_locus(forms, p, d, collect=True) == (len(ref), ref)
        assert find_first_zero(forms, p, d) == (ref[0] if ref else None)


@pytest.mark.parametrize("p", [1021, 4093, 65521])
def test_find_first_zero_matches_scalar_evaluation_on_planes(p):
    # one ternary form: a zero turns up within the first few thousand points
    rng = random.Random(p)
    for _ in range(3):
        forms = random_forms(rng, p, 3, 1)
        assert find_first_zero(forms, p, 3) == next(scalar_zeros(forms, p, 3))


def field_zeros(field, q, forms, d):
    """Zeros of upper-triangular forms with prime-subfield coefficients, by
    scalar arithmetic in `field` (F_p or F_{p^m}), in scan order."""
    for x in normalized_points(q, d):
        if all(
            reduce(
                field.add,
                (field.mul(field.mul(x[i], x[j]), c[i][j] % field.char)
                 for i in range(d) for j in range(i, d)),
            ) == field.zero
            for c in forms
        ):
            yield x


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
def test_ext_zero_locus_matches_ext_field_arithmetic(p, m):
    ext = get_ext_field(p, m)
    rng = random.Random(10 * p + m)
    for d in (2, 3, 4):
        for n in (1, 2):
            forms = [
                [[rng.randrange(p) if j >= i else 0 for j in range(d)] for i in range(d)]
                for _ in range(n)
            ]
            ref = list(field_zeros(ext, ext.q, forms, d))
            assert ext_zero_locus(forms, ext, d)[0] == len(ref)
            first = ext_zero_locus(forms, ext, d, find_first=True)
            assert first == ((1, ref[:1]) if ref else (0, []))


def branch_forms(p, d):
    """Forms over F_p in the prefix coordinates u = x_0, v = x_{d-2} and the
    last one t = x_{d-1} that reach each case of the root solver."""
    u, v, t = 0, d - 2, d - 1

    def form(terms):
        c = [[0] * d for _ in range(d)]
        for (i, j), a in terms.items():
            c[min(i, j)][max(i, j)] = (c[min(i, j)][max(i, j)] + a) % p
        return c

    return {
        # a = 0, b = u: every t is a root where u = 0
        "linear": form({(u, t): 1, (u, v): 1}),
        # a = b = 0: every t or none
        "no-t": form({(u, v): 1, (v, v): 1}),
        # (t - v)^2: a double root; t^2 + v^2 in characteristic 2 (B = 0)
        "square": form({(t, t): 1, (v, t): -2, (v, v): 1}),
        # t^2 + v t + u^2: u'^2 + u' = C / B^2 in characteristic 2
        "artin": form({(t, t): 1, (v, t): 1, (u, u): 1}),
        # a = 2: a = 0 and b = u in characteristic 2
        "mixed": form({(t, t): 2, (u, t): 1, (v, v): 1, (u, v): -1}),
    }


SOLVER_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize(
    "p, m, d", [(p, m, d) for p, m in SOLVER_FIELDS for d in (2, 3, 4) if p ** (m * (d - 1)) <= 1000]
)
def test_root_solver_branches_match_scalar_arithmetic(p, m, d):
    ext = get_ext_field(p, m)
    forms = branch_forms(p, d)
    names = [[n] for n in forms] + [
        ["linear", "artin"], ["artin", "square"], ["square", "no-t"], ["mixed", "linear", "artin"]
    ]
    for chosen in names:
        sub = [forms[n] for n in chosen]
        ref = list(field_zeros(PrimeField(p) if m == 1 else ext, ext.q, sub, d))
        if m == 1:
            assert zero_locus(sub, p, d, collect=True) == (len(ref), ref), chosen
            assert find_first_zero(sub, p, d) == (ref[0] if ref else None), chosen
        else:
            assert ext_zero_locus(sub, ext, d) == (len(ref), []), chosen
            first = ext_zero_locus(sub, ext, d, find_first=True)
            assert first == ((1, ref[:1]) if ref else (0, [])), chosen


def test_forms_vanishing_for_every_t_split_into_bounded_chunks():
    # the zero form: every prefix has q candidates, more than a chunk holds
    zero = [[0] * 11 for _ in range(11)]
    ref = list(normalized_points(3, 11))
    assert zero_locus([zero], 3, 11, collect=True) == (len(ref), ref)
    assert zero_locus([], 3, 11, collect=True) == (len(ref), ref)
    assert zero_locus([[[0, 0], [0, 0]]], 65521, 2)[0] == 65522
    assert ext_zero_locus([], get_ext_field(2, 4), 3)[0] == 1 + 16 + 256


def test_solver_tables_are_built_on_first_use(monkeypatch):
    ext = get_ext_field(2, 5)
    tables = scan.ExtTables(ext)
    monkeypatch.setattr(scan, "_tables_for", lambda _: tables)
    # P^0 needs no solving: only the log/exp tables exist afterwards
    assert ext_zero_locus([], ext, 1) == (1, [])
    assert not {"inv", "sqrt", "artin"} & vars(tables).keys()
    # x0^2 + x0 x1 + x1^2 has no zero over F_32, an odd-degree extension of F_2
    assert ext_zero_locus([[[1, 1], [0, 1]]], ext, 2) == (0, [])
    assert {"inv", "artin"} <= vars(tables).keys()


@pytest.mark.parametrize("p, d", [(2, 16), (3, 10)])
def test_collect_is_independent_of_the_worker_count(p, d):
    forms = [restrict_quadric(PrimeField(p), c, [[int(i == j) for j in range(16)] for i in range(d)])
             for c in MU_INT[MINUS]]
    one = zero_locus(forms, p, d, collect=True, workers=1)
    assert one[0] > 0
    assert zero_locus(forms, p, d, collect=True, workers=2) == one
    assert zero_locus(forms, p, d, workers=2)[0] == one[0]


def test_dual_count_through_three_pure_spinors_f1021():
    field = PrimeField(1021)
    rng = random.Random(4)
    K = Subspace(field, DIM_S, [random_pure_witness(field, rng, MINUS).spinor for _ in range(3)])
    assert K.dim == 3
    n = count_section_points(K, "X^v")
    assert n >= 3
    forms = [restrict_quadric(field, c, K.basis) for c in MU_INT[MINUS]]
    count, pts = zero_locus(forms, 1021, 3, collect=True)
    assert count == n == len(pts)
    cols = list(zip(*K.basis))
    for t in pts:
        s = tuple(sum(a * b for a, b in zip(t, col)) % 1021 for col in cols)
        assert is_pure(field, s, MINUS)


@pytest.mark.parametrize("p", [1021, 65521])
def test_pencil_through_pure_spinor_is_certified_singular(p):
    field = PrimeField(p)
    rng = random.Random(p)
    tau = random_pure_witness(field, rng, MINUS).spinor
    K = Subspace(field, DIM_S, [tau, random_spinor(field, rng, MINUS)])
    assert K.dim == 2
    cert = smoothness_scan(K)
    assert cert.status == "certified-singular"
    q, m, t = cert.witness
    assert (q, m) == (p, 1)
    s = tuple(sum(a * b for a, b in zip(t, col)) % p for col in zip(*K.basis))
    assert is_pure(field, s, MINUS)


def test_refuses_inexact_range_without_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(scan, "projective_blocks", no_enumeration)
    big = [[[1] * 8 for _ in range(8)]]
    # 8^2 (65520)^3 > 2^53
    with pytest.raises(ValueError):
        zero_locus(big, 65521, 8)
    with pytest.raises(ValueError):
        find_first_zero(big, 65521, 8)
    monkeypatch.undo()
    # 5^2 (65520)^3 < 2^53: accepted; x0^2 vanishes at the first point (0, ..., 0, 1)
    square = [[1 if i == j == 0 else 0 for j in range(5)] for i in range(5)]
    assert find_first_zero([square], 65521, 5) == (0, 0, 0, 0, 1)


def brute_mu_span(field, basis, m):
    """Span of mu over every point of P(K)(F_{q^m}) and its total isotropy,
    by scalar arithmetic in the extension."""
    ext = get_ext_field(field.p, m)
    vecs = []
    for t in normalized_points(ext.q, len(basis)):
        kappa = [ext.zero] * DIM_S
        for ti, row in zip(t, basis):
            kappa = [ext.add(a, ext.mul(ti, int(b))) for a, b in zip(kappa, row)]
        vecs.append(mu(ext, tuple(kappa), MINUS))
    span = Subspace(ext, DIM_V, vecs)
    iso = all(
        qV(ext, a) == 0 and all(bV(ext, a, b) == 0 for b in span.basis) for a in span.basis
    )
    return span.dim, iso


@pytest.mark.parametrize("p", [2, 3])
def test_mu_span_matches_brute_force_over_the_extension(p):
    field = PrimeField(p)
    rng = random.Random(p)
    bases = [make_section(kind, field, seed=1).K.basis for kind in ("special", "very-special")]
    for k in (2, 3, 2, 3, 2, 3):
        bases.append(Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)]).basis)
    seen = set()
    for basis in bases:
        # the mu_table vectors span it, and b_V vanishing there is isotropy
        squares, B = mu_table(field, basis)
        span = Subspace(field, DIM_V, squares + list(B.values()))
        iso = all(bV(field, a, b) == 0 for a in span.basis for b in span.basis)
        got = (span.dim, iso)
        assert got == brute_mu_span(field, basis, 2)
        seen.add(got)
    assert len(seen) > 1
