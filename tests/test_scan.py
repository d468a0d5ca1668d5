"""Exactness of the point scans against scalar arithmetic, at small and
large q."""

import random
from itertools import product

import pytest

from spinor10 import scan
from spinor10.clifford import DIM_S, DIM_V, MINUS, MU_INT, bV, qV
from spinor10.counting import count_section_points
from spinor10.fields import PrimeField, get_ext_field
from spinor10.linalg import Subspace
from spinor10.scan import ext_zero_locus, find_first_zero, zero_locus
from spinor10.sections import _mu_span, make_section, smoothness_scan
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


@pytest.mark.parametrize("p", [257, 1021, 4093])
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
            ref = []
            for x in normalized_points(ext.q, d):
                vals = []
                for c in forms:
                    acc = ext.zero
                    for i in range(d):
                        for j in range(i, d):
                            term = ext.mul(ext.mul(x[i], x[j]), c[i][j])
                            acc = ext.add(acc, term)
                    vals.append(acc)
                if all(v == ext.zero for v in vals):
                    ref.append(x)
            assert ext_zero_locus(forms, ext, d)[0] == len(ref)
            first = ext_zero_locus(forms, ext, d, find_first=True)
            assert first == ((1, ref[:1]) if ref else (0, []))


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
        got = _mu_span(field, basis)
        assert got == brute_mu_span(field, basis, 2)
        seen.add(got)
    assert len(seen) > 1
