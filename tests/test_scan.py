"""Exactness of the point scans against scalar arithmetic, at small and
large q."""

import random
from contextlib import contextmanager
from functools import reduce
from itertools import product

import numpy as np
import pytest

from spinor10 import scan
from spinor10.clifford import DIM_S, DIM_V, MINUS, MU_INT, PLUS, bV, qV
from spinor10.counting import count_section_points
from spinor10.fields import PrimeField, get_ext_field
from spinor10.gamma import mu_table
from spinor10.linalg import Subspace, rref_mod_p
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


@pytest.mark.parametrize("p, pairs", [(2, None), (3, None), (5, None), (251, None), (257, 4000), (65521, 4000)])
def test_prime_tables_match_scalar_arithmetic(p, pairs):
    """mul, add, neg and inv on codes agree with PrimeField on every pair of
    codes, or on random pairs; p <= 251 reduces by the residue table, larger
    p by %; the table is built on first use."""
    field, tables = PrimeField(p), scan.PrimeTables(p)
    assert tables.lookup == (p * p <= scan.RESIDUE_TABLE_MAX) == (p <= 251)
    if pairs is None:
        a, b = (x.ravel() for x in np.indices((p, p)))
    else:
        a, b = np.random.default_rng(p).integers(0, p, size=(2, pairs))
    assert "residue" not in vars(tables)
    assert tables.mul(a, b).tolist() == [field.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert tables.add(a, b).tolist() == [field.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert tables.neg(a).tolist() == [field.neg(x) for x in a.tolist()]
    nonzero = a[a != 0]
    assert tables.inv[nonzero].tolist() == [field.inv(x) for x in nonzero.tolist()]
    assert tables.inv[0] == 0
    assert ("residue" in vars(tables)) == tables.lookup


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
            # x^T c x = x^T c^T x: the lower triangle is read as the upper one
            assert ext_zero_locus([list(zip(*c)) for c in forms], ext, d)[0] == len(ref)
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
    assert not {"inv", "sqrt", "artin", "zech"} & vars(tables).keys()
    # x0^2 + x0 x1 + x1^2 has no zero over F_32, an odd-degree extension of F_2
    assert ext_zero_locus([[[1, 1], [0, 1]]], ext, 2) == (0, [])
    assert {"inv", "artin"} <= vars(tables).keys()
    assert "zech" not in vars(tables)  # characteristic 2 adds by XOR


def direct_scan_cases():
    """(q, d) for every d > 1 whose P^{d-1}(F_q) has at most DIRECT_SCAN_MAX
    points, and the first d past it, for q in 2, 3, 4, 5, 7, 9, 11; over F_4
    and F_9 every scan takes the root path."""
    cases = []
    for q in (2, 3, 4, 5, 7, 9, 11):
        d = 2
        while scan.num_projective_points(q, d - 1) <= scan.DIRECT_SCAN_MAX:
            cases.append((q, d))
            d += 1
    return cases


@pytest.mark.parametrize("lead_zero", [False, True], ids=["e_last-off", "e_last-on"])
@pytest.mark.parametrize("q, d", direct_scan_cases())
def test_direct_scans_match_the_scalar_reference(q, d, lead_zero):
    # two sparse forms whose zeros start at e_{d-1}, the first point of the
    # scan, or not: their zeros in scan order by scalar arithmetic
    p, m = {4: (2, 2), 9: (3, 2)}.get(q, (q, 1))
    rng = random.Random(q * 100 + d)
    forms = []
    for n in range(2):
        c = np.zeros((d, d), dtype=np.int64)
        for _ in range(d + 1):
            i, j = sorted(rng.sample(range(d), 2) if rng.random() < 0.7 else [rng.randrange(d)] * 2)
            c[i, j] = rng.randrange(1, p)
        c[-1, -1] = n == 0 and not lead_zero
        forms.append(c)
    field = PrimeField(p) if m == 1 else get_ext_field(p, m)
    terms = [[(i, j, int(c[i, j])) for i, j in zip(*np.nonzero(c))] for c in forms]
    ref = [
        x for x in normalized_points(q, d)
        if all(reduce(field.add, (field.mul(field.mul(x[i], x[j]), a) for i, j, a in t), 0) == 0 for t in terms)
    ]
    assert (ref[:1] == [(0,) * (d - 1) + (1,)]) == lead_zero
    tables = scan.field_tables(p if m == 1 else field)
    assert scan._scan(tables, d, forms, "collect") == (len(ref), ref)
    assert scan._scan(tables, d, forms, "count") == (len(ref), [])
    assert scan._scan(tables, d, forms, "first") == (int(bool(ref)), ref[:1])
    if m == 1:
        assert zero_locus(forms, p, d, collect=True) == (len(ref), ref)
        assert find_first_zero(forms, p, d) == (ref[0] if ref else None)


def test_direct_scans_filter_their_points_and_solve_no_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan solved for roots")

    monkeypatch.setattr(scan._Solver, "roots", refuse)
    assert scan.num_projective_points(2, 11) == 2047 <= scan.DIRECT_SCAN_MAX
    assert zero_locus([], 2, 11)[0] == 2047
    with pytest.raises(AssertionError, match="solved for roots"):
        zero_locus([], 2, 12)
    # over F_{p^m} even a small scan takes the root path
    with pytest.raises(AssertionError, match="solved for roots"):
        ext_zero_locus([np.eye(3, dtype=np.int64)], get_ext_field(3, 2), 3)


def test_empty_scan_of_p0_builds_no_low_table():
    # set-up scans P^0 of each extension field: it needs no table of points
    scan._low_table.cache_clear()
    scan._point_table.cache_clear()
    assert ext_zero_locus([], get_ext_field(2, 2), 1) == (1, [])
    assert zero_locus([], 3, 1) == (1, None)
    assert find_first_zero([], 3, 1) == (1,)
    assert scan._low_table.cache_info().currsize == 0
    assert scan._point_table.cache_info().currsize == 0


def test_direct_scans_share_one_read_only_point_table():
    scan._point_table.cache_clear()
    forms = [np.diag([1, 1, 0, 0]), np.diag([0, 0, 1, 2])]
    ref = list(scalar_zeros(forms, 3, 4))
    assert zero_locus(forms, 3, 4, collect=True) == (len(ref), ref)
    assert find_first_zero(forms, 3, 4) == ref[0]
    assert scan._point_table.cache_info()[:2] == (1, 1)  # one hit, one build
    table = scan._point_table(3, 4, np.float32)
    assert [tuple(map(int, row)) for row in table] == list(normalized_points(3, 4))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 2


def test_first_hit_scan_draws_no_block_after_its_hit(monkeypatch):
    # x_9^2 + x_10^2 over F_3 (-1 is no square): zero only where x_9 = x_10 = 0;
    # one form has no linear tail, so #P^9(F_3) = 29524 prefixes take the root path
    d = 11
    form = [[int(i == j >= d - 2) for j in range(d)] for i in range(d)]
    assert scan._tail_plan(np.array([form]), 3, d) is None
    drawn = []
    blocks = scan.projective_blocks

    def spy(*args):
        for block in blocks(*args):
            drawn.append(len(block))
            yield block

    monkeypatch.setattr(scan, "projective_blocks", spy)
    assert zero_locus([form], 3, d)[0] == (3**9 - 1) // 2
    assert len(drawn) >= 2 and sum(drawn) == (3**10 - 1) // 2
    drawn.clear()
    # the hit e_8 lies in the first block: the scan stops there
    assert find_first_zero([form], 3, d) == tuple(int(i == d - 3) for i in range(d))
    assert len(drawn) == 1


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


# --- the linear tail ----------------------------------------------------------


@contextmanager
def block_size(monkeypatch, size):
    """scan.BLOCK = size inside, the low-coordinate tables rebuilt for it."""
    with monkeypatch.context() as m:
        m.setattr(scan, "BLOCK", size)
        scan._low_table.cache_clear()
        try:
            yield
        finally:
            scan._low_table.cache_clear()


def tail_and_root(monkeypatch, run):
    """run() with the linear tail allowed, then on the root path alone; with
    the r of each tail taken and the most solutions of one fibre."""
    plans, sizes = [], [0]
    tail_scan, fibres = scan._tail_scan, scan._fibres

    def spy_scan(field, d, dtype, forms, plan, *rest):
        plans.append(plan[0])
        return tail_scan(field, d, dtype, forms, plan, *rest)

    def spy_fibres(field, x, s, v0, kern, counts):
        sizes.append(int(counts.max()))
        return fibres(field, x, s, v0, kern, counts)

    with monkeypatch.context() as m:
        m.setattr(scan, "_tail_scan", spy_scan)
        m.setattr(scan, "_fibres", spy_fibres)
        tail = run()
    with monkeypatch.context() as m:
        m.setattr(scan, "_tail_plan", lambda *args: None)
        root = run()
    return tail, root, plans, max(sizes)


def span_forms(p, d, kind, rng):
    """Forms over F_p in d coordinates (p^m-points of their zero set being
    scanned): the ten mu restricted to a d-dim K in S- (X^v_K), or to K^perp
    of a generic 5-dim K when d = 11 ("perp"); or forms vanishing on a line
    or a plane (the span of e_0 and the last one or two coordinates), or
    products of two linear forms, the first one of a pair in x_0, x_1, x_2;
    the tail systems of these three lose rank on some prefixes."""
    field = PrimeField(p)

    def rand_lin():
        return [rng.randrange(p) for _ in range(d)]

    if kind in ("line", "plane"):
        cut = range(1, d - (2 if kind == "line" else 3) + 1)  # the x_k vanishing there
        forms = []
        for _ in range(6):
            c = [[0] * d for _ in range(d)]
            for k in cut:
                for j, a in enumerate(rand_lin()):
                    c[k][j] += a
            forms.append(c)
        return forms
    if kind == "products":
        # every form vanishes on the (y, z) with l_0(y) = l_1(y) = 0
        factors = [[rng.randrange(p) if j < 3 else 0 for j in range(d)] for _ in range(2)]
        return [[[a * b % p for b in rand_lin()] for a in factors[i % 2]] for i in range(8)]
    if kind == "perp":
        K = make_section("generic-5", field, seed=rng.randrange(1 << 20)).Kperp
        return [restrict_quadric(field, c, K.basis) for c in MU_INT[PLUS]]
    if kind == "generic":
        rows = [random_spinor(field, rng, MINUS) for _ in range(d)]
    elif kind == "special":
        rows = list(make_section("special", field, seed=3).K.basis)
        rows += [random_spinor(field, rng, MINUS) for _ in range(d - 2)]
    else:  # "pure"
        rows = [random_pure_witness(field, rng, MINUS).spinor for _ in range(d)]
    K = Subspace(field, DIM_S, rows)
    assert K.dim == d
    return [restrict_quadric(field, c, K.basis) for c in MU_INT[MINUS]]


DEFICIENT = ("line", "plane", "products")


@pytest.mark.parametrize("p, d, n, r", [(3, 8, 5, 2), (3, 8, 9, 3), (5, 7, 14, 4), (2, 9, 2, None)])
def test_tail_plan_takes_the_largest_r_with_r_forms_affine_in_the_tail(p, d, n, r):
    # n generic forms leave n - r (r + 1) / 2 without a term in z alone; r = 1 is never taken
    rng = np.random.default_rng(p * d * n)
    forms = np.triu(rng.integers(0, p, size=(n, d, d)))
    plan = scan._tail_plan(forms, p, d)
    if r is None:
        assert plan is None
        return
    got, lin, linear, residual = plan
    assert got == r and len(linear) >= r
    assert not linear[:, d - r :, d - r :].any()
    assert (lin.reshape(d - r, len(linear), r) == linear[:, : d - r, d - r :].transpose(1, 0, 2)).all()
    same = rref_mod_p(np.concatenate((linear, residual)).reshape(n, -1), p)
    assert same[0].tolist() == rref_mod_p(forms.reshape(n, -1), p)[0].tolist()


# shrink 2 halves BLOCK: the scans walk more, smaller blocks and chunks
@pytest.mark.parametrize("shrink", [1, 2])
@pytest.mark.parametrize(
    "p, d, kind",
    [(3, 11, k) for k in ("random-5", "random-9", "random-14", "perp", "generic", "special", "pure")]
    + [(3, 11, k) for k in DEFICIENT]
    + [(5, 8, k) for k in ("random-5", "generic", "pure", "plane", "products")]
    + [(257, 4, "random-5")],
)
def test_linear_tail_matches_the_root_path_over_fp(monkeypatch, p, d, kind, shrink):
    # #P^{d-2}(F_p) > BLOCK: 29524 prefixes over F_3, 19531 over F_5, 66307 over F_257
    rng = random.Random(f"{p} {d} {kind}")
    if kind.startswith("random"):
        forms = random_forms(rng, p, d, int(kind.split("-")[1]))
    else:
        forms = span_forms(p, d, kind, rng)

    def run():
        return zero_locus(forms, p, d, collect=True), find_first_zero(forms, p, d)

    with block_size(monkeypatch, scan.BLOCK // shrink):
        tail, root, plans, most = tail_and_root(monkeypatch, run)
    assert tail == root
    assert plans
    if kind in DEFICIENT:
        assert tail[0][0] > 0 and most > 1
    if kind == "pure":
        assert tail[0][0] >= d


@pytest.mark.parametrize("shrink", [1, 2])
@pytest.mark.parametrize(
    "m, d, kind",
    [(4, 6, k) for k in ("generic", "special", "pure", "line", "plane", "products")]
    + [(2, 9, k) for k in ("generic", "pure", "plane", "products")],
)
def test_linear_tail_matches_the_root_path_over_f2m(monkeypatch, m, d, kind, shrink):
    # F_16 at d = 6 (69905 prefixes), F_4 at d = 9 (21845)
    ext = get_ext_field(2, m)
    forms = span_forms(2, d, kind, random.Random(f"{m} {d} {kind}"))

    def run():
        return ext_zero_locus(forms, ext, d), ext_zero_locus(forms, ext, d, find_first=True)

    with block_size(monkeypatch, scan.BLOCK // shrink):
        tail, root, plans, most = tail_and_root(monkeypatch, run)
    assert tail == root
    assert plans
    if kind in DEFICIENT:
        assert tail[0][0] > 0 and most > 1


@pytest.mark.parametrize("p, m, d", [(3, 1, 6), (2, 2, 5), (5, 1, 4)])
def test_linear_tail_splits_large_fibres_across_chunks(monkeypatch, p, m, d):
    # with BLOCK = 8, d - 2 forms x_0 l_i(x) take a tail of d - 2 coordinates
    # whose fibre over x_0 = 0 has q^(d-2) > 2 BLOCK points
    rng = random.Random(p * m * d)
    forms = [[[rng.randrange(p) if i == 0 else 0 for j in range(d)] for i in range(d)] for _ in range(d - 2)]
    field = PrimeField(p) if m == 1 else get_ext_field(p, m)
    ref = list(field_zeros(field, p**m, forms, d))

    def run():
        return zero_locus(forms, p, d, collect=True) if m == 1 else ext_zero_locus(forms, field, d)

    with block_size(monkeypatch, 8):
        tail, root, plans, most = tail_and_root(monkeypatch, run)
    assert plans == [d - 2] and most > 16
    assert tail == root == (len(ref), ref if m == 1 else [])


def test_k6_profile_scan_over_f16_takes_the_tail_and_one_block_scans_do_not(monkeypatch):
    field = PrimeField(2)
    rng = random.Random(6)
    K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(6)])
    taken = []
    tail_scan = scan._tail_scan

    def spy(field, d, dtype, forms, plan, *rest):
        taken.append((field.q, d, plan[0]))
        return tail_scan(field, d, dtype, forms, plan, *rest)

    monkeypatch.setattr(scan, "_tail_scan", spy)
    # #P^4(F_8) = 4681 prefixes fit one block; #P^4(F_16) = 69905 do not
    small = [count_section_points(K, "X^v", m) for m in (1, 2, 3)]
    assert taken == []
    big = count_section_points(K, "X^v", 4)
    assert taken == [(16, 6, 3)]  # 273 prefixes of P^2(F_16)
    monkeypatch.setattr(scan, "_tail_plan", lambda *args: None)
    assert [count_section_points(K, "X^v", m) for m in (1, 2, 3, 4)] == small + [big]
