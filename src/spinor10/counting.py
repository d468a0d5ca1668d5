"""Finite-field point counts of X_K and X^v_K, the incidence identity
(`incidence_rhs`) that predicts #X_K from #X^v_K at every k, and the
blowup-fibration identity.

A count is made one of two ways, with the same answer.  Large X_K are
counted on the 16 affine charts of X (Chevalley's big cell s(A) moved by
signed permutations): each chart is cut into at most Q^4 fibres, one per
value of the four held entries a_i5, on which K's equations are affine
linear in the six other entries a_ij plus at most one quadric, Pf_1234.  A
fibre contributes Q^(6 - rank) points, or none, or the zeros of the quadric
on the solutions, counted in closed form (`scan.quadric_points`).  A large
X^v_K is counted on the same charts as X_{K'} (`_dual_section`).  Smaller
X_K and X^v_K are counted by scanning the normalized projective
representatives of the ambient space in lexicographic order (see `scan`).
Both are deterministic.

Over F_Q, Q = p^m, the charts count on Frobenius orbits.  Every equation
here has F_p coefficients, and x -> x^p fixes F_p and respects + and *, so
applied to each coordinate it maps the points over a held point t one to
one onto those over t^p.  So a chart count visits only the t least in
their orbit, a set of at most m, and multiplies what each contributes by
its orbit size; the sum is exact, in integers.  Over F_p the orbits are
single points and nothing is filtered.  Scans visit every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .clifford import CHARTS, DIM_S, MINUS, PFAFFIAN_TERMS, PLUS, MU_INT, SUBSET_INDEX, clifford_mul, pairing_rows
from .fields import PrimeField, get_ext_field
from .linalg import Subspace, rref
from .scan import (
    DEFAULT_COUNT_BUDGET, BudgetExceededError, affine_solve, ext_zero_locus, field_tables, fp_map,
    frobenius_orbits, in_blocks, num_projective_points, quadric_points, zero_locus,
)
from .sections import perp_in_minus, perp_in_plus
from .variety import restricted_forms

# count_section_points counts X_K (X^v_K) on the charts when n = #P(K^perp)
# (#P(K)) over F_Q exceeds CHART_CROSSOVER[m > 1] * 16 Q^4 (16 charts of at
# most Q^4 fibres) and scans otherwise.  Measured on a 2-core Xeon with one
# BLAS thread; in ratios n / (16 Q^4), generic K and K through a pure
# spinor.  Over F_p, re-timed with the residue-table arithmetic (see
# scan.PrimeTables) and the scan on its tail, both sides: at Q = 2 the scan
# wins by 1.4x to 3.8x at ratios 4 to 32, the two are within 1.4x at 64,
# and the charts win by 1.8x to 3x at 128 and 256; at Q = 3 the scan wins
# by 1.5x to 2.2x at 23 and 68, the two are even at 205 (charts / scan 0.8
# to 1.1) and the charts win by 2.1x to 2.6x at 615; at Q = 5 and 7 the
# scan wins at every ratio timed, by 1.1x to 1.7x at 1221 (Q = 5), 3.5x to
# 4.1x at 1226 (Q = 7) and 4x to 15x at 25 to 244.  So over F_p the 100
# below sends to the charts counts at Q = 5 and 7 that the scan makes
# faster.  Over F_{p^m}, re-timed with the charts on Frobenius orbits and
# the scan on its tail, both sides: the scan wins by 1.5x to 5.5x at
# ratios up to 85 at Q = 4 and loses by
# 1.2x to 1.4x at 341; it wins by 1.6x to 12x up to 293 at Q = 8, and at
# 2341 the two are even (0.94x to 1.23x); it wins by 1.4x to 22x up to 4152
# at Q = 9, by 1.9x to 93x up to 17 at Q = 16 (at 273, 0.75x to 30x) and by
# 2.5x to 930x up to 1017 at Q = 25.  So at m > 1 the 32 below sends to the
# charts counts that the scan makes faster, and no single ratio fits every Q.
CHART_CROSSOVER = (100, 32)

# Multiplicities n_0..n_{10-k} of the Lefschetz powers in the integral
# motive of X (k = 0) and of its smooth hyperplane sections (k = 1).
MOTIVE_ROWS = {
    0: (1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1),
    1: (1, 1, 1, 2, 2, 2, 2, 1, 1, 1),
}


def predicted_count(k: int, q: int) -> int:
    """#X_K(F_q) for a smooth X_K, forced by its Lefschetz-type motive."""
    if not 0 <= k <= 5:
        raise ValueError("predicted_count needs 0 <= k <= 5")
    if k >= 2:
        return incidence_rhs(k, q, 0) // q ** (k - 1)
    return sum(n * q**i for i, n in enumerate(MOTIVE_ROWS[k]))


def projective_count(q: int, dim: int) -> int:
    """#P^dim(F_q) (0 for dim = -1)."""
    return num_projective_points(q, dim + 1)


def incidence_rhs(k: int, q: int, dual: int) -> int:
    """A #P^(k-1) - #X #P^(k-2) + q^7 dual, which equals q^(k-1) #X_K(F_q)
    for every K of dim k >= 1 with #X^v_K(F_q) = dual.

    X cap kappa^perp has A = predicted_count(1, q) points, or q^7 more when
    kappa is pure, so the pairs (s, kappa), s in X, kappa in P(K),
    <kappa, s> = 0, counted from both ends give this incidence identity.
    """
    a, nx = predicted_count(1, q), predicted_count(0, q)
    return a * projective_count(q, k - 1) - nx * projective_count(q, k - 2) + q**7 * dual


def _section_space(K: Subspace, side: str):
    """The space X_K or X^v_K lives in projectively, and the quadrics mu
    that cut it there."""
    if side == "X":
        return perp_in_plus(K), MU_INT[PLUS]
    if side == "X^v":
        return K, MU_INT[MINUS]
    raise ValueError("side must be 'X' or 'X^v'")


def _dual_section(K: Subspace) -> Subspace:
    """K' with X^v_K isomorphic to X_{K'}: Clifford multiplication by
    v = e_1 + f_1, q_V(v) = 1, maps S- onto S+ and X^v onto X (Chevalley),
    so X^v cap P(K) is X cap P(v K), and P(v K) = P(K'^perp) for
    K' = perp_in_minus(v K)."""
    v = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    return perp_in_minus(Subspace(K.field, DIM_S, [clifford_mul(K.field, v, w, MINUS) for w in K.basis]))


# The big cell s(A) with the four entries a_i5 (_HELD) held: Pf_1234 is a
# split quadric in the six a_ij, i < j <= 4 (_UNKNOWN), and every other
# coordinate is affine in them, since each term of a Pf_ijk5 has one a_l5.
_PAIR = SUBSET_INDEX[PLUS]
_UNKNOWN = tuple(_PAIR[s] for s in combinations(range(1, 5), 2))
_HELD = tuple(_PAIR[(i, 5)] for i in range(1, 5))
_PF = _PAIR[(1, 2, 3, 4)]
# Column order of a chart's equations: Pf_1234, the 6 unknowns, the 4
# Pf_ijk5, the 4 held entries, then the constant coordinate s_{} = 1.
_ORDER = (_PF,) + _UNKNOWN + tuple(_PAIR[(*s, 5)] for s in combinations(range(1, 5), 3)) + _HELD + (0,)
FIBRE_BLOCK = 1 << 12


def _cell():
    """(16, 5, 7): s(A)_S = [x, 1] @ table[S] @ [a, 1] for S in _ORDER, x the
    held and a the unknown entries; 0 for Pf_1234."""
    table = np.zeros((DIM_S, 5, 7), dtype=np.int64)
    table[np.arange(1, 7), 4, np.arange(6)] = 1
    for r in range(7, 11):
        for sign, u, v in PFAFFIAN_TERMS[_ORDER[r]]:
            u, v = (v, u) if u in _HELD else (u, v)
            table[r, _HELD.index(v), _UNKNOWN.index(u)] = sign
    table[np.arange(11, 16), np.arange(5), 6] = 1
    return table


_CELL = _cell()


def _chart_fibres(K: Subspace, tables):
    """The fibres of every chart in (n, 78) arrays of at most FIBRE_BLOCK
    rows: 1 where the fibre has a Pf_1234 row, then 11 rows [a coefficients,
    constant], first that of Pf_1234 + l(a) + c (or 0), then the linear ones.
    Over F_{p^m}, m > 1, only the t least in their Frobenius orbit are
    kept, and each row carries the orbit size in an extra column after the
    first: (n, 79) arrays.

    The points of X_K whose first nonzero coordinate is c are the g_c s(A)
    (`clifford.CHARTS`) on which K's pairing rows and the coordinates before
    c vanish: linear equations in the coordinates of s(A), with F_p
    coefficients.  A coordinate before c is one coordinate of s(A), so its
    unit row clears that column from the pairing rows, which are then
    reduced with the columns in _ORDER.  The rows with a held pivot cut the
    held entries to x = [t, 1] @ pmap, t in F_Q^free (or empty the chart,
    when a pivot is the constant 1); the others are affine over each x."""
    field, q = K.field, tables.q
    p = field.p
    kappa = pairing_rows(K, MINUS)
    for c, chart in enumerate(CHARTS):
        # <w, g_c s> = sum_S w[g_c(S)] sign_S s_S
        units = [i for i, s in enumerate(_ORDER) if chart[s][0] < c]
        rows = [
            [0 if chart[s][0] < c else w[chart[s][0]] * chart[s][1] % p for s in _ORDER]
            for w in kappa
        ]
        red, rank, pivots = rref(field, rows)
        heads = list(pivots) + units
        if DIM_S - 1 in heads:
            continue
        eqs = np.zeros((len(heads), DIM_S), dtype=np.int64)
        eqs[:rank] = np.array(red[:rank], dtype=np.int64).reshape(rank, DIM_S)
        eqs[np.arange(rank, len(heads)), units] = 1
        held = {j - 11: eqs[r] for r, j in enumerate(heads) if j >= 11}
        free = [i for i in range(4) if i not in held]
        pmap = np.zeros((len(free) + 1, 5), dtype=np.int64)
        pmap[np.arange(len(free) + 1), free + [4]] = 1
        for i, row in held.items():
            pmap[:, i] = -row[[11 + f for f in free] + [DIM_S - 1]] % p
        fibre = [r for j, r in sorted((j, r) for r, j in enumerate(heads) if j < 11)]
        quadric = int(0 in heads)
        g = np.zeros((5, 11, 7), dtype=np.int64)
        g[:, 1 - quadric : 1 - quadric + len(fibre)] = np.einsum("rs,sxy->xry", eqs[fibre], _CELL)
        g = pmap @ g.reshape(5, -1) % p
        n = q ** len(free)
        for lo in range(0, n, FIBRE_BLOCK):
            idx = np.arange(lo, min(lo + FIBRE_BLOCK, n), dtype=np.int64)
            digits = idx[:, None] // q ** np.arange(len(free) - 1, -1, -1) % q
            t = np.column_stack((digits, np.ones_like(idx)))
            head = []
            if tables.m > 1:
                # t in index order is t in lexicographic order
                rows, size = frobenius_orbits(tables, t)
                t, head = t[rows], [size]
            yield np.column_stack([np.full(len(t), quadric)] + head + [fp_map(tables, t, g)])


def count_on_charts(K: Subspace, m: int = 1) -> int:
    """#X_K(F_{p^m}) as the sum over the 16 coordinates c of the points of
    X_K whose first nonzero coordinate is c, fibre by fibre (`_chart_fibres`).

    Over each of the at most 16 Q^4 held points, Q = p^m, the linear rows
    are solved for the six unknowns (`scan.affine_solve`): a fibre without
    the Pf_1234 row has Q^(6 - rank) points, or none.  On a fibre with it,
    Pf_1234 + l(a) + c is restricted to the solutions a = sol [t, 1] and
    homogenized, and its affine zeros come from `scan.quadric_points`.

    Over F_Q, m > 1, a held point t and its Frobenius image t^p have fibres
    of the same rank and count, as x = [t, 1] pmap and the equations have
    F_p entries: only the t least in index order of their orbit are solved,
    each contribution multiplied by the orbit size.
    """
    p = K.field.p
    tables = field_tables(p if m == 1 else get_ext_field(p, m))
    q, total = tables.q, 0
    for f in in_blocks(_chart_fibres(K, tables), FIBRE_BLOCK):
        # column 1 holds the orbit sizes over F_{p^m}, m > 1
        size = f[:, 1] if m > 1 else None
        quadric, e = f[:, 0] == 1, f[:, 1 + (m > 1) :].reshape(len(f), 11, 7)
        rank, ok, sol = affine_solve(tables, e[:, 1:])
        lin, on = ok & ~quadric, ok & quadric
        ranks = rank[lin] if size is None else np.repeat(rank[lin], size[lin])
        total += sum(int(n) * q ** (6 - r) for r, n in enumerate(np.bincount(ranks)))
        if on.any():
            whole, hyper = quadric_points(tables, _pfaffian_forms(tables, e[on, 0], sol[on]))
            points = (whole - hyper) // ((q - 1) * q ** rank[on])
            total += sum((points if size is None else points * size[on]).tolist())
    return total


def _pfaffian_forms(tables, row, sol):
    """Pf_1234(a) + y l(a) + c y^2 for a = sol z, z = [t, y], and the rows
    [l, c]: (n, 7, 7) forms in z."""
    mul, add = tables.mul, tables.add
    forms = np.zeros((len(row), 7, 7), dtype=np.int64)
    for sign, u, v in PFAFFIAN_TERMS[_PF]:
        term = mul(sol[:, _UNKNOWN.index(u), :, None], sol[:, _UNKNOWN.index(v), None, :])
        forms = add(forms, term if sign > 0 else tables.neg(term))
    forms[:, :, 6] = reduce(add, (mul(row[:, u, None], sol[:, u]) for u in range(6)), forms[:, :, 6])
    forms[:, 6, 6] = add(forms[:, 6, 6], row[:, 6])
    return forms


def count_section_points(
    K: Subspace, side: str = "X", m: int = 1, *, budget: int = DEFAULT_COUNT_BUDGET
) -> int:
    """Exact number of F_{q^m}-points of X_K (side "X") or X^v_K ("X^v").

    Both are counted on the 16 charts of X (`count_on_charts`, side "X^v"
    as X_{K'}) when the ambient space P(K^perp) resp. P(K) has more than
    CHART_CROSSOVER[m > 1] * 16 q^(4m) F_{q^m}-points; otherwise its points
    are scanned.  The budget bounds what the chosen method enumerates,
    16 q^(4m) fibres or the scanned points: more is refused with
    BudgetExceededError.
    """
    field = K.field
    if not isinstance(field, PrimeField):
        raise ValueError("counting needs a prime field")
    if m < 1:
        raise ValueError(f"extension degree must be at least 1, got {m}")
    q = field.p
    amb, quadrics = _section_space(K, side)
    d = amb.dim
    if d == 0:
        return 0
    n = num_projective_points(q**m, d)
    fibres = 16 * q ** (4 * m)
    on_charts = n > CHART_CROSSOVER[m > 1] * fibres
    if (fibres if on_charts else n) > budget:
        what = f"chart count of {fibres} fibres" if on_charts else f"scan of {n} points"
        raise BudgetExceededError(f"{what} (q={q}, m={m}, d={d}) exceeds budget {budget}")
    if on_charts:
        return count_on_charts(K if side == "X" else _dual_section(K), m)
    forms = restricted_forms(field, quadrics, amb.basis)
    if m == 1:
        count, _ = zero_locus(forms, q, d)
        return count
    count, _ = ext_zero_locus(forms, get_ext_field(q, m), d)
    return count


def quadric_count(q: int) -> int:
    """#Q(F_q) for the 8-dimensional quadric Q = {q_V = 0} in P^9: q_V is
    the split (hyperbolic) form sum e_i f_i, so #Q = #P^8 + q^4."""
    return projective_count(q, 8) + q**4


@dataclass(frozen=True)
class CountReport:
    q: int
    m: int
    k: int
    side: str
    actual: int
    predicted: int
    passed: bool
    identity_lhs: int | None = None
    identity_rhs: int | None = None
    notes: str = ""

    CSV_HEADER = "q, m, k, side, actual, predicted, pass"

    def csv_row(self) -> str:
        return (
            f"{self.q}, {self.m}, {self.k}, {self.side}, "
            f"{self.actual}, {self.predicted}, {self.passed}"
        )


def count_report(K: Subspace, side: str = "X", m: int = 1, **kw) -> CountReport:
    """CountReport for #X_K(F_{q^m}) against the motive of X (k = 0) or the
    incidence identity in multiplied form (k >= 1, X^v_K counted alike),
    predicting its right-hand side over Q^(k-1), Q = q^m; X^v_K has no
    prediction."""
    actual = count_section_points(K, side, m, **kw)
    q, k, Q = K.field.p, K.dim, K.field.p**m
    if side != "X":
        return CountReport(q, m, k, side, actual, actual, True, notes="no prediction")
    if k == 0:
        predicted = predicted_count(0, Q)
        return CountReport(q, m, k, side, actual, predicted, actual == predicted)
    rhs = incidence_rhs(k, Q, count_section_points(K, "X^v", m, **kw))
    lhs = Q ** (k - 1) * actual
    return CountReport(q, m, k, side, actual, rhs // Q ** (k - 1), lhs == rhs, identity_lhs=lhs, identity_rhs=rhs)


def verify_blowup_identity(K: Subspace, m: int = 1, **kw) -> CountReport:
    """The fibration cross-check over F_Q, Q = q^m: blowing up X_K inside
    P^{15-k} fibers over the quadric Q with P^{8-k} fibers away from a
    P^{k-1} of special fibers:

        #P^{15-k} + #X_K (#P^4 - 1) = #Q #P^{7-k} + #P^{k-1} Q^{8-k}
    """
    q, k = K.field.p, K.dim
    if not 1 <= k <= 5:
        raise ValueError("blowup identity needs 1 <= k <= 5")
    nx = count_section_points(K, "X", m, **kw)
    Q = q**m
    lhs = projective_count(Q, 15 - k) + nx * (projective_count(Q, 4) - 1)
    rhs = quadric_count(Q) * projective_count(Q, 7 - k) + projective_count(Q, k - 1) * Q ** (8 - k)
    return CountReport(
        q, m, k, "X", nx, predicted_count(k, Q),
        lhs == rhs, identity_lhs=lhs, identity_rhs=rhs,
    )


def dual_point_profile(K: Subspace, max_degree: int = 4, *, budget: int = DEFAULT_COUNT_BUDGET):
    """Closed points of X^v_K of degree <= max_degree (12 in all for generic k = 6).

    Returns (counts, degrees) where counts[m] = #X^v_K(F_{q^m}) and degrees
    maps d -> number of closed points of degree d, recovered from
    N_m = sum_{d | m} d * a_d.  A degree over the budget ends the profile;
    degree 1 over it raises BudgetExceededError.
    """
    counts = {}
    for m in range(1, max_degree + 1):
        try:
            counts[m] = count_section_points(K, "X^v", m, budget=budget)
        except BudgetExceededError:
            if m == 1:
                raise
            break
    degrees = {}
    for m in sorted(counts):
        known = sum(d * a for d, a in degrees.items() if m % d == 0)
        extra = counts[m] - known
        if extra < 0 or extra % m:
            raise ValueError("inconsistent extension counts (non-reduced scheme?)")
        if extra:
            degrees[m] = extra // m
    return counts, degrees


def verify_k6_relation(K: Subspace, *, max_degree: int = 4, **kw) -> CountReport:
    """The incidence identity at k = 6, #X_K(F_q) = 1 + q + q^3 + q^4 +
    q^2 #X^v_K(F_q), with the dual profile's degrees in the notes."""
    q = K.field.p
    if K.dim != 6:
        raise ValueError("k = 6 relation needs dim K = 6")
    counts, degrees = dual_point_profile(K, max_degree, **kw)
    length_seen = sum(d * a for d, a in degrees.items())
    nx = count_section_points(K, "X", 1, **kw)
    predicted = incidence_rhs(6, q, counts[1]) // q**5
    notes = f"dual degrees {sorted(degrees.items())}, length >= {length_seen}"
    return CountReport(q, 1, 6, "X", nx, predicted, nx == predicted, notes=notes)
