"""Finite-field point counts of X_K and X^v_K, the #X_K that the incidence
identity (`_incidence_count`) predicts from #X^v_K, and the
blowup-fibration identity.

A count is made one of two ways, with the same answer.  Large X_K are
counted on the 16 affine charts of X (Chevalley's big cell s(A) moved by
signed permutations): each chart is cut into fibres on which K's equations
are linear in three unknowns, and each fibre contributes Q^(3 - rank)
points or none.  Smaller X_K, and every X^v_K, are counted by scanning the
normalized projective representatives of the ambient space in
lexicographic order (see `scan`).  Both are deterministic and independent
of the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CHARTS, DIM_S, MINUS, PFAFFIAN_TERMS, PLUS, MU_INT, SUBSET_INDEX, pairing_rows
from .fields import PrimeField, get_ext_field
from .linalg import Subspace, rref
from .scan import affine_fibre_count, ext_zero_locus, num_projective_points, zero_locus
from .sections import perp_in_plus
from .variety import restrict_quadric

DEFAULT_COUNT_BUDGET = 1 << 26
# count_section_points counts X_K on the charts when n = #P(K^perp)(F_Q)
# exceeds CHART_CROSSOVER * 16 Q^7 (16 charts of at most Q^7 fibres each)
# and scans P(K^perp) otherwise.  Measured on a 2-core Xeon with one BLAS
# thread, in ratios n / (16 Q^7): the charts win at every ratio of 16 and
# more, by 1.7x (Q = 2, ratio 16) to 105x (Q = 4, ratio 341), and at 5.3
# to 9.8 by 1.1x to 3x (Q = 3, 4, 5, generic K and K through a pure
# spinor); the scan wins at every ratio of 4 and less, by 1.9x to 18x
# (Q = 2, 3, 4, 5, 7).  In between, at 8, Q = 2 takes 6-7 ms on the charts
# against 4 ms on the scan, fixed cost that no larger field pays.
CHART_CROSSOVER = 5

# Multiplicities n_0..n_{10-k} of the Lefschetz powers in the integral
# motive of X (k = 0) and of its smooth hyperplane sections (k = 1).
MOTIVE_ROWS = {
    0: (1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1),
    1: (1, 1, 1, 2, 2, 2, 2, 1, 1, 1),
}


class BudgetExceededError(RuntimeError):
    pass


def predicted_count(k: int, q: int) -> int:
    """#X_K(F_q) for a smooth X_K, forced by its Lefschetz-type motive."""
    if not 0 <= k <= 5:
        raise ValueError("predicted_count needs 0 <= k <= 5")
    if k >= 2:
        return _incidence_count(k, q, 0)
    return sum(n * q**i for i, n in enumerate(MOTIVE_ROWS[k]))


def projective_count(q: int, dim: int) -> int:
    """#P^dim(F_q) (0 for dim = -1)."""
    return num_projective_points(q, dim + 1)


def _incidence_count(k: int, q: int, dual: int) -> int:
    """The #X_K(F_q) forced by #X^v_K(F_q) = dual, for 1 <= k <= 8.

    X cap kappa^perp has A = predicted_count(1, q) points, or q^7 more when
    kappa is pure, so the pairs (s, kappa), s in X, kappa in P(K),
    <kappa, s> = 0, counted from both ends give q^(k-1) #X_K =
    A #P^(k-1) - #X #P^(k-2) + q^7 #X^v_K; for k <= 8 q^(k-1) divides
    both terms (the first as a polynomial in q).
    """
    if not 1 <= k <= 8:
        raise ValueError("the incidence count needs 1 <= k <= 8")
    a, nx = predicted_count(1, q), predicted_count(0, q)
    smooth = a * projective_count(q, k - 1) - nx * projective_count(q, k - 2)
    return smooth // q ** (k - 1) + q ** (8 - k) * dual


def _section_space(K: Subspace, side: str):
    """The space X_K or X^v_K lives in projectively, and the quadrics mu
    that cut it there."""
    if side == "X":
        return perp_in_plus(K), MU_INT[PLUS]
    if side == "X^v":
        return K, MU_INT[MINUS]
    raise ValueError("side must be 'X' or 'X^v'")


# The big cell s(A) with the seven entries of _FIXED held: every coordinate
# is affine in the three entries a_12, a_13, a_23 of _VARYING, since any two
# of them share an index and so no Pfaffian term multiplies two of them.
_PAIR = SUBSET_INDEX[PLUS]
_VARYING = (_PAIR[(1, 2)], _PAIR[(1, 3)], _PAIR[(2, 3)])
_FIXED = tuple(_PAIR[s] for s in ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
# Column order of a chart's equations: the 8 coordinates that vary along a
# fibre, the 7 fixed entries, then the constant coordinate s_{} = 1.
_ORDER = _VARYING + tuple(PFAFFIAN_TERMS) + _FIXED + (0,)


def _big_cell():
    """(products, table): s(A)_S = sum_t a_t (table[S, t] . phi) + table[S, 3]
    . phi, for a_t the _VARYING entries, x the _FIXED entries and phi = [x,
    x_i x_j for (i, j) in products, 1]; the rows S are in _ORDER."""
    fixed = {s: i for i, s in enumerate(_FIXED)}
    products = [
        (fixed[u], fixed[v])
        for terms in PFAFFIAN_TERMS.values()
        for _, u, v in terms
        if u in fixed and v in fixed
    ]
    one = len(_FIXED) + len(products)
    table = np.zeros((DIM_S, 4, one + 1), dtype=np.int64)
    table[0, 3, one] = 1
    for t, s in enumerate(_VARYING):
        table[s, t, one] = 1
    for s, i in fixed.items():
        table[s, 3, i] = 1
    for s, terms in PFAFFIAN_TERMS.items():
        for sign, u, v in terms:
            if u in fixed and v in fixed:
                table[s, 3, len(_FIXED) + products.index((fixed[u], fixed[v]))] += sign
            else:
                if u in fixed:
                    u, v = v, u
                table[s, _VARYING.index(u), fixed[v]] += sign
    return products, table[list(_ORDER)]


_PRODUCTS, _BIG_CELL = _big_cell()


def count_on_charts(K: Subspace, m: int = 1) -> int:
    """#X_K(F_{p^m}) as the sum over the 16 coordinates c of the points of
    X_K whose first nonzero coordinate is c.

    Those are the g_c s(A) (`clifford.CHARTS`, `PFAFFIAN_TERMS`) on which
    K's pairing rows and the coordinates before c vanish: linear equations
    in the coordinates of s(A), with F_p coefficients.  A coordinate before
    c is one coordinate of s(A), so its unit row clears that column from
    the pairing rows, which are then reduced with the columns in _ORDER.
    The rows without a varying coordinate cut the 7 fixed entries to an
    affine subspace (or empty the chart, when one is the constant 1), and
    over each of its points the other rows, at most 8, are a linear system
    in the 3 varying entries (`scan.affine_fibre_count`).
    """
    field = K.field
    p = field.p
    target = p if m == 1 else get_ext_field(p, m)
    kappa = pairing_rows(K, MINUS)
    total = 0
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
        lin = [r for r, j in enumerate(heads) if j < 8]
        held = {j - 8: eqs[r] for r, j in enumerate(heads) if j >= 8}
        free = [i for i in range(len(_FIXED)) if i not in held]
        # x = [t, 1] @ pmap: the free entries are t, the held ones solved
        pmap = np.zeros((len(free) + 1, len(_FIXED)), dtype=np.int64)
        pmap[np.arange(len(free)), free] = 1
        for i, row in held.items():
            pmap[:, i] = -row[[8 + f for f in free] + [DIM_S - 1]] % p
        if not lin:
            total += (p**m) ** (len(free) + 3)
            continue
        gamma = np.einsum("rs,stf->frt", eqs[lin], _BIG_CELL).reshape(-1, 4 * len(lin)) % p
        total += affine_fibre_count(target, len(free), pmap, _PRODUCTS, gamma)
    return total


def count_section_points(
    K: Subspace,
    side: str = "X",
    m: int = 1,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
    workers: int = 1,
) -> int:
    """Exact number of F_{q^m}-points of X_K (side "X") or X^v_K ("X^v").

    Side "X" is counted on the 16 charts of X (`count_on_charts`) when
    #P(K^perp)(F_{q^m}) exceeds CHART_CROSSOVER * 16 q^(7m); otherwise, and
    for side "X^v", the points of P(K^perp) resp. P(K) are scanned
    (`workers` threads, same count for any number).  The budget bounds what
    the chosen method enumerates, 16 q^(7m) fibres or the scanned points:
    more is refused with BudgetExceededError.
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
    fibres = 16 * q ** (7 * m)
    on_charts = side == "X" and n > CHART_CROSSOVER * fibres
    if (fibres if on_charts else n) > budget:
        what = f"chart count of {fibres} fibres" if on_charts else f"scan of {n} points"
        raise BudgetExceededError(f"{what} (q={q}, m={m}, d={d}) exceeds budget {budget}")
    if on_charts:
        return count_on_charts(K, m)
    forms = [restrict_quadric(field, c, amb.basis) for c in quadrics]
    if m == 1:
        count, _ = zero_locus(forms, q, d, workers=workers)
        return count
    count, _ = ext_zero_locus(forms, get_ext_field(q, m), d, workers=workers)
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
    incidence identity (k <= 8, X^v_K counted alike); else no prediction."""
    actual = count_section_points(K, side, m, **kw)
    q, k = K.field.p, K.dim
    if side == "X" and k == 0:
        predicted = predicted_count(0, q**m)
    elif side == "X" and k <= 8:
        predicted = _incidence_count(k, q**m, count_section_points(K, "X^v", m, **kw))
    else:
        return CountReport(q, m, k, side, actual, actual, True, notes="no prediction")
    return CountReport(q, m, k, side, actual, predicted, actual == predicted)


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


def dual_point_profile(
    K: Subspace, max_degree: int = 4, *, budget: int = DEFAULT_COUNT_BUDGET, workers: int = 1
):
    """Closed points of X^v_K of degree <= max_degree (12 in all for generic k = 6).

    Returns (counts, degrees) where counts[m] = #X^v_K(F_{q^m}) and degrees
    maps d -> number of closed points of degree d, recovered from
    N_m = sum_{d | m} d * a_d.  A degree over the budget ends the profile;
    degree 1 over it raises BudgetExceededError.
    """
    counts = {}
    for m in range(1, max_degree + 1):
        try:
            counts[m] = count_section_points(K, "X^v", m, budget=budget, workers=workers)
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
    predicted = _incidence_count(6, q, counts[1])
    notes = f"dual degrees {sorted(degrees.items())}, length >= {length_seen}"
    return CountReport(q, 1, 6, "X", nx, predicted, nx == predicted, notes=notes)
