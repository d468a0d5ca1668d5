"""The split quadratic space V = F^10 and the half-spinor modules S+, S-.

Model: V has hyperbolic basis e1..e5, f1..f5 with q_V(sum a_i e_i + b_i f_i)
= sum a_i b_i.  S+ (resp. S-) is the even (resp. odd) part of the exterior
algebra on <e1..e5>; e_i acts by wedge, f_i by contraction.

Coordinate order (part of the wire format): subsets T of {1..5} with |T|
even (plus) or odd (minus), sorted by (|T|, lexicographic).  For S+ this is
{}, {1,2}, {1,3}, {1,4}, {1,5}, {2,3}, ..., {4,5}, {1,2,3,4}, ..., {2,3,4,5}.

The duality pairing S- x S+ -> F reads off the coefficient of e12345 in
rev(t) ^ s (the reversal convention, under which mu vanishes on the pure
spinors 1 and e12 and not on 1 + e1234).  Each basis vector of V acts as a
signed partial permutation of the basis (`E_TABLE`, `F_TABLE`) and the
pairing is a signed permutation (`PAIR_TERMS`), so the quadrics mu
(`MU_INT`) and every orthogonal under the pairing are read off these tables.
So are the 16 affine charts of X: the big cell s(A) = (1, a_ij, Pf_ijkl(A))
(`PFAFFIAN_TERMS`) moved by the signed permutations g_c (`CHARTS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import Field
from .linalg import Subspace, check_invariant, kernel_basis, mat

PLUS, MINUS = "+", "-"

_ALL = [
    s for size in range(6) for s in combinations(range(1, 6), size)
]
PLUS_SUBSETS = tuple(s for s in _ALL if len(s) % 2 == 0)
MINUS_SUBSETS = tuple(s for s in _ALL if len(s) % 2 == 1)
SUBSETS = {PLUS: PLUS_SUBSETS, MINUS: MINUS_SUBSETS}
SUBSET_INDEX = {
    half: {s: i for i, s in enumerate(subs)} for half, subs in SUBSETS.items()
}
DIM_S = 16
DIM_V = 10


def other_half(half: str) -> str:
    return MINUS if half == PLUS else PLUS


def _wedge(i, subset):
    """e_i ^ e_subset -> (subset', sign) or None."""
    if i in subset:
        return None
    before = sum(1 for t in subset if t < i)
    return tuple(sorted(subset + (i,))), -1 if before % 2 else 1


def _contract(i, subset):
    """iota_{f_i} e_subset -> (subset', sign) or None."""
    if i not in subset:
        return None
    pos = subset.index(i)
    return subset[:pos] + subset[pos + 1 :], -1 if pos % 2 else 1


def _action_tables():
    # tables[half][i-1] maps source index -> (target index in other half, sign)
    e_tab = {PLUS: [], MINUS: []}
    f_tab = {PLUS: [], MINUS: []}
    for half in (PLUS, MINUS):
        tgt = SUBSET_INDEX[other_half(half)]
        for i in range(1, 6):
            erow, frow = [], []
            for s in SUBSETS[half]:
                w = _wedge(i, s)
                erow.append((tgt[w[0]], w[1]) if w else None)
                c = _contract(i, s)
                frow.append((tgt[c[0]], c[1]) if c else None)
            e_tab[half].append(tuple(erow))
            f_tab[half].append(tuple(frow))
    return e_tab, f_tab


E_TABLE, F_TABLE = _action_tables()


def clifford_mul(field: Field, v, coords, half: str):
    """Clifford action of v in V (10 coords a1..a5, b1..b5) on a half spinor."""
    out = [field.zero] * DIM_S
    etab, ftab = E_TABLE[half], F_TABLE[half]
    for idx, c in enumerate(coords):
        if c == field.zero:
            continue
        for i in range(5):
            a = v[i]
            if a != field.zero:
                hit = etab[i][idx]
                if hit:
                    j, sign = hit
                    term = field.mul(a, c)
                    out[j] = field.add(out[j], term if sign > 0 else field.neg(term))
            b = v[5 + i]
            if b != field.zero:
                hit = ftab[i][idx]
                if hit:
                    j, sign = hit
                    term = field.mul(b, c)
                    out[j] = field.add(out[j], term if sign > 0 else field.neg(term))
    return tuple(out)


def qV(field: Field, v):
    acc = field.zero
    for i in range(5):
        acc = field.add(acc, field.mul(v[i], v[5 + i]))
    return acc


def bV(field: Field, v, w):
    acc = field.zero
    for i in range(5):
        acc = field.add(acc, field.mul(v[i], w[5 + i]))
        acc = field.add(acc, field.mul(v[5 + i], w[i]))
    return acc


def basis_e(field: Field, i: int):
    v = [field.zero] * 10
    v[i - 1] = field.one
    return tuple(v)


def basis_f(field: Field, i: int):
    v = [field.zero] * 10
    v[4 + i] = field.one
    return tuple(v)


def v_basis(field: Field):
    """e1..e5, f1..f5: the coordinate basis of V."""
    return [basis_e(field, i) for i in range(1, 6)] + [
        basis_f(field, i) for i in range(1, 6)
    ]


def _pairing_terms():
    """(minus index, plus index, sign) triples for <t, s> = [rev(t) ^ s]_top:
    reversing t takes d(d-1)/2 transpositions, sorting t ^ comp(t) one per
    inversion between the two."""
    terms = []
    full = frozenset(range(1, 6))
    for ti, t in enumerate(MINUS_SUBSETS):
        comp = tuple(sorted(full - set(t)))
        flips = len(t) * (len(t) - 1) // 2 + sum(1 for a in t for b in comp if b < a)
        terms.append((ti, SUBSET_INDEX[PLUS][comp], -1 if flips % 2 else 1))
    return tuple(terms)


PAIR_TERMS = _pairing_terms()
# _PARTNER[half][i] = (j, sign): the pairing of b_i in S_half with b_j in the
# other half is sign, and with every other basis vector 0
_PARTNER = {
    MINUS: {ti: (si, sign) for ti, si, sign in PAIR_TERMS},
    PLUS: {si: (ti, sign) for ti, si, sign in PAIR_TERMS},
}


def pairing(field: Field, t_coords, s_coords):
    """Duality pairing <t, s> with t in S-, s in S+."""
    acc = field.zero
    for ti, si, sign in PAIR_TERMS:
        x, y = t_coords[ti], s_coords[si]
        if x != field.zero and y != field.zero:
            term = field.mul(x, y)
            acc = field.add(acc, term if sign > 0 else field.neg(term))
    return acc


def pairing_rows(W: Subspace, half: str):
    """The functionals <., w> on the other half, one row per basis vector w
    of W inside S_half.  The pairing is a signed permutation of the
    coordinates, so each row is w itself with its coordinates moved and
    signed."""
    field = W.field
    partner = _PARTNER[half]
    rows = []
    for w in W.basis:
        row = [field.zero] * DIM_S
        for i, x in enumerate(w):
            j, sign = partner[i]
            row[j] = x if sign > 0 else field.neg(x)
        rows.append(row)
    return mat(rows)


def pairing_orthogonal(W: Subspace, half: str) -> Subspace:
    """{t in the other half : <t, w> = 0 for all w in W}, for W inside S_half."""
    if W.dim == 0:
        return Subspace.full(W.field, DIM_S)
    return Subspace(W.field, DIM_S, kernel_basis(W.field, pairing_rows(W, half)))


def _charts():
    """g_c = prod (e_i + f_i) over i in the subset T_c of each S+ coordinate
    c, as a signed permutation: g_c b_S = sign b_{S ^ T_c}.  Each factor is
    a wedge or a contraction on each basis spinor, never both, and |T_c| is
    even, so g_c maps S+ to itself and X onto X, and g_c . 1 = +-b_{T_c}."""
    charts = []
    for c, subset in enumerate(PLUS_SUBSETS):
        perm, half = [(i, 1) for i in range(DIM_S)], PLUS
        for i in subset:
            hits = [E_TABLE[half][i - 1][j] or F_TABLE[half][i - 1][j] for j, _ in perm]
            perm = [(j, sign * s) for (j, s), (_, sign) in zip(hits, perm)]
            half = other_half(half)
        check_invariant(
            perm[0][0] == c and len({j for j, _ in perm}) == DIM_S,
            f"g_{c} permutes S+ and takes 1 to the coordinate {c}",
        )
        charts.append(tuple(perm))
    return tuple(charts)


CHARTS = _charts()


def _pfaffian_terms():
    """Pf_ijkl(A) = a_ij a_kl - a_ik a_jl + a_il a_jk, keyed by the S+ index
    of {i, j, k, l}, as (sign, index of one pair, index of the other)."""
    idx = SUBSET_INDEX[PLUS]
    return {
        idx[(i, j, k, l)]: (
            (1, idx[(i, j)], idx[(k, l)]),
            (-1, idx[(i, k)], idx[(j, l)]),
            (1, idx[(i, l)], idx[(j, k)]),
        )
        for i, j, k, l in combinations(range(1, 6), 4)
    }


# The big cell of X: s(A) = exp(sum a_ij e_i e_j) . 1 = (1, a_ij, Pf_ijkl(A))
# for A alternating 5x5, with no further signs in these coordinates.
PFAFFIAN_TERMS = _pfaffian_terms()


def _mu_terms(half: str):
    """The 10 coordinates of mu as integer quadrics, each a tuple of its
    (u, v, c) terms c s_u s_v, u < v, in (u, v) order.

    Coordinate order matches VecV: a1..a5 (from <f_j . s, s>) then b1..b5
    (from <e_j . s, s>).  Row i of the bilinear matrix of <w . s, s> has one
    entry: w . b_i = sigma b_t, and b_t pairs only with its partner b_j, with
    sign eps.  Folded to u <= v it is twice a primitive integral quadric of
    four terms; only the halved model cuts the variety in characteristic 2,
    and mu_w(s) = sum c s_u s_v holds in every characteristic.
    """
    partner = _PARTNER[other_half(half)]
    quadrics = []
    for table in (F_TABLE, E_TABLE):
        for action in table[half]:
            fold = {}
            for i, hit in enumerate(action):
                if hit:
                    t, sigma = hit
                    j, eps = partner[t]
                    key = (min(i, j), max(i, j))
                    fold[key] = fold.get(key, 0) + sigma * eps
            quadrics.append(tuple((u, v, x // 2) for (u, v), x in sorted(fold.items()) if x // 2))
    return tuple(quadrics)


MU_INT = {h: _mu_terms(h) for h in (PLUS, MINUS)}


def eval_quadratic(field: Field, terms, coords):
    """Evaluate an integer quadric, given as (u, v, c) terms, at coords."""
    acc = field.zero
    for u, v, c in terms:
        x, y = coords[u], coords[v]
        if x != field.zero and y != field.zero:
            acc = field.add(acc, field.mul(field.mul(x, y), field.from_int(c)))
    return acc


@dataclass(frozen=True)
class HalfSpinor:
    """A half spinor: the half tag and 16 coordinates in the documented order."""

    half: str
    coords: tuple

    def __post_init__(self):
        if self.half not in (PLUS, MINUS):
            raise ValueError("half must be '+' or '-'")
        if len(self.coords) != DIM_S:
            raise ValueError("a half spinor has 16 coordinates")

    @classmethod
    def from_subsets(cls, field, half, subsets_coeffs):
        s = [field.zero] * DIM_S
        for subset, c in subsets_coeffs:
            s[SUBSET_INDEX[half][tuple(sorted(subset))]] = c
        return cls(half, tuple(s))
