"""Equations and membership for the spinor tenfold X in P(S+) and its dual
X^v in P(S-): the quadratic map mu, annihilators, the spinor 8-spaces S8_v
with their quadratic forms Phi_v, and random isotropic generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import (
    DIM_S,
    DIM_V,
    MINUS,
    MU_INT,
    PLUS,
    basis_f,
    bV,
    clifford_mul,
    eval_quadratic,
    qV,
    v_basis,
)
from .fields import Field, PrimeField, RationalField
from .linalg import (
    Subspace, SymBilinearForm, check_invariant, identity_matrix, kernel_basis, mat, mat_vec,
    rref, transpose,
)


def mu(field: Field, coords, half: str):
    """The 10 quadrics cutting X (half +) resp. X^v (half -), as a vector in V."""
    return tuple(eval_quadratic(field, c, coords) for c in MU_INT[half])


def is_pure(field: Field, coords, half: str) -> bool:
    return any(c != field.zero for c in coords) and all(
        x == field.zero for x in mu(field, coords, half)
    )


def annihilator(field: Field, coords, half: str) -> Subspace:
    """{v in V : v . s = 0}; dim 5 iff s is pure."""
    if all(c == field.zero for c in coords):
        raise ValueError("zero spinor has no annihilator")
    images = [clifford_mul(field, v, coords, half) for v in v_basis(field)]
    # columns = images; kernel in V
    m = transpose(mat(images))
    return Subspace(field, DIM_V, kernel_basis(field, m))


def is_isotropic(field: Field, u: Subspace) -> bool:
    for i, a in enumerate(u.basis):
        if qV(field, a) != field.zero:
            return False
        for b in u.basis[i + 1 :]:
            if bV(field, a, b) != field.zero:
                return False
    return True


def annihilator_kernel(field: Field, u: Subspace, half: str) -> Subspace:
    """{s in S_half : w . s = 0 for all w in U}; dim = 2^(4 - dim U)."""
    if not 1 <= u.dim <= 5 or not is_isotropic(field, u):
        raise ValueError("U must be isotropic of dimension 1..5")
    units = identity_matrix(field, DIM_S)
    rows = []
    for w in u.basis:
        cols = [clifford_mul(field, w, b, half) for b in units]
        rows.extend(transpose(mat(cols)))
    ker = Subspace(field, DIM_S, kernel_basis(field, mat(rows)))
    # a maximal isotropic U has the spinor line in its half and 0 in the other
    holds = ker.dim == 2 ** (4 - u.dim) if u.dim <= 4 else ker.dim <= 1
    check_invariant(holds, "annihilator kernel has the wrong dimension")
    return ker


def f_reference(field: Field) -> Subspace:
    return Subspace(field, DIM_V, [basis_f(field, i) for i in range(1, 6)])


def half_of_maximal_isotropic(field: Field, w: Subspace) -> str:
    """Parity rule: W is in the plus family iff dim(W cap F) is odd."""
    d = w.intersect(f_reference(field)).dim
    return PLUS if d % 2 == 1 else MINUS


@dataclass(frozen=True)
class PureSpinorWitness:
    field: Field
    half: str
    spinor: tuple
    annihilator: Subspace

    def __post_init__(self):
        check_invariant(self.annihilator.dim == 5, "a pure spinor's annihilator has dim 5")


def witness_from_isotropic5(field: Field, w: Subspace) -> PureSpinorWitness:
    if w.dim != 5 or not is_isotropic(field, w):
        raise ValueError("need a maximal isotropic subspace")
    half = half_of_maximal_isotropic(field, w)
    line = annihilator_kernel(field, w, half)
    check_invariant(line.dim == 1, "a maximal isotropic has one spinor line")
    return PureSpinorWitness(field, half, line.basis[0], w)


def witness_from_spinor(field: Field, coords, half: str) -> PureSpinorWitness:
    ann = annihilator(field, coords, half)
    if ann.dim != 5:
        raise ValueError("spinor is not pure")
    return PureSpinorWitness(field, half, coords, ann)


def extend_isotropic4(field: Field, u4: Subspace):
    """The two maximal isotropic extensions of a 4-dim isotropic subspace,
    one per family.  Returns (plus witness, minus witness)."""
    if u4.dim != 4 or not is_isotropic(field, u4):
        raise ValueError("need an isotropic 4-space")
    out = {}
    for half in (PLUS, MINUS):
        line = annihilator_kernel(field, u4, half)
        s = line.basis[0]
        ann = annihilator(field, s, half)
        check_invariant(ann.dim == 5 and ann.contains_subspace(u4), "bad maximal extension")
        out[half] = PureSpinorWitness(field, half, s, ann)
    return out[PLUS], out[MINUS]


@lru_cache(maxsize=64)
def _quadric_terms(quadrics, p):
    """(n, T) arrays u, v, c of the terms c s_u s_v of n quadrics of at most
    T terms, padded with c = 0; c reduced mod p, or Python ints for p = None."""
    us, vs, cs = np.zeros((3, len(quadrics), max(map(len, quadrics))), dtype=np.int64)
    for n, terms in enumerate(quadrics):
        for t, (u, v, c) in enumerate(terms):
            us[n, t], vs[n, t], cs[n, t] = u, v, c
    return us, vs, cs % p if p else cs.astype(object)


def restrict_quadric(field: Field, terms, basis_rows):
    """Restrict integer quadrics on S, each a tuple of (u, v, c) terms, to
    the span of basis_rows B: t -> sum c (t.B)_u (t.B)_v.

    `terms` is one quadric, or a sequence of them (as MU_INT[half])
    restricted by one contraction A_n = sum c B[:, u] B[:, v]^T over the
    terms of each; terms may be lists or arrays of ints or numpy integers.
    Returns one matrix, or a list: the upper-triangular coefficients of each
    restricted polynomial, A_ij + A_ji above the diagonal and A_ii on it,
    valid in every characteristic.  Over F_p, B and c are reduced, so with
    at most 256 terms an entry is below 2^57, exact in int64; over Q the
    arrays hold Fractions.
    """
    if not isinstance(field, (PrimeField, RationalField)):
        raise ValueError("restrict_quadric needs a prime field or the rationals")
    p, k = field.char or None, len(basis_rows)  # p is None over Q
    single = len(terms) == 0 or np.ndim(terms[0][0]) == 0  # terms[0] is (u, v, c)
    quadrics = tuple(tuple(map(tuple, quad)) for quad in ((terms,) if single else terms))
    us, vs, cs = _quadric_terms(quadrics, p)
    bt = np.array(basis_rows, dtype=np.int64 if p else object).reshape(k, DIM_S).T
    a = (bt[us] * cs[:, :, None]).transpose(0, 2, 1) @ bt[vs]
    a = (a + a.transpose(0, 2, 1) - a * np.eye(k, dtype=np.int64)) * np.triu(np.ones((k, k), dtype=np.int64))
    out = [tuple(map(tuple, m)) for m in (a % p if p else a).tolist()]
    return out[0] if single else out


@dataclass(frozen=True)
class SpinorEightSpace:
    field: Field
    v: tuple
    half: str
    space: Subspace
    poly: tuple  # 8x8 upper-triangular coefficients of Phi_v (any characteristic)
    form: object  # SymBilinearForm, or None in characteristic 2

    def corank(self) -> int:
        return self.form.corank() if self.form is not None else -1


def phi_v(field: Field, v, half: str) -> SpinorEightSpace:
    """The 8-space S8_v = ker(v . -) on S_half with its quadric Q_v = X cap P(S8_v)."""
    if qV(field, v) != field.zero or all(c == field.zero for c in v):
        raise ValueError("v must be nonzero isotropic")
    vline = Subspace(field, DIM_V, [v])
    space = annihilator_kernel(field, vline, half)  # dim 8, checked there
    restricted = restrict_quadric(field, MU_INT[half], space.basis)
    # the ten restricted quadrics must span a rank-1 system
    vecs = [tuple(r[i][j] for i in range(8) for j in range(i, 8)) for r in restricted]
    _, rank, _ = rref(field, mat(vecs))
    check_invariant(rank == 1, "restricted quadrics do not form a rank-1 system")
    poly = next(
        r for r in restricted if any(any(x != field.zero for x in row) for row in r)
    )
    form = None
    if field.char != 2:
        inv2 = field.inv(field.from_int(2))
        gram = [[field.zero] * 8 for _ in range(8)]
        for i in range(8):
            gram[i][i] = poly[i][i]
            for j in range(i + 1, 8):
                gram[i][j] = gram[j][i] = field.mul(poly[i][j], inv2)
        form = SymBilinearForm(field, gram)
    return SpinorEightSpace(field, tuple(v), half, space, poly, form)


def _random_alternating(field: Field, rng):
    m = [[field.zero] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            x = field.sample(rng)
            m[i][j] = x
            m[j][i] = field.neg(x)
    return m


def random_maximal_isotropic(field: Field, rng, half: str = None) -> Subspace:
    """Random maximal isotropic via the alternating-graph cells over F,
    composed with coordinate swaps e_k <-> f_k to reach both families."""
    m = _random_alternating(field, rng)
    rows = []
    for i in range(5):
        r = [field.zero] * 10
        r[i] = field.one
        for j in range(5):
            r[5 + j] = m[i][j]
        rows.append(r)
    swaps = [k for k in range(5) if rng.random() < 0.4]
    if half is not None:
        # the plain graph is in the minus family; each swap flips it
        want_odd = half == PLUS
        if (len(swaps) % 2 == 1) != want_odd:
            k = rng.randrange(5)
            if k in swaps:
                swaps.remove(k)
            else:
                swaps.append(k)
    for r in rows:
        for k in swaps:
            r[k], r[5 + k] = r[5 + k], r[k]
    w = Subspace(field, DIM_V, rows)
    check_invariant(w.dim == 5 and is_isotropic(field, w), "not a maximal isotropic")
    return w


def random_isotropic(field: Field, rng, dim: int) -> Subspace:
    """Random isotropic subspace of the given dimension (1..5)."""
    if not 1 <= dim <= 5:
        raise ValueError("dimension must be 1..5")
    while True:
        w = random_maximal_isotropic(field, rng)
        rows = [
            tuple(field.sample(rng) for _ in range(5)) for _ in range(dim)
        ]
        sub = Subspace(
            field,
            DIM_V,
            [mat_vec(field, transpose(w.basis), r) for r in rows],
        )
        if sub.dim == dim:
            return sub


def random_pure_witness(field: Field, rng, half: str) -> PureSpinorWitness:
    return witness_from_isotropic5(field, random_maximal_isotropic(field, rng, half))


def random_spinor(field: Field, rng, half: str):
    return tuple(field.sample(rng) for _ in range(DIM_S))
