"""Exact dense linear algebra over the fields of :mod:`spinor10.fields`.

Matrices are tuples of row tuples.  Subspaces canonicalize their basis to
reduced row-echelon form on construction, so equality of subspaces is
equality of bases.  `rref` has one body for every field, through its row
operations; `rref_mod_p` reduces int64 arrays (Hilbert function, scan tail).
"""

from __future__ import annotations

import numpy as np

from .fields import Field


class InvariantError(RuntimeError):
    """A mathematical invariant of a construction failed: a bug, not bad input."""


def check_invariant(holds: bool, message: str):
    """Raise InvariantError(message) unless `holds`; unlike assert, never stripped."""
    if not holds:
        raise InvariantError(message)


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity_matrix(field: Field, n: int):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def vec_dot(field: Field, u, v):
    acc = field.zero
    for x, y in zip(u, v):
        if x != field.zero and y != field.zero:
            acc = field.add(acc, field.mul(x, y))
    return acc


def mat_vec(field: Field, m, v):
    return tuple(vec_dot(field, row, v) for row in m)


def rref(field: Field, m):
    """Reduced row-echelon form.  Returns (matrix, rank, pivot columns).

    Gauss-Jordan one row at a time, by the field's `scale` and `sub_scaled`:
    each row is reduced by the pivot rows kept so far, and a nonzero rest is
    normalized, cleared from them and kept, until the rank is the number of
    columns.  The RREF is unique: the kept rows by pivot, then zero rows.
    """
    ncols = len(m[0]) if m else 0
    zero = field.zero
    kept = {}  # pivot column -> its row
    for row in m:
        for c, prow in kept.items():
            if row[c] != zero:
                row = field.sub_scaled(row, row[c], prow)
        lead = next((c for c, x in enumerate(row) if x != zero), None)
        if lead is None:
            continue
        row = field.scale(field.inv(row[lead]), row)
        for c, prow in kept.items():
            if prow[lead] != zero:
                kept[c] = field.sub_scaled(prow, prow[lead], row)
        kept[lead] = row
        if len(kept) == ncols:
            break
    pivots = tuple(sorted(kept))
    rows = [tuple(kept[c]) for c in pivots] + [(zero,) * ncols] * (len(m) - len(kept))
    return tuple(rows), len(pivots), pivots


def rref_mod_p(a, p):
    """Reduced row-echelon form of an integer matrix mod p, as int64: (its
    nonzero rows, pivot columns).  Eliminates in place on a reduced copy,
    so entries stay below p^2; any nonzero pivot gives the same (unique)
    result, and the largest is the cheapest to find."""
    a = np.asarray(a, dtype=np.int64) % p
    pivots = []
    for j in range(a.shape[1]):
        r = len(pivots)
        if r == len(a):
            break
        i = r + int(a[r:, j].argmax())
        if not a[i, j]:
            continue
        if i != r:
            a[[r, i]] = a[[i, r]]
        row = a[r] * pow(int(a[r, j]), -1, p) % p
        a -= np.outer(a[:, j], row)
        a %= p
        a[r] = row
        pivots.append(j)
    return a[: len(pivots)], pivots


def kernel_basis(field: Field, m):
    """A basis of the right null space {v : m @ v = 0}, one vector per free
    column of m's RREF."""
    ncols = len(m[0]) if m else 0
    red, rank, pivots = rref(field, m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][fc])
        basis.append(tuple(v))
    return tuple(basis)


class Subspace:
    """Subspace of F^n stored as an RREF row basis.  Immutable."""

    __slots__ = ("field", "ambient_dim", "basis", "dim", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows=()):
        rows = [r for r in rows if any(x != field.zero for x in r)]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length does not match ambient dimension")
        red, self.dim, self.pivots = rref(field, rows) if rows else ((), 0, ())
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = red[: self.dim]

    @classmethod
    def full(cls, field, n):
        return cls(field, n, identity_matrix(field, n))

    def contains(self, v) -> bool:
        field = self.field
        for row, p in zip(self.basis, self.pivots):
            if v[p] != field.zero:
                v = field.sub_scaled(v, v[p], row)
        return all(x == field.zero for x in v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient_dim)
        # rows of [A; B]^T kernel: coefficients (x, y) with x A = y B
        field = self.field
        stacked = tuple(
            a + tuple(field.neg(x) for x in b)
            for a, b in zip(
                transpose(self.basis), transpose(other.basis)
            )
        )
        coeffs = kernel_basis(field, stacked)
        rows = []
        for c in coeffs:
            x = c[: self.dim]
            rows.append(mat_vec(field, transpose(self.basis), x))
        return Subspace(field, self.ambient_dim, rows)

    def _check(self, other):
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise ValueError("ambient mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class SymBilinearForm:
    """Symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("field", "ambient_dim", "gram")

    def __init__(self, field: Field, gram):
        gram = mat(gram)
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        if gram != transpose(gram):
            raise ValueError("gram matrix must be symmetric")
        self.field = field
        self.ambient_dim = n
        self.gram = gram

    def apply(self, u, v):
        return vec_dot(self.field, u, mat_vec(self.field, self.gram, v))

    def rank(self) -> int:
        _, r, _ = rref(self.field, self.gram)
        return r

    def corank(self) -> int:
        return self.ambient_dim - self.rank()

    def __repr__(self):
        return f"SymBilinearForm(dim {self.ambient_dim})"
