"""Exact dense linear algebra over the fields of :mod:`spinor10.fields`.

Matrices are tuples of row tuples.  Subspaces canonicalize their basis to
reduced row-echelon form on construction, so equality of subspaces is
equality of bases.
"""

from __future__ import annotations

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


def mat_vec(field: Field, m, v):
    out = []
    for row in m:
        acc = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return tuple(out)


def vec_dot(field: Field, u, v):
    acc = field.zero
    for x, y in zip(u, v):
        if x != field.zero and y != field.zero:
            acc = field.add(acc, field.mul(x, y))
    return acc


def rref(field: Field, m):
    """Reduced row-echelon form.  Returns (matrix, rank, pivot columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field.inv(rows[r][c])
        rows[r] = [field.mul(scale, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat(rows), r, tuple(pivots)


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
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
        if rows:
            red, rank, pivots = rref(field, mat(rows))
            basis = red[:rank]
        else:
            basis, rank, pivots = (), 0, ()
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.dim = rank
        self.pivots = pivots

    @classmethod
    def full(cls, field, n):
        return cls(field, n, identity_matrix(field, n))

    def contains(self, v) -> bool:
        field = self.field
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c != field.zero:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
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
