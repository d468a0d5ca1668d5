"""Exact scalar arithmetic: prime fields F_p (p < 2^16), extensions F_{p^m}, rationals.

Field objects bundle the arithmetic callables used by the generic linear
algebra in :mod:`spinor10.linalg`.  Elements are plain hashable values:
ints in [0, p) for F_p, ints encoding base-p digit vectors for F_{p^m},
and :class:`fractions.Fraction` for the rationals.

F_{p^m} is F_p[x]/(f) for a primitive f, so x generates its multiplicative
group: products are lookups in the exp/log tables of the powers of x, and
for odd p so are sums, through Zech logarithms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_PRIME = 1 << 16
MAX_EXT_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface: char, zero, one, arithmetic, sampling."""

    char: int

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def scale(self, s, xs):
        """[s x for x in xs]: with sub_scaled, the row operations of rref."""
        return [self.mul(s, x) for x in xs]

    def sub_scaled(self, xs, f, ys):
        """[x - f y for x, y in zip(xs, ys)]."""
        return [self.sub(x, self.mul(f, y)) for x, y in zip(xs, ys)]

    def from_int(self, n: int):
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError


class PrimeField(Field):
    """F_p with elements the ints 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the 2^16 bound")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def scale(self, s, xs):
        p = self.p
        return [s * x % p for x in xs]

    def sub_scaled(self, xs, f, ys):
        p = self.p
        return [(x - f * y) % p for x, y in zip(xs, ys)]

    def from_int(self, n: int):
        return n % self.p

    def sample(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class RationalField(Field):
    def __init__(self):
        self.char = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def scale(self, s, xs):
        return [s * x for x in xs]

    def sub_scaled(self, xs, f, ys):
        return [x - f * y for x, y in zip(xs, ys)]

    def from_int(self, n: int):
        return Fraction(n)

    def sample(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def _poly_mulmod(a, b, modulus, p):
    # dense coefficient lists, low degree first
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    m = len(modulus) - 1
    for i in range(len(res) - 1, m - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(m):
                res[i - m + j] = (res[i - m + j] - c * modulus[j]) % p
    res = res[:m]
    while len(res) < m:
        res.append(0)
    return res


def _poly_powmod(a, e, modulus, p):
    m = len(modulus) - 1
    res = [1] + [0] * (m - 1)
    base = list(a)
    while e:
        if e & 1:
            res = _poly_mulmod(res, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return res


def _factor(n: int):
    fs = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def _find_primitive(p, m):
    """The first monic f of degree m in code order (its low coefficients are
    the base-p digits of the code) in which x has multiplicative order q - 1.
    Such an f is irreducible: F_p[x]/(f) has q - 1 units only when it is a
    field.  The norm of a primitive x, (-1)^m f(0), is a primitive root of
    F_p, so codes where it is not (f(0) = 0 among them) are skipped before
    any power of x is taken."""
    q = p**m
    x = [0, 1] + [0] * (m - 2)  # for m = 1 the first product reduces it
    one = [1] + [0] * (m - 1)
    factors, norm_factors = _factor(q - 1), _factor(p - 1)
    for code in range(q):
        norm = (-1) ** m * code % p
        if not norm or any(pow(norm, (p - 1) // ell, p) == 1 for ell in norm_factors):
            continue
        modulus = [code // p**t % p for t in range(m)] + [1]
        if _poly_powmod(x, q - 1, modulus, p) == one and all(
            _poly_powmod(x, (q - 1) // ell, modulus, p) != one for ell in factors
        ):
            return modulus
    raise RuntimeError("no primitive polynomial found")  # pragma: no cover


class ExtField(Field):
    """F_{p^m} as F_p[x]/(f) for a primitive f, elements encoded as base-p
    integers (the digits are the coefficients, low degree first).

    x generates the multiplicative group, so multiplication goes through
    exp/log tables of its powers.  For odd p so does addition, through the
    Zech logarithms zech[i] = log(1 + x^i) (-1 where 1 + x^i = 0):
    x^i + x^j = x^(i + zech[j - i]), exponents mod q - 1; characteristic 2
    adds by XOR.  Construction is limited to p^m <= 2^16.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** m
        if q > MAX_EXT_ORDER:
            raise ValueError(f"field order {q} exceeds the 2^16 bound")
        self.p = p
        self.m = m
        self.q = q
        self.char = p
        self.zero = 0
        self.one = 1
        self.modulus = _find_primitive(p, m)
        self._build_tables()

    def _build_tables(self):
        p, q, m = self.p, self.q, self.m
        # the digit vectors of x^0, x^1, ... in blocks: doubled to at most
        # 1024 rows, then each block is the last times x^len(block), all
        # through the companion matrix of f (row t: x^(t+1))
        step = np.eye(m, k=1, dtype=np.int64)
        step[-1] = np.negative(self.modulus[:m]) % p
        block = np.eye(1, m, dtype=np.int64)
        while len(block) < min(q - 1, 1024):
            block = np.concatenate((block, block @ step % p))
            step = step @ step % p
        weights = p ** np.arange(m)
        exp = np.empty(q - 1, dtype=np.int64)
        for lo in range(0, q - 1, len(block)):
            exp[lo : lo + len(block)] = (block @ weights)[: q - 1 - lo]
            block = block @ step % p
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # 1 + a on codes adds 1 to the lowest digit
        one_plus = exp - exp % p + (exp + 1) % p
        zech = np.where(one_plus, log[one_plus], -1)
        # numpy copies for the scan's tables, lists for scalar arithmetic
        self.exp_array, self.log_array, self.zech_array = exp, log, zech
        self.exp_table = exp.tolist()
        self.log_table = log.tolist()
        self.zech_table = zech.tolist()

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self.log_table[a]
        z = self.zech_table[self.log_table[b] - la]  # a negative index wraps
        return 0 if z < 0 else self.exp_table[(la + z) % (self.q - 1)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self.mul(a, self.p - 1)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def from_int(self, n: int):
        return n % self.p  # prime subfield embedding

    def sample(self, rng):
        return rng.randrange(self.q)

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, ExtField) and (other.p, other.m) == (self.p, self.m)

    def __hash__(self):
        return hash(("Fq", self.p, self.m))

    def __repr__(self):
        return f"F_{self.p}^{self.m}"


@lru_cache(maxsize=None)
def get_ext_field(p: int, m: int) -> "ExtField":
    return ExtField(p, m)


def field_spec(spec: str) -> Field:
    """Parse a CLI field spec: a prime written in decimal, or "Q"."""
    if spec in ("Q", "QQ", "rationals"):
        return QQ
    try:
        p = int(spec)
    except ValueError:
        raise ValueError(f"bad field spec {spec!r}") from None
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    return PrimeField(p)
