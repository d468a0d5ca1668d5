"""Exact scalar arithmetic: prime fields F_p (p < 2^16), extensions F_{p^m}, rationals.

Field objects bundle the arithmetic callables used by the generic linear
algebra in :mod:`spinor10.linalg`.  Elements are plain hashable values:
ints in [0, p) for F_p, ints encoding base-p digit vectors for F_{p^m},
and :class:`fractions.Fraction` for the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

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


def _is_irreducible(modulus, p):
    m = len(modulus) - 1
    x = [0, 1] + [0] * (m - 2) if m >= 2 else [0]
    # x^(p^m) == x mod f, and x^(p^(m/l)) - x invertible for prime l | m
    xq = _poly_powmod(x, p ** m, modulus, p)
    if xq != x:
        return False
    for ell in range(2, m + 1):
        if m % ell == 0 and is_prime(ell):
            xe = _poly_powmod(x, p ** (m // ell), modulus, p)
            diff = [(a - b) % p for a, b in zip(xe, x)]
            if not any(diff):
                return False
            # gcd(diff, modulus) must be 1; since modulus has no factor of
            # degree dividing m/ell iff x^(p^(m/ell)) - x is coprime to it
            if _poly_gcd_is_nontrivial(diff, modulus, p):
                return False
    return True


def _poly_gcd_is_nontrivial(a, b, p):
    a = list(a)
    b = list(b)

    def deg(c):
        for i in range(len(c) - 1, -1, -1):
            if c[i]:
                return i
        return -1

    da, db = deg(a), deg(b)
    while db >= 0:
        if da < db:
            a, b, da, db = b, a, db, da
            continue
        lead = a[da] * pow(b[db], p - 2, p) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - lead * b[i]) % p
        da = deg(a)
        a, b, da, db = b, a, db, da
    return deg(a) > 0


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


class ExtField(Field):
    """F_{p^m} as F_p[x]/(f), elements encoded as base-p integers.

    Multiplication goes through exp/log tables over a fixed generator, so
    construction is limited to p^m <= 2^16.
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
        self.modulus = self._find_irreducible(p, m)
        self._build_tables()

    @staticmethod
    def _find_irreducible(p, m):
        if m == 1:
            return [0, 1]
        # deterministic scan over monic polynomials x^m + ... (low-first coeffs)
        for code in range(p ** m):
            coeffs = []
            c = code
            for _ in range(m):
                coeffs.append(c % p)
                c //= p
            modulus = coeffs + [1]
            if _is_irreducible(modulus, p):
                return modulus
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _decode(self, a):
        digits = []
        for _ in range(self.m):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _build_tables(self):
        p, q, modulus = self.p, self.q, self.modulus
        # a multiplicative generator (for m > 1 no constant is one)
        factors = _factor(q - 1)
        gen = next(
            cd
            for cd in map(self._decode, range(1, q))
            if all(
                self._encode(_poly_powmod(cd, (q - 1) // ell, modulus, p)) != 1
                for ell in factors
            )
        )
        exp = [0] * (q - 1)
        log = [0] * q
        cur = [1] + [0] * (self.m - 1)
        for i in range(q - 1):
            code = self._encode(cur)
            exp[i] = code
            log[code] = i
            cur = _poly_mulmod(cur, gen, modulus, p)
        self.exp_table = exp
        self.log_table = log

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x - y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        if self.p == 2:
            return a
        return self._encode([(-x) % self.p for x in self._decode(a)])

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
