"""Exact base rings used throughout the package.

Three families of coefficients appear in the solver:

* ``ZkFrac`` -- elements of Z[1/k], written z * k^-i with a canonical (z, i);
* ``RElem`` -- elements of a finitely generated abelian group
  Z^m + Z_{n_1} + ... + Z_{n_s}, written additively;
* sparse polynomials: ``LaurentPoly`` over ``RElem`` coefficients, and plain
  tuple-based polynomials over Z_n used by the modular machinery.

Everything here is exact, unbounded-integer arithmetic.  No floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple


# ---------------------------------------------------------------------------
# Z[1/k]


def zk_normalize(num: int, depth: int, k: int) -> tuple[int, int]:
    """Canonical form of num * k^-depth: either depth == 0 or k does not divide num."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if num == 0:
        return (0, 0)
    if k == 1:
        return (num, 0)
    while depth > 0 and num % k == 0:
        num //= k
        depth -= 1
    if depth < 0:
        num *= k ** (-depth)
        depth = 0
    return (num, depth)


class ZkFrac(NamedTuple):
    """An element z * k^-i of Z[1/k], kept in canonical form."""

    num: int
    depth: int
    k: int

    @staticmethod
    def make(num: int, depth: int, k: int) -> "ZkFrac":
        n, d = zk_normalize(num, depth, k)
        return ZkFrac(n, d, k)

    @staticmethod
    def zero(k: int) -> "ZkFrac":
        return ZkFrac(0, 0, k)

    @staticmethod
    def integer(n: int, k: int) -> "ZkFrac":
        return ZkFrac.make(n, 0, k)

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "ZkFrac") -> "ZkFrac":
        if self.k != other.k:
            raise ValueError("mixed k")
        d = max(self.depth, other.depth)
        n = self.num * self.k ** (d - self.depth) + other.num * self.k ** (d - other.depth)
        return ZkFrac.make(n, d, self.k)

    def __neg__(self) -> "ZkFrac":
        return ZkFrac(-self.num, self.depth, self.k)

    def __sub__(self, other: "ZkFrac") -> "ZkFrac":
        return self + (-other)

    def __mul__(self, other: "ZkFrac") -> "ZkFrac":
        if self.k != other.k:
            raise ValueError("mixed k")
        return ZkFrac.make(self.num * other.num, self.depth + other.depth, self.k)

    def scale_kpow(self, e: int) -> "ZkFrac":
        """Multiply by k^e (e may be negative)."""
        return ZkFrac.make(self.num, self.depth - e, self.k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.k ** self.depth)

    @staticmethod
    def from_fraction(q: Fraction, k: int) -> "ZkFrac | None":
        """Return the ZkFrac equal to q, or None if q is not in Z[1/k]."""
        den = q.denominator
        depth = 0
        if k > 1:
            while den > 1:
                g = math.gcd(den, k)
                if g == 1:
                    return None
                den //= g
                depth += 1
        elif den > 1:
            return None
        # q = num/denominator with denominator | k^depth
        num = q.numerator * (k ** depth // q.denominator)
        return ZkFrac.make(num, depth, k)

    def render(self) -> str:
        if self.depth == 0:
            return str(self.num)
        return f"{self.num}*{self.k}^-{self.depth}"


# ---------------------------------------------------------------------------
# Finitely generated abelian coefficient group R = Z^m + Z_{n_1} + ... + Z_{n_s}


class RElem(NamedTuple):
    """One coefficient of a wreath-product lamp configuration.

    free holds the Z^m part, torsion the Z_{n_j} parts reduced mod orders.
    """

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    orders: tuple[int, ...]

    @staticmethod
    def make(free, torsion, orders) -> "RElem":
        free = tuple(int(v) for v in free)
        torsion = tuple(int(v) % n for v, n in zip(torsion, orders, strict=True))
        return RElem(free, torsion, tuple(orders))

    @staticmethod
    def zero(m: int, orders: tuple[int, ...]) -> "RElem":
        return RElem((0,) * m, (0,) * len(orders), tuple(orders))

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def __add__(self, other: "RElem") -> "RElem":
        if self.orders != other.orders:
            raise ValueError("mixed coefficient groups")
        return RElem(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple((a + b) % n for a, b, n in zip(self.torsion, other.torsion, self.orders)),
            self.orders,
        )

    def __neg__(self) -> "RElem":
        return RElem(
            tuple(-a for a in self.free),
            tuple((-a) % n for a, n in zip(self.torsion, self.orders)),
            self.orders,
        )

    def __sub__(self, other: "RElem") -> "RElem":
        return self + (-other)

    def component(self, idx: int) -> int:
        """Integer value of one component (free first, then torsion)."""
        m = len(self.free)
        if idx < m:
            return self.free[idx]
        return self.torsion[idx - m]

    def render(self) -> str:
        vals = list(self.free) + list(self.torsion)
        if len(vals) == 1:
            return str(vals[0])
        return "(" + ",".join(str(v) for v in vals) + ")"


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials over RElem


class LaurentPoly(NamedTuple):
    """Finite map degree -> nonzero RElem, as a sorted tuple of (degree, coeff)."""

    coeffs: tuple[tuple[int, RElem], ...]
    m: int
    orders: tuple[int, ...]

    @staticmethod
    def make(items, m: int, orders) -> "LaurentPoly":
        acc: dict[int, RElem] = {}
        zero = RElem.zero(m, tuple(orders))
        for deg, c in items:
            acc[deg] = acc.get(deg, zero) + c
        pruned = tuple(sorted((d, c) for d, c in acc.items() if not c.is_zero()))
        return LaurentPoly(pruned, m, tuple(orders))

    @staticmethod
    def zero(m: int, orders) -> "LaurentPoly":
        return LaurentPoly((), m, tuple(orders))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.make(self.coeffs + other.coeffs, self.m, self.orders)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((d, -c) for d, c in self.coeffs), self.m, self.orders)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        return LaurentPoly(tuple((d + e, c) for d, c in self.coeffs), self.m, self.orders)

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.coeffs)

    def component_dict(self, idx: int) -> dict[int, int]:
        """Project onto one coefficient component: degree -> integer value."""
        out = {}
        for d, c in self.coeffs:
            v = c.component(idx)
            if v:
                out[d] = v
        return out

    def render(self) -> str:
        if not self.coeffs:
            return "{}"
        inner = ", ".join(f"{d}:{c.render()}" for d, c in self.coeffs)
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Plain polynomials over Z_n: tuples of coefficients, low degree first,
# no trailing zeros.  These carry the modular obstruction search.


def poly_trim(cs: tuple[int, ...]) -> tuple[int, ...]:
    i = len(cs)
    while i > 0 and cs[i - 1] == 0:
        i -= 1
    return cs[:i]


def poly_make(cs, n: int) -> tuple[int, ...]:
    return poly_trim(tuple(c % n for c in cs))


def poly_add(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % n
    return poly_trim(tuple(out))


def poly_scale(a: tuple[int, ...], s: int, n: int) -> tuple[int, ...]:
    return poly_trim(tuple((c * s) % n for c in a))


def poly_mul(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % n
    return poly_trim(tuple(out))


def poly_reduce(f: tuple[int, ...], h: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Remainder of f modulo the monic polynomial h over Z_n."""
    if not h or h[-1] % n != 1:
        raise ValueError("modulus must be monic")
    d = len(h) - 1
    if d == 0:
        return ()
    out = [c % n for c in f]
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * h[j]) % n
    return poly_trim(tuple(out))


def poly_divmod(f: tuple[int, ...], g: tuple[int, ...], p: int):
    """Quotient and remainder of f by g != 0 over Z_p, p prime."""
    inv, rem = pow(g[-1], -1, p), [c % p for c in f]
    quot = [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = c = rem[i + len(g) - 1] * inv % p
        for j, cg in enumerate(g):
            rem[i + j] = (rem[i + j] - c * cg) % p
    return poly_trim(tuple(quot)), poly_trim(tuple(rem))


def poly_bezout(a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...], p: int):
    """Polynomials (u, v) with a*u + b*v == c over Z_p, p prime, or None when
    gcd(a, b) does not divide c: the extended Euclidean algorithm."""
    # r == a*s + b*w for (r, s, w) and for (r1, s1, w1) throughout
    (r, s, w), (r1, s1, w1) = (a, (1,), ()), (b, (), (1,))
    while r1:
        q, rem = poly_divmod(r, r1, p)
        q = poly_scale(q, -1, p)
        (r, s, w), (r1, s1, w1) = (r1, s1, w1), (
            rem, poly_add(s, poly_mul(q, s1, p), p), poly_add(w, poly_mul(q, w1, p), p)
        )
    if not r:
        return None if c else ((), ())
    q, rem = poly_divmod(c, r, p)
    return None if rem else (poly_mul(s, q, p), poly_mul(w, q, p))


def poly_pow_t(e: int, h: tuple[int, ...], n: int) -> tuple[int, ...]:
    """t^e reduced mod (h, n) for e >= 0, by square and multiply."""
    result = poly_reduce((1,), h, n)
    base = poly_reduce((0, 1), h, n)
    while e:
        if e & 1:
            result = poly_reduce(poly_mul(result, base, n), h, n)
        base = poly_reduce(poly_mul(base, base, n), h, n)
        e >>= 1
    return result


def mult_order(k: int, q: int) -> int:
    """Least P >= 1 with k^P = 1 mod q.  Requires gcd(k, q) == 1."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(k, q) != 1:
        raise ValueError("k must be invertible mod q")
    v = k % q
    p = 1
    while v != 1:
        v = (v * k) % q
        p += 1
    return p


def t_period(h: tuple[int, ...], n: int) -> int:
    """Least P >= 1 with t^P = 1 mod (h, n).

    Requires h monic with unit constant term, which makes t invertible in
    Z_n[t]/(h); the unit group is finite so the order exists.
    """
    if not h or h[-1] % n != 1:
        raise ValueError("modulus must be monic")
    if math.gcd(h[0] % n, n) != 1:
        raise ValueError("constant term must be a unit mod n")
    one = poly_reduce((1,), h, n)
    t = poly_reduce((0, 1), h, n)
    v = t
    p = 1
    while v != one:
        v = poly_reduce(poly_mul(v, t, n), h, n)
        p += 1
    return p


def monic_enum(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All monic degree-d polynomials over Z_n.

    Deterministic order: the lower coefficients run through base-n counter
    values with the constant term as the least significant digit.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    for idx in range(n ** d):
        cs = []
        v = idx
        for _ in range(d):
            cs.append(v % n)
            v //= n
        yield tuple(cs) + (1,)


def prime_powers_coprime(k: int) -> Iterator[int]:
    """Prime powers q = p^m with p prime not dividing k, in increasing q order."""
    def is_prime_power(q: int) -> int | None:
        for p in range(2, q + 1):
            if p * p > q and q > 1:
                return q  # q itself prime
            if q % p == 0:
                v = q
                while v % p == 0:
                    v //= p
                return p if v == 1 else None
        return None

    q = 2
    while True:
        p = is_prime_power(q)
        if p is not None and k % p != 0:
            yield q
        q += 1


def is_prime(n) -> bool:
    """Trial division; False for anything but an int >= 2."""
    return isinstance(n, int) and n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def primes() -> Iterator[int]:
    return filter(is_prime, itertools.count(2))
