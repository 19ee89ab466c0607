import itertools
import math
import random
from fractions import Fraction

from groupeq.rings import (
    LaurentPoly,
    RElem,
    ZkFrac,
    monic_enum,
    poly_add,
    poly_bezout,
    mult_order,
    poly_make,
    poly_mul,
    poly_reduce,
    poly_trim,
    prime_powers_coprime,
    t_period,
    zk_normalize,
)


def test_zk_normalize_cancels_full_powers():
    assert zk_normalize(4, 2, 2) == (1, 0)


def test_zk_normalize_cancels_partial():
    assert zk_normalize(6, 1, 2) == (3, 0)


def test_zk_normalize_leaves_canonical_alone():
    assert zk_normalize(3, 1, 2) == (3, 1)


def test_zk_normalize_idempotent_and_value_preserving():
    rng = random.Random(101)
    for _ in range(500):
        k = rng.choice([2, 3, 5, 10])
        z = rng.randint(-200, 200)
        i = rng.randint(0, 6)
        n, d = zk_normalize(z, i, k)
        assert zk_normalize(n, d, k) == (n, d)
        assert Fraction(n, k**d) == Fraction(z, k**i)
        if d > 0:
            assert n % k != 0


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 5) == 4
    assert mult_order(3, 2) == 1


def test_mult_order_divides_unit_group_order():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randint(2, 120)
        k = rng.randint(2, 50)
        if math.gcd(k, q) != 1:
            continue
        p = mult_order(k, q)
        assert pow(k, p, q) == 1
        assert all(pow(k, j, q) != 1 for j in range(1, p))
        units = sum(1 for x in range(1, q) if math.gcd(x, q) == 1)
        assert units % p == 0
        assert pow(k, units, q) == 1


def test_t_period_examples():
    assert t_period(poly_make([1, 1, 1], 2), 2) == 3
    assert t_period(poly_make([4, 1], 5), 5) == 1  # t - 1 over Z_5
    assert t_period(poly_make([1, 1], 3), 3) == 2  # t + 1 over Z_3


def test_t_period_is_minimal():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.choice([2, 3, 5, 6])
        d = rng.randint(1, 3)
        body = [rng.randrange(n) for _ in range(d - 1)]
        const = rng.choice([c for c in range(1, n) if math.gcd(c, n) == 1])
        h = poly_make([const] + body + [1], n)
        p = t_period(h, n)
        tpoly = poly_make([0, 1], n)
        acc = poly_make([1], n)
        seen_one_early = False
        for j in range(1, p + 1):
            acc = poly_reduce(poly_mul(acc, tpoly, n), h, n)
            if j < p and acc == poly_make([1], n):
                seen_one_early = True
        assert acc == poly_make([1], n)
        assert not seen_one_early


def test_monic_enum_small_cases():
    assert list(monic_enum(2, 1)) == [(0, 1), (1, 1)]
    assert len(list(monic_enum(2, 2))) == 4
    assert list(monic_enum(3, 1)) == [(0, 1), (1, 1), (2, 1)]
    for h in list(monic_enum(2, 2)):
        assert h[-1] == 1 and len(h) == 3


def test_poly_reduce_examples():
    # t^3 mod t^2+t+1 over Z_2 is 1
    assert poly_reduce(poly_make([0, 0, 0, 1], 2), poly_make([1, 1, 1], 2), 2) == (1,)
    h = poly_make([1, 2, 1], 3)
    assert poly_reduce(h, h, 3) == ()
    assert poly_reduce(poly_make([1, 1], 3), poly_make([0, 0, 1], 3), 3) == (1, 1)


def test_poly_reduce_is_multiplicative():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice([2, 3, 4, 5, 6])
        h = poly_make([rng.randrange(n) for _ in range(rng.randint(1, 3))] + [1], n)
        f = poly_make([rng.randrange(n) for _ in range(rng.randint(0, 5))], n)
        g = poly_make([rng.randrange(n) for _ in range(rng.randint(0, 5))], n)
        direct = poly_reduce(poly_mul(f, g, n), h, n)
        stepped = poly_reduce(
            poly_mul(poly_reduce(f, h, n), poly_reduce(g, h, n), n), h, n
        )
        assert direct == stepped


def _rand_mod_poly(rng, n):
    return poly_make([rng.randrange(n) for _ in range(rng.randint(0, 4))], n)


def test_mod_poly_ring_axioms():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.choice([2, 3, 5, 6, 9])
        f, g, h = (_rand_mod_poly(rng, n) for _ in range(3))
        assert poly_mul(poly_mul(f, g, n), h, n) == poly_mul(f, poly_mul(g, h, n), n)
        assert poly_mul(f, poly_add(g, h, n), n) == poly_add(
            poly_mul(f, g, n), poly_mul(f, h, n), n
        )
        assert poly_add(f, poly_trim([(-c) % n for c in f]), n) == ()


def _rand_relem(rng, m, orders):
    return RElem.make(
        [rng.randint(-9, 9) for _ in range(m)],
        [rng.randrange(o) for o in orders],
        orders,
    )


def _rand_laurent(rng, m, orders):
    items = []
    for _ in range(rng.randint(0, 4)):
        items.append((rng.randint(-4, 4), _rand_relem(rng, m, orders)))
    return LaurentPoly.make(items, m, orders)


def test_laurent_ring_axioms():
    rng = random.Random(53)
    for _ in range(250):
        m = rng.choice([0, 1, 2])
        orders = [(), (2,), (3,), (2, 4)][rng.randint(0, 3)]
        if m == 0 and not orders:
            orders = (2,)
        f, g, h = (_rand_laurent(rng, m, orders) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f + (-f) == LaurentPoly.zero(m, orders)
        # shift distributes over addition
        s = rng.randint(-3, 3)
        assert (f + g).shift(s) == f.shift(s) + g.shift(s)


def test_poly_bezout_against_brute_force():
    """Over Z_2 and Z_3 with a, b, c of degree at most 2, ``poly_bezout``
    returns a pair exactly when a*u + b*v == c has one of degree at most 2
    (a solution, if any, has one there), and the pair solves it."""
    rng = random.Random(16)
    tally = {"solved": 0, "none": 0}
    for p in (2, 3):
        polys = sorted({poly_make(cs, p) for cs in itertools.product(range(p), repeat=3)})
        for _ in range(150):
            a, b, c = (rng.choice(polys) for _ in range(3))
            reachable = {
                poly_add(poly_mul(a, u, p), poly_mul(b, v, p), p) for u in polys for v in polys
            }
            got = poly_bezout(a, b, c, p)
            assert (got is not None) == (c in reachable), (p, a, b, c, got)
            if got is not None:
                u, v = got
                assert poly_add(poly_mul(a, u, p), poly_mul(b, v, p), p) == c
            tally["none" if got is None else "solved"] += 1
    assert min(tally.values()) >= 50, tally


def test_zkfrac_arithmetic_matches_fractions():
    rng = random.Random(67)
    for _ in range(400):
        k = rng.choice([2, 3, 5])
        a = ZkFrac.make(rng.randint(-60, 60), rng.randint(0, 4), k)
        b = ZkFrac.make(rng.randint(-60, 60), rng.randint(0, 4), k)
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (-a).as_fraction() == -a.as_fraction()
        r = rng.randint(-4, 4)
        assert a.scale_kpow(r).as_fraction() == a.as_fraction() * Fraction(k) ** r


def test_zkfrac_from_fraction_round_trip():
    rng = random.Random(71)
    for _ in range(300):
        k = rng.choice([2, 3, 6])
        a = ZkFrac.make(rng.randint(-50, 50), rng.randint(0, 4), k)
        back = ZkFrac.from_fraction(a.as_fraction(), k)
        assert back == a
    assert ZkFrac.from_fraction(Fraction(1, 3), 2) is None
    assert ZkFrac.from_fraction(Fraction(5, 6), 6) == ZkFrac.make(5, 1, 6)


def test_prime_powers_coprime_ascending_and_coprime():
    seq = []
    gen = prime_powers_coprime(2)
    for _ in range(12):
        seq.append(next(gen))
    assert seq == sorted(seq)
    assert all(math.gcd(q, 2) == 1 for q in seq)
    assert 3 in seq and 9 in seq and 5 in seq
    assert all(q % 2 == 1 for q in seq)
