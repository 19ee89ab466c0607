import pathlib
import random
import sys
import time
from fractions import Fraction

from groupeq.groups import (
    BsElement,
    GroupSpec,
    WreathElement,
    eval_word,
    generator,
    identity,
    inv,
    mul,
    parse_element,
    power,
    render_element,
    verify_witness,
)
from groupeq.frontend import EquationSystem, parse_system
from groupeq.rings import LaurentPoly, RElem, ZkFrac

BS2 = GroupSpec.bs(2)
BS3 = GroupSpec.bs(3)
LAMP = GroupSpec.wreath(0, (2,))
ZWR = GroupSpec.wreath(1)
MIXED = GroupSpec.wreath(1, (2,))

FAMILIES = [BS2, BS3, LAMP, ZWR, MIXED]
# every wreath family of the benchmark, and one with two torsion orders
WREATHS = [GroupSpec.wreath(m, tors) for m, tors in
           [(0, (2,)), (0, (3,)), (1, ()), (1, (2,)), (2, ()), (1, (4, 6))]]

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (independent wreath arithmetic, never modified)


def _rand_bs(rng, spec):
    u = ZkFrac.make(rng.randint(-20, 20), rng.randint(0, 3), spec.k)
    return BsElement(u, rng.randint(-4, 4))


def _rand_wreath(rng, spec):
    m, orders = spec.free_rank, spec.torsion
    items = []
    for _ in range(rng.randint(0, 3)):
        free = [rng.randint(-5, 5) for _ in range(m)]
        tors = [rng.randrange(o) for o in orders]
        items.append((rng.randint(-3, 3), RElem.make(free, tors, orders)))
    return WreathElement(LaurentPoly.make(items, m, orders), rng.randint(-3, 3))


def rand_element(rng, spec):
    return _rand_bs(rng, spec) if spec.kind == "bs" else _rand_wreath(rng, spec)


def test_mul_bs_worked_example():
    g = BsElement(ZkFrac.integer(1, 2), 1)
    h = BsElement(ZkFrac.integer(1, 2), -1)
    prod = mul(BS2, g, h)
    assert prod == BsElement(ZkFrac.make(3, 1, 2), 0)


def test_mul_identity_is_neutral():
    rng = random.Random(5)
    for spec in FAMILIES:
        e = identity(spec)
        for _ in range(50):
            g = rand_element(rng, spec)
            assert mul(spec, g, e) == g
            assert mul(spec, e, g) == g


def test_mul_lamp_squares_cancel():
    a = generator(LAMP, "a")
    assert mul(LAMP, a, a) == identity(LAMP)


def test_inv_bs_formula():
    rng = random.Random(11)
    for spec in (BS2, BS3):
        for _ in range(100):
            g = rand_element(rng, spec)
            gi = inv(spec, g)
            assert gi.r == -g.r
            assert gi.u == (-g.u).scale_kpow(g.r)
            assert mul(spec, g, gi) == identity(spec)
            assert mul(spec, gi, g) == identity(spec)


def test_inv_identity():
    for spec in FAMILIES:
        assert inv(spec, identity(spec)) == identity(spec)


def test_inv_wreath_worked_example():
    # (p = t^2, x = 1)^{-1} = (p = -t^1, x = -1) in Z wr Z
    g = WreathElement(
        LaurentPoly.make([(2, RElem.make([1], [], ()))], 1, ()), 1
    )
    gi = inv(ZWR, g)
    assert gi.shift == -1
    assert gi.poly == LaurentPoly.make([(1, RElem.make([-1], [], ()))], 1, ())
    assert mul(ZWR, g, gi) == identity(ZWR)


def test_group_axioms_randomized():
    rng = random.Random(19)
    for spec in FAMILIES:
        for _ in range(300):
            g, h, k = (rand_element(rng, spec) for _ in range(3))
            assert mul(spec, mul(spec, g, h), k) == mul(spec, g, mul(spec, h, k))
            assert mul(spec, g, inv(spec, g)) == identity(spec)


def test_bs_defining_relation():
    for k in (2, 3, 5):
        spec = GroupSpec.bs(k)
        lhs = eval_word(spec, [("b", -1), ("a", 1), ("b", 1)], {})
        rhs = eval_word(spec, [("a", k)], {})
        assert lhs == rhs
        assert lhs == BsElement(ZkFrac.integer(k, k), 0)


def test_eval_word_variable_lookup():
    rng = random.Random(23)
    for spec in FAMILIES:
        g = rand_element(rng, spec)
        assert eval_word(spec, [("X", 1)], {"X": g}) == g


def test_eval_word_conjugation_scales_by_power_of_k():
    for r in range(-3, 4):
        x = BsElement(ZkFrac.zero(2), r)
        out = eval_word(BS2, [("X", -1), ("a", 1), ("X", 1)], {"X": x})
        assert out == BsElement(ZkFrac.from_fraction(Fraction(2) ** r, 2), 0)


def test_eval_word_is_a_homomorphism_on_concatenation():
    rng = random.Random(29)
    for spec in FAMILIES:
        names = spec.generator_names()
        for _ in range(100):
            w1 = [(rng.choice(names), rng.randint(-3, 3)) for _ in range(3)]
            w2 = [(rng.choice(names), rng.randint(-3, 3)) for _ in range(3)]
            lhs = eval_word(spec, w1 + w2, {})
            rhs = mul(spec, eval_word(spec, w1, {}), eval_word(spec, w2, {}))
            assert lhs == rhs


def test_wreath_mul_matches_two_by_two_matrices():
    # [[t^x1, P1],[0,1]] * [[t^x2, P2],[0,1]] = [[t^(x1+x2), t^x1 P2 + P1],[0,1]]
    rng = random.Random(31)
    for spec in (LAMP, ZWR, MIXED):
        for _ in range(150):
            g, h = rand_element(rng, spec), rand_element(rng, spec)
            prod = mul(spec, g, h)
            assert prod.shift == g.shift + h.shift
            assert prod.poly == h.poly.shift(g.shift) + g.poly


def test_power_agrees_with_repeated_mul():
    rng = random.Random(37)
    for spec in FAMILIES:
        for _ in range(20):
            g = rand_element(rng, spec)
            for n in range(-7, 8):
                acc = identity(spec)
                step = g if n >= 0 else inv(spec, g)
                for _ in range(abs(n)):
                    acc = mul(spec, acc, step)
                assert power(spec, g, n) == acc


def test_verify_witness_worked_examples():
    s = parse_system("group BS 2\nX^2 = a^3")
    assert verify_witness(s, {"X": BsElement(ZkFrac.make(3, 1, 2), 0)})
    s2 = parse_system("group BS 2\nX = a")
    assert not verify_witness(s2, {"X": identity(BS2)})
    s3 = parse_system("group wreath Z^0 x Z_2\nX a = a X")
    p = LaurentPoly.make(
        [(0, RElem.make([], [1], (2,))), (1, RElem.make([], [1], (2,)))], 0, (2,)
    )
    assert verify_witness(s3, {"X": WreathElement(p, 0)})


def test_verify_witness_fails_a_nonzero_total_shift_before_multiplying():
    # X = (1, 10^10) would make X^2 build k^(10^10); its b-exponent sum is
    # 2 * 10^10 against 0 for a^3, so the witness fails at once
    s = parse_system("group BS 2\nX^2 = a^3")
    assert not verify_witness(s, {"X": parse_element(BS2, "1 | 10000000000")})
    s = parse_system("group wreath Z^1\nX^2 = t a")
    assert not verify_witness(s, {"X": parse_element(ZWR, "{} | 10000000000")})
    # shifts that cancel still reach the multiplication, which decides
    s = parse_system("group BS 2\nX Y = a")
    x, y = parse_element(BS2, "1 | 5"), parse_element(BS2, "0 | -5")
    assert verify_witness(s, {"X": x, "Y": y})
    assert not verify_witness(s, {"X": y, "Y": x})


def _two_sided(system, assignment):
    """The reference check: both sides of every equation evaluated and compared."""
    spec = system.spec
    return all(eval_word(spec, lhs, assignment) == eval_word(spec, rhs, assignment)
               for lhs, rhs in system.equations)


def test_verify_witness_matches_two_sided_check():
    rng = random.Random(53)
    seen = {True: 0, False: 0}
    for spec in [BS2, BS3] + WREATHS:
        gens = spec.generator_names()

        def word(n):
            # X has a nonzero shift, Y shift 0; unknown exponents in -3..3
            return tuple((rng.choice(gens), rng.randint(-4, 4)) if rng.random() < 0.6
                         else (rng.choice("XY"), rng.randint(-3, 3))
                         for _ in range(n))

        for _ in range(60):
            x = rand_element(rng, spec)
            while (x.r if spec.kind == "bs" else x.shift) == 0:
                x = rand_element(rng, spec)
            y = rand_element(rng, spec)
            y = BsElement(y.u, 0) if spec.kind == "bs" else WreathElement(y.poly, 0)
            assignment = {"X": x, "Y": y}
            equations = []
            for _ in range(rng.randint(1, 3)):
                lhs, rest = word(rng.randint(0, 5)), word(rng.randint(0, 4))
                # planted: Z is the one element with lhs = Z rest, or lhs = rest Z^-1
                g, h = eval_word(spec, lhs, assignment), eval_word(spec, rest, assignment)
                name = f"Z{len(equations)}"
                if rng.random() < 0.5:
                    assignment[name] = mul(spec, g, inv(spec, h))
                    rhs = ((name, 1),) + rest
                else:
                    assignment[name] = mul(spec, inv(spec, g), h)
                    rhs = rest + ((name, -1),)
                if rng.random() < 0.3:  # break it: Z moves by a generator
                    moved = mul(spec, assignment[name], generator(spec, rng.choice(gens)))
                    assignment[name] = moved
                equations.append((lhs, rhs))
            if rng.random() < 0.3:  # an equation that holds only by chance
                equations.append((word(rng.randint(0, 4)), word(rng.randint(0, 4))))
            rng.shuffle(equations)
            variables = tuple(sorted(n for n in assignment))
            system = EquationSystem(spec=spec, equations=tuple(equations), variables=variables)
            want = _two_sided(system, assignment)
            assert verify_witness(system, assignment) == want, (spec, equations)
            seen[want] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_render_parse_element_round_trip():
    rng = random.Random(41)
    for spec in FAMILIES:
        for _ in range(200):
            g = rand_element(rng, spec)
            assert parse_element(spec, render_element(spec, g)) == g


def test_generator_names_by_family():
    assert BS2.generator_names() == ["a", "b"]
    assert LAMP.generator_names() == ["t", "c1", "a"]
    assert set(ZWR.generator_names()) == {"t", "a1", "a"}
    assert "a1" in MIXED.generator_names() and "c1" in MIXED.generator_names()


def _fold(spec, word, assignment):
    """The reference evaluation: a left fold of mul(acc, power(g, e))."""
    acc = identity(spec)
    for name, e in word:
        g = assignment[name] if name in assignment else generator(spec, name)
        acc = mul(spec, acc, power(spec, g, e))
    return acc


def test_eval_word_matches_fold_of_mul():
    rng = random.Random(43)
    for spec in WREATHS:
        names = spec.generator_names() + ["X", "Y"]
        for _ in range(150):
            x, y = rand_element(rng, spec), rand_element(rng, spec)
            assignment = {"X": x, "Y": WreathElement(y.poly, 0)}  # Y has shift 0
            word = [
                (rng.choice(names), rng.choice([0, 1, -1, 2, -3, rng.randint(-900, 900)]))
                for _ in range(rng.randint(0, 8))
            ]
            assert eval_word(spec, word, assignment) == _fold(spec, word, assignment)
    # a large power of a 300-lamp unknown of shift 1, at a nonzero shift
    x = WreathElement(
        LaurentPoly.make([(d, RElem.make([d % 7 + 1], [], ())) for d in range(300)], 1, ()), 1
    )
    for word in ([("t", 3), ("a", 2), ("X", 20000), ("a", -1)], [("t", -5), ("X", -20000)]):
        assert eval_word(ZWR, word, {"X": x}) == _fold(ZWR, word, {"X": x})


def test_eval_word_matches_independent_wreath_eval():
    rng = random.Random(47)
    for spec in WREATHS:
        fam = (spec.free_rank, spec.torsion)
        names = ["t"] + workloads.lamp_names(fam)
        for _ in range(100):
            word = [(rng.choice(names), rng.randint(-50, 50)) for _ in range(rng.randint(0, 30))]
            g = eval_word(spec, word, {})
            lamps = {d: c.free + c.torsion for d, c in g.poly.coeffs}
            assert (lamps, g.shift) == workloads.wreath_eval(fam, word)


def test_eval_word_rejects_names_that_are_not_generators():
    z1, z2 = GroupSpec.wreath(1), GroupSpec.wreath(2)
    for spec, name in [(z1, "c1"), (z2, "a3"), (z2, "a"), (z1, "a0"), (z1, "X"), (BS2, "t")]:
        try:
            eval_word(spec, [("t" if spec.kind == "wreath" else "a", 1), (name, 2)], {})
        except KeyError:
            continue
        raise AssertionError(f"{name} accepted over {spec.render()}")


def test_long_lamplighter_word_is_linear():
    start = time.monotonic()
    g = eval_word(ZWR, [("t", 1), ("a", 1)] * 4000, {})
    assert time.monotonic() - start < 5.0
    assert g.shift == 4000
    assert g.poly.component_dict(0) == {d: 1 for d in range(1, 4001)}

