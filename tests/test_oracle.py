import itertools
import random
from fractions import Fraction

import pytest

from groupeq.expsolve import SemenovSystem
from groupeq.frontend import parse_system
from groupeq.groups import GroupSpec, generator, verify_witness
from groupeq.intlinalg import AffineForm
from groupeq.oracle import SearchBall, ball_elements, brute_force_exp, brute_force_group
from groupeq.rings import ZkFrac

BS2 = GroupSpec.bs(2)
LAMP = GroupSpec.wreath(0, (2,))


def test_square_root_found_in_ball():
    system = parse_system("group BS 2\nX^2 = a^3")
    hits = brute_force_group(system, BS2, SearchBall(3))
    assert any(w["X"].u == ZkFrac.make(3, 1, 2) and w["X"].r == 0 for w in hits)
    for w in hits:
        assert verify_witness(system, w)


def test_single_generator_hit():
    system = parse_system("group BS 2\nX = a")
    hits = brute_force_group(system, BS2, SearchBall(1))
    assert len(hits) == 1
    assert hits[0]["X"] == generator(BS2, "a")


def test_conjugation_ball_is_empty():
    system = parse_system("group BS 2\nX^-1 a X = a^3")
    assert brute_force_group(system, BS2, SearchBall(4)) == []


def test_exp_sum_of_two_powers():
    sys_ = SemenovSystem.make(
        [([(1, AffineForm.var("y1")), (1, AffineForm.var("y2"))], -6)], 2
    )
    envs = brute_force_exp(sys_, (-8, 8))
    got = {(e["y1"], e["y2"]) for e in envs}
    assert got == {(1, 2), (2, 1)}


def test_exp_single_power():
    sys_ = SemenovSystem.make([([(1, AffineForm.var("y"))], -2)], 2)
    assert [e["y"] for e in brute_force_exp(sys_, (-8, 8))] == [1]


def test_exp_no_power_equals_three():
    sys_ = SemenovSystem.make([([(1, AffineForm.var("y"))], -3)], 2)
    assert brute_force_exp(sys_, (-8, 8)) == []


def _rational_hits(sys_, lo, hi):
    """brute_force_exp's definition, evaluated term by term in Fraction."""
    names = sys_.variables()
    k = Fraction(sys_.k)
    hits = []
    for pt in itertools.product(range(lo, hi + 1), repeat=len(names)):
        env = dict(zip(names, pt))
        if all(
            sum((c * k ** f.evaluate(env) for c, f in terms), Fraction(const)) == 0
            for terms, const in sys_.equations
        ):
            hits.append(env)
    return hits


def _planted_equation(rng, names, k, point):
    """Random terms whose constant makes the equation vanish at point."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coefs = {n: rng.choice([-2, -1, 1, 2]) for n in rng.sample(names, rng.randint(1, len(names)))}
        terms.append((rng.choice([-3, -2, -1, 1, 2, 3]), AffineForm.make(coefs, rng.randint(-3, 3))))
    value = sum(c * Fraction(k) ** f.evaluate(point) for c, f in terms)
    # scale by the power of k in the denominator so the constant is an integer
    den = value.denominator
    return [(c * den, f) for c, f in terms], -int(value * den)


def test_exp_integer_scaling_matches_rational_evaluation():
    rng = random.Random(2024)
    lo, hi = -3, 3
    two_eqs = negative_hits = 0
    for _ in range(60):
        k = rng.choice([2, 3, 5])
        names = ["y0", "y1", "y2"][: rng.randint(1, 3)]
        point = {n: rng.randint(lo, hi) for n in names}
        eqs = [_planted_equation(rng, names, k, point) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            # an unplanted equation: usually no hits at all
            terms, const = eqs[-1]
            eqs[-1] = (terms, const + rng.choice([-1, 1]))
        sys_ = SemenovSystem.make(eqs, k)
        got = brute_force_exp(sys_, (lo, hi))
        assert got == _rational_hits(sys_, lo, hi)
        two_eqs += len(eqs) == 2
        negative_hits += any(
            f.evaluate(env) < 0 for env in got for terms, _ in eqs for _, f in terms
        )
    # the sample exercises what the integer scaling has to get right
    assert two_eqs and negative_hits


def test_ball_sizes_and_canonicality():
    sizes_bs = [len(ball_elements(BS2, r)) for r in range(5)]
    assert sizes_bs == [1, 15, 45, 133, 225]
    sizes_lamp = [len(ball_elements(LAMP, r)) for r in range(3)]
    assert sizes_lamp == [1, 24, 160]
    for spec, radius in ((BS2, 3), (LAMP, 2), (GroupSpec.wreath(1), 1)):
        els = ball_elements(spec, radius)
        assert len(els) == len(set(els))


def test_torsion_coefficients_use_symmetric_representatives():
    z5 = GroupSpec.wreath(0, (5,))
    els = ball_elements(z5, 1)
    vals = {c.torsion[0] for e in els for _, c in e.poly.coeffs}
    # radius 1 permits residues -1, 0, 1 of Z_5; zero coefficients are dropped
    assert vals == {1, 4}
    assert len(els) == 81


def test_int_accepted_as_ball():
    assert ball_elements(BS2, 2) == ball_elements(BS2, SearchBall(2))


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        SearchBall(-1)


def test_oracle_determinism():
    system = parse_system("group wreath Z^0 x Z_2\nX a = a X")
    a = brute_force_group(system, LAMP, SearchBall(2))
    b = brute_force_group(system, LAMP, SearchBall(2))
    assert a == b
    assert all(verify_witness(system, w) for w in a)
    # commuting with the lamp generator forces shift zero
    assert all(w["X"].shift == 0 for w in a)
