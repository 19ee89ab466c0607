import itertools
import math
import random
from fractions import Fraction

import pytest

from groupeq.expsolve import (
    SemenovSystem,
    delta_bound,
    dedup_systems,
    grouping_solve,
    semenov_solve,
    solve_forms,
)
from groupeq.intlinalg import AffineForm
from groupeq.oracle import brute_force_exp


def _var(name):
    return AffineForm.var(name)


def test_delta_bound_examples():
    assert delta_bound([1, 1], -6, 2) == 4
    assert delta_bound([1], 0, 2) == 2
    assert delta_bound([4, 5], 0, 10) == 2


def test_delta_bound_dominance():
    """Beyond the bound, the largest term outweighs the rest of the equation."""
    rng = random.Random(91)
    for _ in range(300):
        k = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        betas = [rng.choice([-9, -5, -2, -1, 1, 2, 5, 9]) for _ in range(n)]
        c = rng.randint(-30, 30)
        d = delta_bound(betas, c, k)
        others = rng.randint(0, 6)
        top = others + d + 1
        dominant = abs(betas[0]) * k**top
        rest = sum(abs(b) * k**others for b in betas[1:]) + abs(c)
        assert dominant > rest


def _solution_points(disjunct_forms, variables, box):
    pts = set()
    for pt in itertools.product(box, repeat=len(variables)):
        env = dict(zip(variables, pt))
        for forms in disjunct_forms:
            if all(f.evaluate(env) == 0 for f in forms):
                pts.add(pt)
                break
    return pts


def test_semenov_injectivity():
    sys_ = SemenovSystem.make([([(1, _var("y1")), (-1, _var("y2"))], 0)], 2)
    out = semenov_solve(sys_)
    box = range(-8, 9)
    got = _solution_points(out, ["y1", "y2"], box)
    assert got == {(v, v) for v in box}


def test_semenov_six():
    sys_ = SemenovSystem.make([([(1, _var("y1")), (1, _var("y2"))], -6)], 2)
    out = semenov_solve(sys_)
    got = _solution_points(out, ["y1", "y2"], range(-8, 9))
    assert got == {(1, 2), (2, 1)}


def test_semenov_three_is_empty():
    sys_ = SemenovSystem.make([([(1, _var("y"))], -3)], 2)
    assert semenov_solve(sys_) == []


def _rand_semenov(rng, nvars_max=3):
    k = rng.choice([2, 3])
    nvars = rng.randint(1, nvars_max)
    pool = [f"y{i}" for i in range(nvars)]
    nterms = rng.randint(1, 3)
    terms = [
        (rng.choice([c for c in range(-10, 11) if c]), _var(rng.choice(pool)))
        for _ in range(nterms)
    ]
    c = rng.randint(-30, 30)
    sys_ = SemenovSystem.make([(terms, c)], k)
    return sys_, sorted(sys_.variables())


def test_semenov_matches_brute_force_sampled():
    rng = random.Random(2024)
    lo, hi = -8, 20
    for _ in range(120):
        sys_, variables = _rand_semenov(rng)
        out = semenov_solve(sys_)
        got = _solution_points(out, variables, range(lo, hi + 1))
        brute = brute_force_exp(sys_, (lo, hi))
        expect = {tuple(env[v] for v in variables) for env in brute}
        assert got == expect, (sys_, sorted(got), sorted(expect))


def test_semenov_multi_equation_conjunction():
    # 2^y1 + 2^y2 = 6 together with y1 = y2 + 1 as 2^y1 - 2*2^y2 = 0
    sys_ = SemenovSystem.make(
        [
            ([(1, _var("y1")), (1, _var("y2"))], -6),
            ([(1, _var("y1")), (-2, _var("y2"))], 0),
        ],
        2,
    )
    got = _solution_points(semenov_solve(sys_), ["y1", "y2"], range(-8, 9))
    assert got == {(2, 1)}


def test_grouping_paper_shaped_equation():
    """3t^(3-x1+x2) + 4t^(-2+x1) + 2t^(x3-2) + 1 = 0 over Z_5."""
    e1 = AffineForm.constant(3) - _var("x1") + _var("x2")
    e2 = AffineForm.constant(-2) + _var("x1")
    e3 = _var("x3") + AffineForm.constant(-2)
    eq = [(3, e1), (4, e2), (2, e3), (1, AffineForm.constant(0))]
    out = grouping_solve([eq], 5)

    def sign_free(f):
        return frozenset({f.render(), f.scale(-1).render()})

    # the surviving grouping pairs the 3- and 2-terms and pins x1 = 2
    want = {sign_free(e1 - e3), sign_free(e2)}
    assert any({sign_free(f) for f in forms} == want for forms in out)


def test_grouping_z_injectivity():
    eq = [(1, _var("x")), (-1, _var("y"))]
    out = grouping_solve([eq], None)
    assert len(out) == 1
    got = _solution_points(out, ["x", "y"], range(-10, 11))
    assert got == {(v, v) for v in range(-10, 11)}


def test_grouping_mod2_pairs_terms():
    eq = [(1, _var("x")), (1, AffineForm.constant(0))]
    out = grouping_solve([eq], 2)
    got = _solution_points(out, ["x"], range(-10, 11))
    assert got == {(0,)}


def _laurent_value(eq, env, ring):
    acc = {}
    for c, f in eq:
        d = f.evaluate(env)
        v = acc.get(d, 0) + c
        if ring is not None:
            v %= ring
        if v:
            acc[d] = v
        else:
            acc.pop(d, None)
    return acc


def test_grouping_matches_brute_force_sampled():
    rng = random.Random(555)
    for _ in range(150):
        ring = rng.choice([None, 2, 3, 5, 6])
        nvars = rng.randint(1, 3)
        variables = [f"x{i}" for i in range(nvars)]
        nterms = rng.randint(1, 5)
        eq = []
        for _ in range(nterms):
            c = rng.randint(-6, 6) if ring is None else rng.randrange(1, ring)
            if c == 0:
                continue
            f = AffineForm.constant(rng.randint(-3, 3))
            if rng.random() < 0.8:
                f = f + _var(rng.choice(variables))
            eq.append((c, f))
        if not eq:
            continue
        out = grouping_solve([eq], ring)
        box = range(-10, 11)
        got = _solution_points(out, variables, box)
        expect = set()
        for pt in itertools.product(box, repeat=nvars):
            env = dict(zip(variables, pt))
            if not _laurent_value(eq, env, ring):
                expect.add(pt)
        assert got == expect, (ring, eq)


def test_grouping_branches_substitute_to_zero():
    """Solved exponent equalities collapse each block's coefficients."""
    rng = random.Random(808)
    for _ in range(100):
        ring = rng.choice([2, 3, 5, None])
        variables = ["x0", "x1"]
        eq = []
        for _ in range(rng.randint(2, 4)):
            c = rng.randint(-4, 4) if ring is None else rng.randrange(1, ring)
            if not c:
                continue
            eq.append((c, _var(rng.choice(variables)) + AffineForm.constant(rng.randint(-2, 2))))
        if len(eq) < 2:
            continue
        for forms in grouping_solve([eq], ring):
            # pick any box point satisfying the branch and replay the equation
            found = None
            for pt in itertools.product(range(-6, 7), repeat=2):
                env = dict(zip(variables, pt))
                if all(f.evaluate(env) == 0 for f in forms):
                    found = env
                    break
            if found is not None:
                assert not _laurent_value(eq, found, ring)


def test_solve_forms_empty_keeps_variable_count():
    sol = solve_forms([], ["a", "b"])
    assert sol.status == "ok"
    assert sol.nvars == 2
    assert len(sol.basis) == 2


def test_solve_forms_infeasible_has_certificate():
    f = _var("a").scale(2) + AffineForm.constant(-1)
    sol = solve_forms([f], ["a"])
    assert sol.status == "empty"
    assert sol.cert_row is not None


def test_dedup_systems_collapses_equivalent():
    a = [_var("x") - _var("y")]
    b = [(_var("x") - _var("y")).scale(-1)]
    out = dedup_systems([a, b], ["x", "y"])
    assert len(out) == 1
    c = [_var("x") + AffineForm.constant(-1)]
    out2 = dedup_systems([a, c], ["x", "y"])
    assert len(out2) == 2


def test_semenov_rejects_base_below_two():
    eq = [([(1, _var("y")), (-1, _var("z"))], 0)]
    for k in (1, 0, -2):
        with pytest.raises(ValueError):
            SemenovSystem.make(eq, k)
        with pytest.raises(ValueError):
            SemenovSystem((), k)
