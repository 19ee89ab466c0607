import itertools
import random

from groupeq.frontend import parse_spec, parse_system, render_word
from groupeq.groups import GroupSpec, verify_witness
from groupeq.intlinalg import AffineForm
from groupeq.oracle import ball_elements, brute_force_group
from groupeq.reduce import (
    ExpSum,
    Row,
    eval_bs_system,
    eval_wreath_system,
    reduce_bs,
    reduce_wreath,
    triangularize,
    wreath_coords,
)


def test_reduce_bs_identity_equation():
    red = reduce_bs(parse_system("group BS 2\nX = 1"))
    # one row pinning the ring part, one linear form pinning the exponent
    assert len(red.rows) == 1
    (row,) = red.rows
    assert set(row.coeffs) == {"X"}
    assert row.const.is_zero()
    assert [f.render() for f in red.linear] == ["r_X"]


def test_reduce_bs_conjugation_collapses_to_pure_residual():
    red = reduce_bs(parse_system("group BS 2\nX^-1 a X = a^3"))
    assert red.linear == []
    assert len(red.rows) == 1
    (row,) = red.rows
    assert row.coeffs == {}
    # the constant side is 2^(r_X) - 3: zero exactly when 2^r = 3
    for r in range(-4, 5):
        val = row.const.eval_fraction(2, {"r_X": r})
        assert (val == 0) == (2**r == 3)


def test_reduce_bs_defining_relation_vanishes():
    for k in (2, 3, 5):
        red = reduce_bs(parse_system(f"group BS {k}\nb^-1 a b = a^{k}"))
        assert red.rows == []
        assert red.linear == []


def test_reduce_wreath_commutator_drops_lamp_unknown():
    s = parse_system("group wreath Z^0 x Z_2\nX a = a X")
    w = reduce_wreath(s)
    assert w.linear == []
    assert len(w.components) == 1
    # solution set: any lamp configuration with shift zero
    for g in ball_elements(s.spec, 2):
        assert eval_wreath_system(w, {"X": g}) == (g.shift == 0)
        assert verify_witness(s, {"X": g}) == (g.shift == 0)


def test_reduce_wreath_component_count_matches_rank():
    w = reduce_wreath(parse_system("group wreath Z^2\nX = a1"))
    assert len(w.components) == 2
    w2 = reduce_wreath(parse_system("group wreath Z^1 x Z_2 x Z_3\nX = a1"))
    assert len(w2.components) == 3
    assert [c.mod for c in w2.components] == [None, 2, 3]


def test_reduce_wreath_trivial_equation_empty():
    w = reduce_wreath(parse_system("group wreath Z^0 x Z_2\na = a"))
    assert all(c.rows == [] for c in w.components)
    assert w.linear == []


BALL2 = {}


def _family_points(spec):
    # wreath balls blow up fast: radius 1 already gives hundreds of points
    key = spec.render()
    if key not in BALL2:
        BALL2[key] = ball_elements(spec, 2 if spec.kind == "bs" else 1)
    return BALL2[key]


def _rand_system(rng, head, spec, n_eq, n_var):
    names = spec.generator_names()
    variables = ["X", "Y"][:n_var]
    lines = [head]
    for _ in range(n_eq):
        lhs = [
            (rng.choice(names + variables), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 3))
        ]
        rhs = [
            (rng.choice(names + variables), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 3))
        ]
        lines.append(f"{render_word(lhs)} = {render_word(rhs)}")
    return parse_system("\n".join(lines))


def test_reduction_soundness_randomized():
    """Group satisfaction must agree with reduced-system satisfaction exactly."""
    rng = random.Random(77)
    heads = [
        "group BS 2",
        "group BS 3",
        "group wreath Z^0 x Z_2",
        "group wreath Z^1",
        "group wreath Z^1 x Z_2",
    ]
    for head in heads:
        spec = parse_spec(head)
        points = _family_points(spec)
        for _ in range(40):
            s = _rand_system(rng, head, spec, rng.randint(1, 2), rng.randint(1, 2))
            if not s.variables:
                continue
            red = reduce_bs(s) if spec.kind == "bs" else reduce_wreath(s)
            evalf = eval_bs_system if spec.kind == "bs" else eval_wreath_system
            for _ in range(30):
                assignment = {v: rng.choice(points) for v in s.variables}
                assert evalf(red, assignment) == verify_witness(s, assignment)


def test_triangularize_single_unknown_single_branch():
    red = reduce_bs(parse_system("group BS 2\nX = a"))
    branches = triangularize(red.rows, None)
    assert len(branches) == 1
    (br,) = branches
    assert [u for u, _ in br.pivots] == ["X"]
    assert br.residuals == []


def test_triangularize_idempotent_pair_one_branch():
    red = reduce_bs(parse_system("group BS 2\nX = a\nX = a"))
    branches = triangularize(red.rows, None)
    assert len(branches) == 1
    (br,) = branches
    assert len(br.pivots) == 1
    assert all(r.is_zero() for r in br.residuals)


def test_triangularize_vanishing_coefficient_splits():
    r1 = AffineForm.var("r1")
    r2 = AffineForm.var("r2")
    coeff = ExpSum.make([(r1, 1), (r2, -1)])
    row = Row({"X": coeff}, ExpSum.make([(AffineForm.constant(0), 5)]))
    branches = triangularize([row], None)
    assert len(branches) == 2
    zero = [b for b in branches if "z" in b.path]
    nonzero = [b for b in branches if "n" in b.path]
    assert len(zero) == 1 and len(nonzero) == 1
    # zero case: the coefficient is forced to vanish and the row loses X
    assert any(s == coeff for s in zero[0].residuals)
    assert zero[0].pivots == []
    # nonzero case: X is pivoted under a recorded side assumption
    assert [u for u, _ in nonzero[0].pivots] == ["X"]
    assert any(s == coeff for s in nonzero[0].side)


def test_triangularize_preserves_solutions_brute_force():
    """Union of branch solution sets equals the row system's solutions."""
    rng = random.Random(123)
    for _ in range(60):
        nrows = rng.randint(1, 2)
        unknowns = ["X", "Y"][: rng.randint(1, 2)]
        evars = ["e1", "e2"][: rng.randint(1, 2)]
        mod = rng.choice([None, 2, 3])
        rows = []
        for _ in range(nrows):
            coeffs = {}
            for u in unknowns:
                if rng.random() < 0.7:
                    terms = [
                        (
                            AffineForm.var(rng.choice(evars), rng.choice([-1, 1]))
                            + AffineForm.constant(rng.randint(-1, 1)),
                            rng.randint(-2, 2),
                        )
                        for _ in range(rng.randint(1, 2))
                    ]
                    s = ExpSum.make(terms, mod)
                    if not s.is_zero():
                        coeffs[u] = s
            const = ExpSum.make(
                [(AffineForm.constant(rng.randint(0, 1)), rng.randint(-2, 2))], mod
            )
            rows.append(Row(coeffs, const))
        branches = triangularize(list(rows), mod)

        k = 2
        uvals = range(-3, 4) if mod is None else range(mod)
        evals = range(0, 3)

        if mod is None:
            # BS shape: unknowns are scalars, sums evaluate at the real base
            def row_val(row, env, uassign):
                total = row.const.eval_fraction(k, env)
                for u, s in row.coeffs.items():
                    total += s.eval_fraction(k, env) * uassign[u]
                return total == 0

        else:
            # component shape: sums are Laurent polynomials over Z_mod;
            # testing with constant unknowns keeps monomials symbolic
            def row_val(row, env, uassign):
                acc = {}

                def bump(d, v):
                    w = (acc.get(d, 0) + v) % mod
                    if w:
                        acc[d] = w
                    else:
                        acc.pop(d, None)

                for d, v in row.const.eval_laurent(env).items():
                    bump(d, v)
                for u, s in row.coeffs.items():
                    for d, v in s.eval_laurent(env).items():
                        bump(d, v * uassign[u])
                return not acc

        for evcombo in itertools.product(evals, repeat=len(evars)):
            env = dict(zip(evars, evcombo))
            for ucombo in itertools.product(uvals, repeat=len(unknowns)):
                uassign = dict(zip(unknowns, ucombo))
                direct = all(row_val(r, env, uassign) for r in rows)
                covered = False
                for br in branches:
                    ok = all(
                        row_val(Row({}, s), env, {}) for s in br.residuals
                    )
                    for u, prow in br.pivots:
                        ok = ok and row_val(prow, env, uassign)
                    # side constraints must hold for the branch to claim the point
                    for s in br.side:
                        ok = ok and not row_val(Row({}, s), env, {})
                    covered = covered or ok
                assert covered == direct, (rows, env, uassign)


def test_triangularize_side_bookkeeping():
    rng = random.Random(31)
    for _ in range(100):
        evars = ["e1", "e2"]
        coeff = ExpSum.make(
            [
                (AffineForm.var(rng.choice(evars)), rng.choice([-1, 1])),
                (AffineForm.var(rng.choice(evars)), rng.choice([-1, 1])),
            ]
        )
        if coeff.is_zero() or coeff.single() is not None:
            continue
        row = Row({"X": coeff}, ExpSum.make([(AffineForm.constant(0), 1)]))
        for br in triangularize([row], None):
            # a sum assumed nonzero never simultaneously appears as a residual
            for s in br.side:
                assert s not in br.residuals


def test_wreath_coords_round_trip():
    rng = random.Random(47)
    spec = GroupSpec.wreath(1, (2,))
    for g in _family_points(spec)[:300]:
        comps, y, x = wreath_coords(g, spec.n_components)
        assert x == g.shift
        assert y >= 0
        degs = g.poly.support()
        if degs:
            assert min(degs) + y >= 0
        for c, table in enumerate(comps):
            shifted = {d - y: v for d, v in table.items()}
            assert shifted == g.poly.component_dict(c)
