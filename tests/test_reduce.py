import gc
import itertools
import math
import pathlib
import random
import time

from groupeq.decide import Budget, decide
from groupeq.expsolve import grouping_solve
from groupeq.frontend import EquationSystem, parse_spec, parse_system, render_word
from groupeq.groups import GroupSpec, generator, verify_witness
from groupeq.intlinalg import AffineForm
from groupeq.oracle import ball_elements, brute_force_group
from groupeq.reduce import (
    BranchOverflow,
    ExpSum,
    Row,
    TriBranch,
    _branch_key,
    reduce_bs,
    reduce_wreath,
    triangularize,
)
from reference_models import eval_bs_system, eval_wreath_system, wreath_coords


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


# ---------------------------------------------------------------------------
# References: the unit-letter reduction and the render-keyed case split


def _unit_letters(lhs, rhs):
    """lhs rhs^-1 with every exponent unrolled into letters of exponent +-1."""
    word = list(lhs) + [(name, -e) for name, e in reversed(rhs)]
    return [(name, 1 if e > 0 else -1) for name, e in word for _ in range(abs(e))]


def _reference_reduce_bs(system):
    spec = system.spec
    rows, linear = [], []
    for lhs, rhs in system.equations:
        prefix = AffineForm.constant(0)
        zterms, cterms = {}, []
        for name, s in _unit_letters(lhs, rhs):
            if name[0].isupper():
                rv = AffineForm.var(f"r_{name}")
                if s > 0:
                    zterms.setdefault(name, []).append((-prefix, 1))
                    prefix = prefix + rv
                else:
                    zterms.setdefault(name, []).append((rv - prefix, -1))
                    prefix = prefix - rv
            else:
                g = generator(spec, name)
                u, r = (g.u, g.r) if s > 0 else ((-g.u).scale_kpow(g.r), -g.r)
                if not u.is_zero():
                    cterms.append((AffineForm.constant(-u.depth) - prefix, u.num))
                prefix = prefix.shift(r)
        coeffs = {v: ExpSum.make(items) for v, items in zterms.items()}
        row = Row({v: s for v, s in coeffs.items() if not s.is_zero()}, ExpSum.make(cterms))
        vacuous = not row.coeffs and all(f.is_const() for f, _ in row.const.terms) and (
            row.const.eval_fraction(spec.k, {}) == 0
        )
        if not vacuous:
            rows.append(row)
        if prefix.terms or prefix.const:
            linear.append(prefix)
    return rows, linear


def _reference_reduce_wreath(system):
    spec = system.spec
    linear, raw = [], []
    for lhs, rhs in system.equations:
        prefix = AffineForm.constant(0)
        fterms, cterms = {}, []
        for name, s in _unit_letters(lhs, rhs):
            if name[0].isupper():
                xv, yv = AffineForm.var(f"x_{name}"), AffineForm.var(f"y_{name}")
                if s > 0:
                    fterms.setdefault(name, []).append((prefix - yv, 1))
                    prefix = prefix + xv
                else:
                    fterms.setdefault(name, []).append((prefix - xv - yv, -1))
                    prefix = prefix - xv
            else:
                g = generator(spec, name)
                poly, x = (g.poly, g.shift) if s > 0 else ((-g.poly).shift(-g.shift), -g.shift)
                for deg, relem in poly.coeffs:
                    cterms.append((prefix.shift(deg), relem))
                prefix = prefix.shift(x)
        raw.append((fterms, cterms))
        if prefix.terms or prefix.const:
            linear.append(prefix)
    components = []
    for comp in range(spec.n_components):
        mod = spec.component_modulus(comp)
        rows = []
        for fterms, cterms in raw:
            coeffs = {v: ExpSum.make(items, mod) for v, items in fterms.items()}
            const = ExpSum.make([(f, relem.component(comp)) for f, relem in cterms], mod)
            row = Row({v: s for v, s in coeffs.items() if not s.is_zero()}, const)
            if row.coeffs or not row.const.is_zero():
                rows.append(row)
        components.append((comp, mod, rows))
    return components, linear


def _row_layout(row):
    """A row's coefficients in their dict order, and its constant."""
    return list(row.coeffs.items()), row.const


RUN_FAMILIES = ["group BS 2", "group BS 3"] + [
    "group wreath " + text
    for text in ("Z^0 x Z_2", "Z^0 x Z_3", "Z^1", "Z^1 x Z_2", "Z^2", "Z^1 x Z_4 x Z_6")
]


def _run_word(rng, names):
    """Letters with runs up to +-50; unknowns get exponents in -3..3."""
    out = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.35:
            out.append((rng.choice("XY"), rng.choice([-3, -2, -1, 1, 2, 3])))
        else:
            out.append((rng.choice(names), rng.choice([-1, 1]) * rng.randint(1, 50)))
    return tuple(out)


def test_run_reduction_equals_unit_letter_reference():
    rng = random.Random(2024)
    for head in RUN_FAMILIES:
        spec = parse_spec(head)
        names = spec.generator_names()
        for _ in range(40):
            equations = tuple(
                (_run_word(rng, names), _run_word(rng, names)) for _ in range(rng.randint(1, 3))
            )
            variables = tuple(sorted({n for w in equations for side in w for n, _ in side
                                      if n[0].isupper()}))
            system = EquationSystem(spec=spec, equations=equations, variables=variables)
            if spec.kind == "bs":
                rows, linear = _reference_reduce_bs(system)
                red = reduce_bs(system)
                assert [_row_layout(r) for r in red.rows] == [_row_layout(r) for r in rows]
            else:
                components, linear = _reference_reduce_wreath(system)
                red = reduce_wreath(system)
                got = [(c.component, c.mod, [_row_layout(r) for r in c.rows])
                       for c in red.components]
                assert got == [(c, m, [_row_layout(r) for r in rs]) for c, m, rs in components]
            assert red.linear == linear, (head, equations)


def _reference_pivot_score(s, mod):
    one = s.single()
    if one is not None:
        unit = one[1] in (1, -1) if mod is None else math.gcd(one[1], mod) == 1
        return (0 if unit else 1, 1)
    return (2, len(s.terms))


def _reference_triangularize(rows, mod, branch_cap=512):
    """The case split keyed by each branch's rendered, line-sorted text.

    Returns the branches and the number of duplicates it dropped."""
    out, seen, dropped = [], set(), [0]
    base = "k" if mod is None else "t"

    def normalized(row):
        return Row({u: s for u, s in row.coeffs.items() if not s.is_zero()}, row.const)

    def sub_scaled(row, other, factor_self, factor_other):
        acc = {u: c * factor_self for u, c in row.coeffs.items()}
        for u, c in other.coeffs.items():
            prod = c * factor_other
            acc[u] = acc[u] - prod if u in acc else -prod
        return normalized(Row(acc, row.const * factor_self - other.const * factor_other))

    def emit(branch):
        key = "\n".join(sorted(branch.render(base).splitlines()[1:]))
        if key in seen:
            dropped[0] += 1
        else:
            seen.add(key)
            out.append(branch)

    def walk(work, pivots, residuals, side, path):
        if len(out) >= branch_cap:
            raise BranchOverflow()
        ready = []
        for r in map(normalized, work):
            if r.coeffs:
                ready.append(r)
            elif not r.const.is_zero():
                residuals = residuals + [r.const]
        if not ready:
            emit(TriBranch(list(pivots), residuals, side, path))
            return
        best = None
        for i, row in enumerate(ready):
            for u in sorted(row.coeffs):
                score = _reference_pivot_score(row.coeffs[u], mod) + (u, i)
                if best is None or score < best[0]:
                    best = (score, i, u)
        _, i, u = best
        prow = ready[i]
        coef = prow.coeffs[u]
        rest = ready[:i] + ready[i + 1:]
        if coef.single() is None:
            zrow = Row({v: s for v, s in prow.coeffs.items() if v != u}, prow.const)
            walk(rest + [zrow], pivots, residuals + [coef], side, path + "z")
            side = side + [coef]
            path = path + "n"
        eliminated = [sub_scaled(r, prow, coef, r.coeffs[u]) if u in r.coeffs else r
                      for r in rest]
        walk(eliminated, pivots + [(u, prow)], residuals, side, path + ".")

    walk(rows, [], [], [], "")
    return out, dropped[0]


def _branch_layout(b):
    return (b.path, [(u, _row_layout(r)) for u, r in b.pivots], b.residuals, b.side)


def _rand_sum(rng, mod, evars):
    terms = [(AffineForm.make({rng.choice(evars): rng.choice([-1, 1])}, rng.randint(-1, 1)),
              rng.choice([-1, 1, 2]))
             for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        terms.append((AffineForm.constant(0), 1))
    return ExpSum.make(terms, mod)


def test_structural_dedup_matches_render_keyed_reference():
    # branches repeat when rows repeat and share a multi-term coefficient:
    # zero-splitting a row and pivoting on its copy reaches the same branch
    rng = random.Random(4242)
    repeating = 0  # systems with a repeated branch
    for _ in range(600):
        mod = rng.choice([None, 2, 3, 4])
        pool = [_rand_sum(rng, mod, ["p0", "p1"]) for _ in range(rng.randint(1, 2))]
        unknowns = ["X", "Y", "Z"][: rng.randint(1, 3)]
        rows = []
        for _ in range(rng.randint(2, 5)):
            if rows and rng.random() < 0.5:
                rows.append(rng.choice(rows))
                continue
            coeffs = {u: rng.choice(pool) for u in unknowns if rng.random() < 0.6}
            const = rng.choice(pool) if rng.random() < 0.2 else ExpSum.zero(mod)
            rows.append(Row(coeffs, const))
        want, n = _reference_triangularize(rows, mod)
        got = triangularize(rows, mod)
        assert [_branch_layout(b) for b in got] == [_branch_layout(b) for b in want]
        repeating += n > 0
        _check_keys_against_render(got + _branch_variants(rng, got, pool), mod)
    assert repeating >= 8, repeating


def _branch_variants(rng, branches, pool):
    """Each branch reordered under another path (the same key), and with a
    residual moved to the side or an extra residual or side (another key)."""
    out = []
    for b in branches:
        out.append(TriBranch(b.pivots[::-1], b.residuals[::-1], b.side[::-1], "again"))
        if b.residuals:
            out.append(TriBranch(b.pivots, b.residuals[1:], b.side + b.residuals[:1], b.path))
        out.append(TriBranch(b.pivots, b.residuals + [rng.choice(pool)], b.side, b.path))
        out.append(TriBranch(b.pivots, b.residuals, b.side + [rng.choice(pool)], b.path))
    return out


def _check_keys_against_render(branches, mod):
    base = "k" if mod is None else "t"
    rendered = ["\n".join(sorted(b.render(base).splitlines()[1:])) for b in branches]
    keys = [_branch_key(b) for b in branches]
    for i, j in itertools.combinations(range(len(branches)), 2):
        assert (keys[i] == keys[j]) == (rendered[i] == rendered[j]), rendered[i]


def test_long_runs_reduce_and_decide_quickly():
    # at the letter bound: a run is one term, so this takes milliseconds where
    # unrolling a^99998 into unit letters took seconds
    for head in ("group BS 2", "group wreath Z^1"):
        system = parse_system(f"{head}\nX^2 = a^99998")
        start = time.monotonic()
        red = reduce_bs(system) if system.spec.kind == "bs" else reduce_wreath(system)
        verdict = decide(system, Budget(steps=2))
        assert time.monotonic() - start < 0.5, head
        rows = red.rows if system.spec.kind == "bs" else red.components[0].rows
        assert [len(row.const.terms) for row in rows] == [1]
        assert verdict.status == "sat"
        assert verify_witness(system, verdict.witness)


def test_case_split_and_grouping_leave_no_reference_cycles():
    # each call's garbage must go by reference counting alone; a recursive
    # closure (a function held in its own cell) makes a cycle on every call
    corpus = pathlib.Path(__file__).parent / "corpus"
    solved = 0
    gc.collect()
    gc.disable()
    try:
        for name in ("zwr_commute_pair", "mixed_square_free", "lamp3_root_clash"):
            red = reduce_wreath(parse_system((corpus / f"{name}.eq").read_text()))
            for comp in red.components:
                for branch in triangularize(comp.rows, comp.mod):
                    eqs = [[(c, f) for f, c in s.terms] for s in branch.residuals]
                    solved += len(grouping_solve(eqs, comp.mod)) if eqs else 0
            assert gc.collect() == 0, name
    finally:
        gc.enable()
    assert solved >= 3
