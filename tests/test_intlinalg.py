import itertools
import random

from groupeq.intlinalg import (
    AffineForm,
    apply_solution,
    lattice_contains,
    row_hnf,
    smith_normal_form,
    solve_linear,
)
import reference_models as ref
from reference_models import d_matrix, det, mat_mul, mat_vec


def test_snf_worked_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diag == [2, 4]
    d = mat_mul(mat_mul(res.u, [[2, 4], [6, 8]]), res.v)
    assert d == d_matrix(res)


def test_snf_identity():
    res = smith_normal_form([[1, 0], [0, 1]])
    assert res.diag == [1, 1]


def test_snf_zero_matrix():
    res = smith_normal_form([[0, 0]])
    assert res.diag == []
    assert d_matrix(res) == [[0, 0]]


def test_snf_random_properties():
    rng = random.Random(3)
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(a)
        assert abs(det(res.u)) == 1
        assert abs(det(res.v)) == 1
        assert mat_mul(mat_mul(res.u, a), res.v) == d_matrix(res)
        diag = res.diag
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0


def test_solve_linear_worked_examples():
    s = solve_linear([[1, 2]], [3])
    assert s.status == "ok"
    assert list(s.particular) == [3, 0] or (
        s.particular[0] + 2 * s.particular[1] == 3
    )
    assert len(s.basis) == 1

    empty = solve_linear([[2]], [3])
    assert empty.status == "empty"

    free = solve_linear([[0]], [0])
    assert free.status == "ok"
    assert len(free.basis) == 1


def test_solve_linear_empty_exposes_certificate_row():
    empty = solve_linear([[2]], [3])
    assert empty.cert_row is not None
    _, d, c = empty.cert_row
    # diagonalized row d*x = c with no integer solution
    assert (d == 0 and c != 0) or c % d != 0


def _brute_solutions(a, b, lo, hi):
    n = len(a[0]) if a else 0
    hits = set()
    for xs in itertools.product(range(lo, hi + 1), repeat=n):
        if all(
            sum(r[j] * xs[j] for j in range(n)) == bv for r, bv in zip(a, b)
        ):
            hits.add(xs)
    return hits


def test_solve_linear_matches_brute_force_on_boxes():
    rng = random.Random(17)
    box = 4
    for _ in range(250):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        sol = solve_linear(a, b)
        brute = _brute_solutions(a, b, -box, box)
        if sol.status == "empty":
            assert brute == set()
            continue
        # every brute-force point lies in particular + lattice(basis)
        for pt in brute:
            diff = [p - q for p, q in zip(pt, sol.particular)]
            assert lattice_contains(sol.basis, diff)
        # spanned points replay into the box set
        spanned = set()
        for cs in itertools.product(range(-3, 4), repeat=len(sol.basis)):
            pt = list(sol.particular)
            for c, vec in zip(cs, sol.basis):
                for j in range(n):
                    pt[j] += c * vec[j]
            if all(-box <= v <= box for v in pt):
                spanned.add(tuple(pt))
                assert all(
                    sum(r[j] * pt[j] for j in range(n)) == bv
                    for r, bv in zip(a, b)
                )
        assert spanned <= brute


def test_solve_linear_empty_rows_keeps_all_variables_free():
    sol = solve_linear([], [])
    assert sol.status == "ok"


def test_affine_form_basics():
    f = AffineForm.constant(3) - AffineForm.var("x") + AffineForm.var("x2")
    sol = solve_linear([[1]], [2])  # x = 2
    rewritten, params, sub = apply_solution(sol, ["x"], [f], "p_")
    assert params == []
    (g,) = rewritten
    assert g.coef("x") == 0
    assert g.const == 1
    assert g.coef("x2") == 1


def test_apply_solution_identity_keeps_forms():
    f = AffineForm.var("x") + AffineForm.var("y")
    sol = solve_linear([[0, 0]], [0])
    rewritten, params, _ = apply_solution(sol, ["x", "y"], [f], "p_")
    assert len(params) == 2
    (g,) = rewritten
    # same coefficient pattern, just renamed onto the free parameters
    assert sorted(g.coef(p) for p in params) == [1, 1]
    assert g.const == 0


def test_apply_solution_parametric_substitution():
    # y free, x = 3 - 2y: substituting into x + y leaves 3 - t
    sol = solve_linear([[1, 2]], [3])
    f = AffineForm.var("x") + AffineForm.var("y")
    rewritten, params, _ = apply_solution(sol, ["x", "y"], [f], "p_")
    assert len(params) == 1
    (g,) = rewritten
    t = params[0]
    vals = [g.evaluate({t: v}) for v in range(-3, 4)]
    expect = []
    for v in range(-3, 4):
        y = sol.particular[1] + v * sol.basis[0][1]
        x = sol.particular[0] + v * sol.basis[0][0]
        expect.append(x + y)
    assert vals == expect


def test_affine_form_render_and_substitute():
    f = AffineForm.var("x").scale(3) + AffineForm.constant(-1)
    g = f.substitute({"x": AffineForm.var("y") + AffineForm.constant(2)})
    assert g.evaluate({"y": 0}) == 5
    assert "y" in g.render()


def test_row_hnf_membership():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        vecs = [
            [rng.randint(-6, 6) for _ in range(n)]
            for _ in range(rng.randint(0, 4))
        ]
        basis = row_hnf(vecs, n)
        for v in vecs:
            assert lattice_contains(basis, v)
        # random lattice combinations stay inside
        comb = [0] * n
        for v in vecs:
            c = rng.randint(-3, 3)
            for j in range(n):
                comb[j] += c * v[j]
        assert lattice_contains(basis, comb)


def test_mat_vec_agrees_with_mat_mul():
    rng = random.Random(31)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-9, 9) for _ in range(n)]
        col = [[v] for v in x]
        assert [[v] for v in mat_vec(a, x)] == mat_mul(a, col)


def _rand_system(rng):
    """A random system A x = b of one of the shapes the solver must keep:
    +-1 entries, non-unit pivots (every entry a multiple of 2, 3 or 6, or one
    large entry), zero columns, repeated rows, rows repeated with another
    right-hand side (inconsistent), and m < n, m = n or m > n."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    kind = rng.choice(["unit", "small", "wide", "multiple"])
    if kind == "unit":
        a = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(m)]
    elif kind == "small":
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    elif kind == "wide":
        a = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(m)]
    else:
        g = rng.choice((2, 3, 6))
        a = [[g * rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            a[rng.randrange(m)][rng.randrange(n)] += rng.choice((-1, 1)) * g * 7 + 1
    if rng.random() < 0.25:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    b = [rng.randint(-9, 9) for _ in range(m)]
    if rng.random() < 0.3:
        b = [0] * m
    elif rng.random() < 0.4:
        # consistent right-hand side: b = A x for some x
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(a, x)
    if m >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        a[j] = a[i][:]
        b[j] = b[i] + rng.choice((0, 0, 1, 2))
    return a, b


def test_elimination_matches_reference_field_for_field():
    # the pivot rule and step order fix U, V and the diagonal, and V names the
    # parameters of every certificate: the lean elimination must give exactly
    # the dense reference's answer, not just another valid Smith form
    rng = random.Random(2021)
    seen = {"empty": 0, "non_unit": 0, "wide": 0, "tall": 0, "zero_col": 0, "repeat": 0}
    for _ in range(20000):
        a, b = _rand_system(rng)
        m, n = len(a), len(a[0])
        a0, b0 = [row[:] for row in a], b[:]
        assert smith_normal_form(a) == ref.smith_normal_form(a), a
        got = solve_linear(a, b)
        assert got == ref.solve_linear(a, b), (a, b)
        assert (a, b) == (a0, b0)
        snf = smith_normal_form(a)
        seen["empty"] += got.status == "empty"
        seen["non_unit"] += any(d > 1 for d in snf.diag)
        seen["wide"] += m < n
        seen["tall"] += m > n
        seen["zero_col"] += any(not any(row[j] for row in a) for j in range(n))
        seen["repeat"] += len({tuple(row) for row in a}) < m
    for m, n in [(0, 0), (1, 0), (2, 0)]:
        a = [[] for _ in range(m)]
        assert smith_normal_form(a) == ref.smith_normal_form(a)
        for b in ([0] * m, [3] * m):
            assert solve_linear(a, b) == ref.solve_linear(a, b)
    assert all(v >= 1000 for v in seen.values()), seen
