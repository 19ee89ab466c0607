"""Reference models the tests check the package against.

No solver, CLI or benchmark code needs these, so they live with the tests:
plain matrix products and determinants for the Smith normal form, the dense
Smith normal form and Z-linear solver that ``groupeq.intlinalg``'s single
elimination must reproduce field for field, and exact evaluation of a reduced
system at a group assignment, which must agree with re-multiplying the
equations.
"""

from typing import Sequence

from groupeq.intlinalg import LinearSolutionSet, Matrix, SnfResult
from groupeq.reduce import rvar, xvar, yvar


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, x: Sequence[int]) -> list[int]:
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


# The dense reference for ``groupeq.intlinalg``'s single elimination: the same
# steps with U as a full m x m matrix, V by rows, and U*b formed at the end.


def smith_normal_form(a: Matrix) -> SnfResult:
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u = identity(m)
    v = identity(n)

    def row_sub(r: int, s: int, q: int) -> None:
        # row r -= q * row s
        dr, ds = d[r], d[s]
        for j in range(n):
            dr[j] -= q * ds[j]
        ur, us = u[r], u[s]
        for j in range(m):
            ur[j] -= q * us[j]

    def col_sub(c: int, s: int, q: int) -> None:
        for i in range(m):
            d[i][c] -= q * d[i][s]
        for i in range(n):
            v[i][c] -= q * v[i][s]

    t = 0
    while True:
        # smallest nonzero entry of the remaining submatrix; ties: lowest row, col
        best = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                val = di[j]
                if val and (best is None or abs(val) < abs(best[2])):
                    best = (i, j, val)
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]

        dirty = False
        for i in range(m):
            if i != t and d[i][t]:
                row_sub(i, t, d[i][t] // d[t][t])
                if d[i][t]:
                    dirty = True
        for j in range(n):
            if j != t and d[t][j]:
                col_sub(j, t, d[t][j] // d[t][t])
                if d[t][j]:
                    dirty = True
        if dirty:
            continue

        piv = d[t][t]
        offender = None
        for i in range(t + 1, m):
            di = d[i]
            for j in range(t + 1, n):
                if di[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # pull the offending row in so the pivot shrinks to a divisor
            row_sub(t, offender, -1)
            continue

        if piv < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    diag = [d[i][i] for i in range(min(m, n))]
    while diag and diag[-1] == 0:
        diag.pop()
    return SnfResult(u=u, v=v, diag=diag, rows=m, cols=n)


def solve_linear(a: Matrix, b: Sequence[int]) -> LinearSolutionSet:
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return LinearSolutionSet(status="ok", nvars=n, particular=(0,) * n,
                                 basis=tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
    snf = smith_normal_form(a)
    c = mat_vec(snf.u, list(b))
    r = len(snf.diag)
    y = [0] * n
    for i in range(r):
        di = snf.diag[i]
        if c[i] % di:
            return LinearSolutionSet(status="empty", nvars=n, cert_row=(i, di, c[i]))
        y[i] = c[i] // di
    for i in range(r, m):
        if c[i]:
            return LinearSolutionSet(status="empty", nvars=n, cert_row=(i, 0, c[i]))
    particular = tuple(mat_vec(snf.v, y))
    basis = tuple(tuple(snf.v[i][j] for i in range(n)) for j in range(r, n))
    return LinearSolutionSet(status="ok", nvars=n, particular=particular, basis=basis)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for kk in range(inner):
            v = a[i][kk]
            if v:
                for j in range(cols):
                    out[i][j] += v * b[kk][j]
    return out


def det(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def d_matrix(res):
    """The diagonal matrix D of a Smith normal form U * A * V = D."""
    out = [[0] * res.cols for _ in range(res.rows)]
    for i, d in enumerate(res.diag):
        out[i][i] = d
    return out


def wreath_coords(elem, n_components: int):
    """Split a wreath element into (f per component, y, x) coordinates."""
    poly, x = elem.poly, elem.shift
    degs = poly.support()
    y = max(0, -min(degs)) if degs else 0
    comps = []
    for c in range(n_components):
        d = poly.component_dict(c)
        comps.append({deg + y: v for deg, v in d.items()})
    return comps, y, x


def eval_bs_system(spec, red, assignment: dict) -> bool:
    """Does a group assignment satisfy the reduced BS(1,k) system?  Exact."""
    renv = {rvar(v): g.r for v, g in assignment.items()}
    for form in red.linear:
        if form.evaluate(renv) != 0:
            return False
    (comp,) = red.components
    for row in comp.rows:
        total = row.const.eval_fraction(spec.k, renv)
        for v, s in row.coeffs.items():
            total += s.eval_fraction(spec.k, renv) * assignment[v].u.as_fraction()
        if total != 0:
            return False
    return True


def eval_wreath_system(spec, wsys, assignment: dict) -> bool:
    """Does a group assignment satisfy the reduced wreath system?  Exact."""
    env: dict[str, int] = {}
    fcomp: dict[str, list[dict[int, int]]] = {}
    for v, g in assignment.items():
        comps, y, x = wreath_coords(g, spec.n_components)
        env[xvar(v)] = x
        env[yvar(v)] = y
        fcomp[v] = comps
    for form in wsys.linear:
        if form.evaluate(env) != 0:
            return False
    for comp in wsys.components:
        for row in comp.rows:
            acc: dict[int, int] = {}

            def bump(d: int, v: int) -> None:
                w = acc.get(d, 0) + v
                if comp.mod is not None:
                    w %= comp.mod
                if w:
                    acc[d] = w
                else:
                    acc.pop(d, None)

            for d, v in row.const.eval_laurent(env).items():
                bump(d, v)
            for var, s in row.coeffs.items():
                coefpoly = s.eval_laurent(env)
                fpoly = fcomp[var][comp.component]
                for d1, v1 in coefpoly.items():
                    for d2, v2 in fpoly.items():
                        bump(d1 + d2, v1 * v2)
            if acc:
                return False
    return True
