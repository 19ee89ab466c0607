"""Reference models the tests check the package against.

No solver, CLI or benchmark code needs these, so they live with the tests:
plain matrix products and determinants for the Smith normal form, and exact
evaluation of a reduced system at a group assignment, which must agree with
re-multiplying the equations.
"""

from groupeq.reduce import rvar, xvar, yvar


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


def eval_bs_system(sys2, assignment: dict) -> bool:
    """Does a group assignment satisfy the reduced BS(1,k) system?  Exact."""
    renv = {rvar(v): g.r for v, g in assignment.items()}
    for form in sys2.linear:
        if form.evaluate(renv) != 0:
            return False
    for row in sys2.rows:
        total = row.const.eval_fraction(sys2.k, renv)
        for v, s in row.coeffs.items():
            total += s.eval_fraction(sys2.k, renv) * assignment[v].u.as_fraction()
        if total != 0:
            return False
    return True


def eval_wreath_system(wsys, assignment: dict) -> bool:
    """Does a group assignment satisfy the reduced wreath system?  Exact."""
    spec = wsys.spec
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
