"""Integer linear algebra: Smith normal form, Z-linear systems, affine forms.

All arithmetic is plain Python integers (unbounded).  Fixed-width arithmetic
is unsound here: unimodular transforms can blow entries up well past 2^63
even for small inputs, so numpy is deliberately not used in this module.

The Smith form's pivot rule and step order (``_eliminate``) are part of the
certificate contract, not only of its speed.  V's columns name the free
parameters of every solved system, and through them the branch parameters,
the lift grids and the certificate rows that ``decide.verify_certificate``
renders again.  Another pivot rule or step order gives another, equally
valid, V, so changing either needs a ``decide.CERT_VERSION`` bump.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Smith normal form


class SnfResult(NamedTuple):
    """U * A * V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..., d_i >= 0."""

    u: Matrix
    v: Matrix
    diag: list[int]
    rows: int
    cols: int


def _eliminate(d: Matrix, n: int) -> tuple[Matrix, int]:
    """Bring the first n columns of the rows d to Smith form, in place.

    Each row may carry entries past column n; every row operation applies to
    them too, and nothing else reads them (identity rows give U, a right-hand
    side gives U*b).  Returns V by columns and the rank r, so that d[i][i] for
    i < r is the diagonal.  The pivot rule and the step order below fix V and
    so belong to the certificate contract (module docstring).

    The steps, each repeated until a pass leaves nothing to do: the pivot is
    the nonzero entry of smallest absolute value in the remaining submatrix,
    ties to the lowest row and then the lowest column; it is swapped to (t, t);
    every other row, then every other column, is reduced by it; if a
    remainder is left, a new pivot is chosen; otherwise, if some entry of the
    remaining submatrix is not a multiple of the pivot, the first row holding
    one is added to the pivot row and a new pivot is chosen; otherwise the
    pivot row is negated when the pivot is negative.  The column of a pivot
    and the row of an earlier pivot hold zeros outside the diagonal, so the
    reductions start at t + 1.
    """
    m = len(d)
    vcols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    t = 0
    while t < m and t < n:
        best, bi, bj = 0, t, t
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                val = di[j]
                if val and (not best or abs(val) < best):
                    best, bi, bj = abs(val), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
            vcols[t], vcols[bj] = vcols[bj], vcols[t]

        dt = d[t]
        piv = dt[t]
        dirty = False
        for i in range(t + 1, m):
            q = d[i][t] // piv
            if q:
                d[i] = di = [x - q * y for x, y in zip(d[i], dt)]
                if di[t]:
                    dirty = True
        vt = vcols[t]
        for j in range(t + 1, n):
            q = dt[j] // piv
            if q:
                for row in d:
                    y = row[t]
                    if y:
                        row[j] -= q * y
                vcols[j] = [x - q * y for x, y in zip(vcols[j], vt)]
                if dt[j]:
                    dirty = True
        if dirty:
            continue

        if best != 1:
            offender = next(
                (d[i] for i in range(t + 1, m) if any(x % piv for x in d[i][t + 1 : n])),
                None,
            )
            if offender is not None:
                # pull the offending row in so the pivot shrinks to a divisor
                d[t] = [x + y for x, y in zip(dt, offender)]
                continue

        if piv < 0:
            d[t] = [-x for x in dt]
        t += 1
    return vcols, t


def smith_normal_form(a: Matrix) -> SnfResult:
    """U, V and the diagonal of A's Smith form, by ``_eliminate``'s steps
    (whose pivot rule and order fix V; see the module docstring)."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:n] + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    vcols, r = _eliminate(d, n)
    return SnfResult(
        u=[row[n:] for row in d],
        v=[list(row) for row in zip(*vcols)],
        diag=[d[i][i] for i in range(r)],
        rows=m,
        cols=n,
    )


# ---------------------------------------------------------------------------
# Linear systems A x = b over Z


class LinearSolutionSet(NamedTuple):
    """Solution set of an integer linear system.

    status is "ok" or "empty".  When "ok", the set is
    particular + integer span of basis.  When "empty", cert_row holds
    (row index, d, c) for a diagonalized row d*x = c with d not dividing c
    (d == 0 and c != 0 covers the degenerate case).
    """

    status: str
    nvars: int
    particular: tuple[int, ...] | None = None
    basis: tuple[tuple[int, ...], ...] = ()
    cert_row: tuple[int, int, int] | None = None

    def canonical(self) -> tuple:
        """Canonical key: HNF of the basis lattice plus reduced particular."""
        if self.status == "empty":
            return ("empty",)
        hnf = row_hnf(self.basis, self.nvars)
        part = list(self.particular)
        for row in hnf:
            c = next(j for j in range(self.nvars) if row[j])
            q = part[c] // row[c]
            if q:
                for j in range(self.nvars):
                    part[j] -= q * row[j]
        return ("ok", tuple(part), tuple(tuple(r) for r in hnf))


def solve_linear(a: Matrix, b: Sequence[int]) -> LinearSolutionSet:
    """Solve A x = b through the Smith form U A V = D: with c = U b, D y = c
    is solved row by row and x = V y.  The free parameters are the last n - r
    coordinates of y, so the basis is V's last n - r columns."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return LinearSolutionSet(status="ok", nvars=n, particular=(0,) * n,
                                 basis=tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
    d = [row[:n] + [bi] for row, bi in zip(a, b)]
    vcols, r = _eliminate(d, n)
    particular = [0] * n
    for i in range(r):
        di, ci = d[i][i], d[i][n]
        if ci % di:
            return LinearSolutionSet(status="empty", nvars=n, cert_row=(i, di, ci))
        y = ci // di
        if y:
            particular = [p + y * v for p, v in zip(particular, vcols[i])]
    for i in range(r, m):
        if d[i][n]:
            return LinearSolutionSet(status="empty", nvars=n, cert_row=(i, 0, d[i][n]))
    basis = tuple(tuple(vcols[j]) for j in range(r, n))
    return LinearSolutionSet(status="ok", nvars=n, particular=tuple(particular), basis=basis)


def row_hnf(vecs: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by vecs (canonical basis)."""
    mat = [list(v) for v in vecs if any(v)]
    row = 0
    for col in range(n):
        sel = None
        for i in range(row, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        for i in range(row + 1, len(mat)):
            while mat[i][col]:
                q = mat[row][col] // mat[i][col]
                for j in range(n):
                    mat[row][j] -= q * mat[i][j]
                mat[row], mat[i] = mat[i], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-x for x in mat[row]]
        for i in range(row):
            q = mat[i][col] // mat[row][col]
            if q:
                for j in range(n):
                    mat[i][j] -= q * mat[row][j]
        row += 1
    return [r for r in mat[:row]]


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Is vec in the integer span of basis?"""
    n = len(vec)
    if not any(vec):
        return True
    if not basis:
        return False
    a = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
    return solve_linear(a, list(vec)).status == "ok"


# ---------------------------------------------------------------------------
# Affine forms over named integer variables


class AffineForm(NamedTuple):
    """Sum of coef * var plus a constant, with a canonical sorted term tuple."""

    terms: tuple[tuple[str, int], ...]
    const: int

    @staticmethod
    def make(terms: dict[str, int] | Sequence[tuple[str, int]], const: int = 0) -> "AffineForm":
        acc: dict[str, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for v, c in items:
            if c:
                acc[v] = acc.get(v, 0) + c
                if not acc[v]:
                    del acc[v]
        return AffineForm(tuple(sorted(acc.items())), const)

    @staticmethod
    def constant(c: int) -> "AffineForm":
        return AffineForm((), c)

    @staticmethod
    def var(name: str, coef: int = 1) -> "AffineForm":
        if coef == 0:
            return AffineForm((), 0)
        return AffineForm(((name, coef),), 0)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm.make(self.terms + other.terms, self.const + other.const)

    def __neg__(self) -> "AffineForm":
        return AffineForm(tuple((v, -c) for v, c in self.terms), -self.const)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def scale(self, s: int) -> "AffineForm":
        if s == 0:
            return AffineForm((), 0)
        return AffineForm(tuple((v, c * s) for v, c in self.terms), self.const * s)

    def shift(self, c: int) -> "AffineForm":
        return AffineForm(self.terms, self.const + c)

    def is_const(self) -> bool:
        return not self.terms

    def coef(self, var: str) -> int:
        for v, c in self.terms:
            if v == var:
                return c
        return 0

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def evaluate(self, env: dict[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.terms)

    def substitute(self, env: dict[str, "AffineForm"]) -> "AffineForm":
        """Each variable in env replaced by its form, summed in one pass."""
        acc: dict[str, int] = {}
        const = self.const
        for v, c in self.terms:
            form = env.get(v)
            if form is None:
                acc[v] = acc.get(v, 0) + c
                continue
            const += c * form.const
            for w, d in form.terms:
                acc[w] = acc.get(w, 0) + c * d
        return AffineForm.make(acc, const)

    def render(self) -> str:
        parts = []
        for v, c in self.terms:
            if c == 1:
                parts.append(f"+{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c:+d}*{v}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def apply_solution(
    sol: LinearSolutionSet,
    var_names: Sequence[str],
    forms: Sequence[AffineForm],
    param_prefix: str,
) -> tuple[list[AffineForm], list[str], dict[str, AffineForm]]:
    """Rewrite forms over the free parameters of a solved linear system.

    Returns (rewritten forms, parameter names, substitution map var -> form).
    """
    if sol.status != "ok":
        raise ValueError("cannot apply an empty solution set")
    params = [f"{param_prefix}{j}" for j in range(len(sol.basis))]
    sub: dict[str, AffineForm] = {}
    for i, name in enumerate(var_names):
        form = AffineForm.constant(sol.particular[i])
        for j, bj in enumerate(sol.basis):
            if bj[i]:
                form = form + AffineForm.var(params[j], bj[i])
        sub[name] = form
    return [f.substitute(sub) for f in forms], params, sub
