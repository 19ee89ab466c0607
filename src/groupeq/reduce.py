"""Rewriting word equations into exponential-linear component systems.

Both families reduce to one ``ReducedSystem`` (``reduce_system`` picks the
reducer): rows per coefficient component, linear forms in the exponent
variables, and those variables.

Both groups are lamps under a shift, and one reader (``_read``) rewrites
both: BS(1,k) is read as Z wr Z with t = k^-1.  An A wr Z equation splits
per coefficient component of A into rows over the lamp-polynomial unknowns
f_i, with coefficients that are signed sums of t-power monomials with affine
exponents in the shift variables x_i and the support offsets y_i, plus one
shared linear form over the x_i.  Its exponent variables are the x_i, then
the y_i.  A BS(1,k) equation is one row of the one component -1 over the
atomic Z[1/k] unknowns U_i, with k-power monomials whose affine exponents
are in the second coordinates r_i (b is the shift, a the one lamp, and
there is no support offset), plus one linear form over the r_i.

The reader reads each equation once, as the letter runs of lhs rhs^-1,
with a running prefix: the affine form of the shift so far, negated for
BS(1,k), where the rows' base k is the shift's inverse.  A lamp run a^m is
one term with coefficient m and a shift run t^m or b^m one shift of the
prefix, so the cost does not grow with m; only an unknown's run X^e gives
e terms, one per unit letter.  ``ExpSum.make`` merges equal exponent forms,
so the rows are those of the unit letters.

The triangularization lives here too; the downstream search procedures
consume the branches this module produces.  It keeps one branch per
structure: two branches whose pivots, residuals and side assumptions agree
as multisets (the path aside) are one branch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .frontend import EquationSystem, Word
from .groups import lamp_index
from .intlinalg import AffineForm


# ---------------------------------------------------------------------------
# Signed sums of monomials  coef * base^form


class ExpSum(NamedTuple):
    """Finite sum of coef * base^(affine form), coefficients in Z or Z_mod.

    The base (k for BS, t for wreath) is supplied by the consumer; this class
    only does the symbolic bookkeeping, merging terms with syntactically equal
    exponent forms.
    """

    terms: tuple[tuple[AffineForm, int], ...]
    mod: int | None = None

    @staticmethod
    def make(items, mod: int | None = None) -> "ExpSum":
        acc: dict[AffineForm, int] = {}
        for form, coef in items:
            if mod is not None:
                coef %= mod
            if coef:
                cur = acc.get(form, 0) + coef
                if mod is not None:
                    cur %= mod
                if cur:
                    acc[form] = cur
                else:
                    acc.pop(form, None)
        return ExpSum(tuple(sorted(acc.items())), mod)

    @staticmethod
    def zero(mod: int | None = None) -> "ExpSum":
        return ExpSum((), mod)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum.make(self.terms + other.terms, self.mod)

    def __neg__(self) -> "ExpSum":
        return ExpSum.make([(f, -c) for f, c in self.terms], self.mod)

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + (-other)

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        # every ExpSum comes from make, so a product with 1 is the other factor
        if other.terms == _ONE:
            return self
        if self.terms == _ONE and other.mod == self.mod:
            return other
        items = []
        for f1, c1 in self.terms:
            for f2, c2 in other.terms:
                items.append((f1 + f2, c1 * c2))
        return ExpSum.make(items, self.mod)

    def substitute(self, env: dict[str, AffineForm]) -> "ExpSum":
        return ExpSum.make([(f.substitute(env), c) for f, c in self.terms], self.mod)

    def single(self) -> tuple[AffineForm, int] | None:
        return self.terms[0] if len(self.terms) == 1 else None

    def eval_fraction(self, k: int, env: dict[str, int]) -> Fraction:
        total = Fraction(0)
        for f, c in self.terms:
            total += c * Fraction(k) ** f.evaluate(env)
        return total

    def eval_laurent(self, env: dict[str, int]) -> dict[int, int]:
        """Concrete Laurent polynomial (degree -> coefficient) at integer env."""
        out: dict[int, int] = {}
        for f, c in self.terms:
            d = f.evaluate(env)
            v = out.get(d, 0) + c
            if self.mod is not None:
                v %= self.mod
            if v:
                out[d] = v
            else:
                out.pop(d, None)
        return out

    def render(self, base: str) -> str:
        if not self.terms:
            return "0"
        parts = []
        for f, c in self.terms:
            if f == AffineForm.constant(0):
                parts.append(f"{c:+d}")
            else:
                parts.append(f"{c:+d}*{base}^({f.render()})")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


_ONE = ((AffineForm.constant(0), 1),)  # the terms of the ExpSum 1


# ---------------------------------------------------------------------------
# Component systems


class Row(NamedTuple):
    """One equation  sum_u coeffs[u] * u  +  const  =  0."""

    coeffs: dict[str, ExpSum]
    const: ExpSum

    def normalized(self) -> "Row":
        """This row without zero coefficients; the row itself if it has none."""
        if all(s.terms for s in self.coeffs.values()):
            return self
        return Row({u: s for u, s in self.coeffs.items() if s.terms}, self.const)

    def substitute(self, env: dict[str, AffineForm]) -> "Row":
        return Row(
            {u: s.substitute(env) for u, s in self.coeffs.items()},
            self.const.substitute(env),
        ).normalized()

    def eliminate(self, u: str, pivot: "Row") -> "Row":
        """pivot[u] * self - self[u] * pivot, a row without the unknown u.

        Its u column, pivot[u] * self[u] - self[u] * pivot[u], is zero, so it
        is not computed.
        """
        a, b = pivot.coeffs[u], self.coeffs[u]
        out: dict[str, ExpSum] = {v: c * a for v, c in self.coeffs.items() if v != u}
        for v, c in pivot.coeffs.items():
            if v != u:
                cur = out.get(v)
                prod = c * b
                out[v] = (cur - prod) if cur is not None else -prod
        return Row(out, self.const * a - pivot.const * b).normalized()

    def render(self, base: str) -> str:
        parts = [f"({s.render(base)})*{u}" for u, s in sorted(self.coeffs.items())]
        parts.append(self.const.render(base))
        return " + ".join(parts) + " = 0"


class CompSystem(NamedTuple):
    """The rows of one coefficient component: -1 for BS(1,k), whose ring is
    Z[1/k]; a lamp component's index and modulus (None: Z) for A wr Z."""

    component: int
    mod: int | None
    rows: list[Row]


class ReducedSystem(NamedTuple):
    """Reduced form of a system: component rows, linear forms, exponent variables."""

    components: list[CompSystem]
    linear: list[AffineForm]
    evars: list[str]


def _equation_word(lhs: Word, rhs: Word) -> Word:
    """The letter runs of lhs rhs^-1: rhs reversed, its exponents negated."""
    return lhs + tuple((name, -exp) for name, exp in reversed(rhs))


def rvar(x: str) -> str:
    return f"r_{x}"


def xvar(x: str) -> str:
    return f"x_{x}"


def yvar(x: str) -> str:
    return f"y_{x}"


def reduce_system(system: EquationSystem) -> ReducedSystem:
    """The reduced form of a system, by its family's reducer.  The reducer
    is looked up in this module at each call, so a tracer that wraps
    ``reduce_bs`` or ``reduce_wreath`` here sees every reduction."""
    if system.spec.kind == "bs":
        return reduce_bs(system)
    return reduce_wreath(system)


def _read(system: EquationSystem, lamps: dict, t: int, svar, offset, rings):
    """The rows of every component and the linear forms of a system, one
    pass per equation over the letter runs of lhs rhs^-1.

    ``lamps`` maps each generator to the lamp component it moves, or None
    for the shift letter.  The running prefix is the exponent of the rows'
    base so far: a shift run s^m moves it by t * m, where t is 1 if the base
    is the shift and -1 if it is the shift's inverse.  A lamp run a^m adds
    the one constant term m * base^prefix to its component.  A unit letter
    X moves the prefix by step = t * ``svar(X)``, and a run X^e adds one
    term sign(e) * base^(pos - offset(X)) per unit letter, at the prefix
    before each letter X and after each letter X^-1: the positions are
    lo, lo + step, ..., where lo is the prefix before the run if e > 0 and
    after it if e < 0.  ``offset`` None means no support offset.  ``rings``
    lists the components as (index, modulus); a row that reads 0 = 0 is
    dropped.
    """
    raw, linear = [], []
    for lhs, rhs in system.equations:
        prefix = AffineForm.constant(0)
        fterms: dict[str, list] = {}
        cterms: list = []
        for name, e in _equation_word(lhs, rhs):
            if name[0].isupper():
                sign = 1 if e > 0 else -1
                end = prefix + AffineForm.var(svar(name), t * e)
                pos = prefix if e > 0 else end
                if offset is not None:
                    pos = pos + AffineForm.var(offset(name), -1)
                terms = fterms.setdefault(name, [])
                terms.append((pos, sign))
                if abs(e) > 1:
                    step = AffineForm.var(svar(name), t)
                    for _ in range(abs(e) - 1):
                        pos = pos + step
                        terms.append((pos, sign))
                prefix = end
            else:
                comp = lamps[name]
                if comp is None:
                    prefix = prefix.shift(t * e)
                else:
                    cterms.append((prefix, comp, e))
        raw.append((fterms, cterms))
        if prefix.terms or prefix.const:
            linear.append(prefix if t == 1 else -prefix)

    components: list[CompSystem] = []
    for comp, mod in rings:
        rows = []
        for fterms, cterms in raw:
            row = Row(
                {v: ExpSum.make(items, mod) for v, items in fterms.items()},
                ExpSum.make([(f, e) for f, c, e in cterms if c == comp], mod),
            ).normalized()
            if row.coeffs or not row.const.is_zero():
                rows.append(row)
        components.append(CompSystem(comp, mod, rows))
    return components, linear


def reduce_bs(system: EquationSystem) -> ReducedSystem:
    """A BS(1,k) system read as one over Z wr Z with t = k^-1.

    b is the shift and a the one lamp, component -1 over Z[1/k]; an unknown
    X = (U_X, r_X) has the shift variable r_X and no support offset.  The
    rows' base is k, so the prefix is the negated b-exponent, and the linear
    forms are the b-exponents.  Rows without unknowns that vanish in
    Z[1/k], such as the defining relation, are dropped too.
    """
    k = system.spec.k
    (comp,), linear = _read(system, {"a": -1, "b": None}, -1, rvar, None, [(-1, None)])
    rows = [
        row for row in comp.rows
        if row.coeffs
        or not all(f.is_const() for f, _ in row.const.terms)
        or row.const.eval_fraction(k, {}) != 0
    ]
    return ReducedSystem(
        [CompSystem(-1, None, rows)], linear, [rvar(v) for v in system.variables]
    )


def reduce_wreath(system: EquationSystem) -> ReducedSystem:
    """Per-component rows and the shared linear forms of an A wr Z system:
    t is the shift and the rows' base, each other generator a lamp of its
    component, and an unknown X has the shift variable x_X and the support
    offset y_X (its lamps are t^-y_X f_X)."""
    spec = system.spec
    lamps = {name: lamp_index(spec, name) for name in spec.generator_names()}
    rings = [(c, spec.component_modulus(c)) for c in range(spec.n_components)]
    components, linear = _read(system, lamps, 1, xvar, yvar, rings)
    evars = [xvar(v) for v in system.variables] + [yvar(v) for v in system.variables]
    return ReducedSystem(components, linear, evars)


# ---------------------------------------------------------------------------
# Triangularization with zero/nonzero case splits


class TriBranch(NamedTuple):
    """One branch of the case analysis over a component system.

    pivots is triangular: pivot s references only unknowns appearing later.
    residuals are unknown-free exponential sums required to vanish.
    side holds coefficient sums this branch assumes nonzero (bookkeeping;
    never used to justify an unsat verdict).
    """

    pivots: list[tuple[str, Row]]
    residuals: list[ExpSum]
    side: list[ExpSum]
    path: str

    def render(self, base: str) -> str:
        lines = [f"branch {self.path}"]
        for u, row in self.pivots:
            lines.append(f"  pivot {u}: {row.render(base)}")
        for r in self.residuals:
            lines.append(f"  residual: {r.render(base)} = 0")
        for s in self.side:
            lines.append(f"  assume nonzero: {s.render(base)}")
        return "\n".join(lines)


def _is_unit(coef: int, mod: int | None) -> bool:
    if mod is None:
        return coef in (1, -1)
    return math.gcd(coef, mod) == 1


def _pivot_score(s: ExpSum, mod: int | None) -> tuple[int, int]:
    one = s.single()
    if one is not None:
        return (0 if _is_unit(one[1], mod) else 1, 1)
    return (2, len(s.terms))


def _branch_key(branch: TriBranch) -> tuple:
    """Equal for two branches exactly when their rendered lines, path aside,
    are equal as multisets: the sorted structures the lines render."""
    lines = [
        ("pivot", u, tuple(sorted((v, s.terms) for v, s in row.coeffs.items())), row.const.terms)
        for u, row in branch.pivots
    ]
    lines += [("residual", s.terms) for s in branch.residuals]
    lines += [("side", s.terms) for s in branch.side]
    return tuple(sorted(lines))


# case-split branches a build keeps before it marks its coverage incomplete;
# the rebuild that replays a certificate keeps as many
BRANCH_CAP = 400


def triangularize(rows: list[Row], mod: int | None,
                  branch_cap: int = BRANCH_CAP) -> list[TriBranch]:
    """Case-split elimination; the union of branch solution sets covers the input.

    Branches that differ only in their path are kept once, the first found.
    """
    out: list[TriBranch] = []
    _walk(rows, [], [], [], "", mod, branch_cap, out, set())
    return out


def _walk(work: list[Row], pivots, residuals, side, path: str,
          mod: int | None, branch_cap: int, out: list[TriBranch], seen: set) -> None:
    """Append the branches below one node of the case split to out, depth
    first, the zero branch before the nonzero one; seen holds the
    ``_branch_key`` of every branch in out.  A module-level function and not
    a closure, so that a call leaves no reference cycle behind."""
    if len(out) >= branch_cap:
        raise BranchOverflow()
    work = [r.normalized() for r in work]
    ready: list[Row] = []
    for r in work:
        if r.coeffs:
            ready.append(r)
        elif not r.const.is_zero():
            residuals = residuals + [r.const]
    if not ready:
        branch = TriBranch(list(pivots), residuals, side, path)
        key = _branch_key(branch)
        if key not in seen:
            seen.add(key)
            out.append(branch)
        return
    # deterministic pivot choice: safest coefficient first
    best = None
    for i, row in enumerate(ready):
        for u in sorted(row.coeffs):
            score = _pivot_score(row.coeffs[u], mod) + (u, i)
            if best is None or score < best[0]:
                best = (score, i, u)
    _, i, u = best
    prow = ready[i]
    coef = prow.coeffs[u]
    rest = ready[:i] + ready[i + 1 :]
    if coef.single() is None:
        # zero branch: this coefficient sum vanishes
        zrow = Row({v: s for v, s in prow.coeffs.items() if v != u}, prow.const)
        _walk(rest + [zrow], pivots, residuals + [coef], side, path + "z",
              mod, branch_cap, out, seen)
        side = side + [coef]
        path = path + "n"
    eliminated = [row.eliminate(u, prow) if u in row.coeffs else row for row in rest]
    _walk(eliminated, pivots + [(u, prow)], residuals, side, path + ".",
          mod, branch_cap, out, seen)


class BranchOverflow(Exception):
    """Raised when the case-split tree exceeds its cap; caller degrades to Unknown."""
