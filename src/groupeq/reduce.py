"""Rewriting word equations into exponential-linear component systems.

A BS(1,k) equation in variables X_1..X_n becomes one equation over the
atomic Z[1/k] unknowns U_i (the first coordinates) whose coefficients are
signed sums of k-power monomials with affine exponents in the second
coordinates r_i, plus one linear equation over the r_i.

A wreath equation splits per coefficient component of A into polynomial
equations over the lamp-polynomial unknowns f_i, with coefficients that are
signed sums of t-power monomials with affine exponents in the shift
variables x_i and the support offsets y_i, plus one shared linear equation
over the x_i.

Both reductions read each equation once, as the letter runs of lhs rhs^-1,
with a running prefix: the affine form of the shift (b- or t-exponent) so
far.  A generator run a^m is one term with coefficient m and a run t^m or
b^m one shift of the prefix, so the cost does not grow with m; only an
unknown's run X^e gives e terms, one per unit letter.  ``ExpSum.make``
merges equal exponent forms, so the rows are those of the unit letters.

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
from .groups import GroupSpec, lamp_index
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

    def scale(self, s: int) -> "ExpSum":
        return ExpSum.make([(f, c * s) for f, c in self.terms], self.mod)

    def substitute(self, env: dict[str, AffineForm]) -> "ExpSum":
        return ExpSum.make([(f.substitute(env), c) for f, c in self.terms], self.mod)

    def single(self) -> tuple[AffineForm, int] | None:
        return self.terms[0] if len(self.terms) == 1 else None

    def variables(self) -> set[str]:
        out: set[str] = set()
        for f, _ in self.terms:
            out.update(f.variables())
        return out

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


class ExpLinSystem(NamedTuple):
    """Reduced form of a BS system: exponential rows plus linear forms."""

    k: int
    rows: list[Row]
    linear: list[AffineForm]
    rvars: list[str]
    zvars: list[str]


class CompSystem(NamedTuple):
    component: int
    mod: int | None
    rows: list[Row]


class WreathSystem(NamedTuple):
    spec: GroupSpec
    components: list[CompSystem]
    linear: list[AffineForm]
    xvars: list[str]
    yvars: list[str]
    fvars: list[str]


def _equation_word(lhs: Word, rhs: Word) -> Word:
    """The letter runs of lhs rhs^-1: rhs reversed, its exponents negated."""
    return lhs + tuple((name, -exp) for name, exp in reversed(rhs))


def _unknown_run(prefix: AffineForm, step: AffineForm, e: int):
    """Where the |e| unit letters of X^e stand, and the prefix after them.

    step is X's shift variable.  A unit letter X stands at the prefix before
    it, a unit letter X^-1 at the prefix after it, so each of the |e| letters
    gives one term: X^e with e > 0 at prefix + j*step (j = 0..e-1), with
    e < 0 at prefix - j*step (j = 1..|e|).
    """
    at = []
    if e > 0:
        for _ in range(e):
            at.append(prefix)
            prefix = prefix + step
    else:
        for _ in range(-e):
            prefix = prefix - step
            at.append(prefix)
    return at, prefix


def rvar(x: str) -> str:
    return f"r_{x}"


def xvar(x: str) -> str:
    return f"x_{x}"


def yvar(x: str) -> str:
    return f"y_{x}"


def reduce_bs(system: EquationSystem) -> ExpLinSystem:
    """Exponential rows and linear forms of a BS(1,k) system, one pass per equation.

    The word lhs rhs^-1 is read run by run with a running prefix, the affine
    form of the b-exponent so far.  a = (1, 0) and b = (0, 1), so a run a^m
    adds the one constant term m * k^-prefix and a run b^m shifts the
    prefix by m; an unknown's run X^e adds one term per unit letter.
    """
    k = system.spec.k
    rows: list[Row] = []
    linear: list[AffineForm] = []
    for lhs, rhs in system.equations:
        prefix = AffineForm.constant(0)
        zterms: dict[str, list] = {}
        cterms: list = []
        for name, e in _equation_word(lhs, rhs):
            if name[0].isupper():
                at, prefix = _unknown_run(prefix, AffineForm.var(rvar(name)), e)
                sign = 1 if e > 0 else -1
                zterms.setdefault(name, []).extend((-f, sign) for f in at)
            elif name == "b":
                prefix = prefix.shift(e)
            else:
                cterms.append((-prefix, e))
        row = Row(
            {v: ExpSum.make(items) for v, items in zterms.items()},
            ExpSum.make(cterms),
        ).normalized()
        if row.coeffs or not row.const.is_zero():
            # variable-free identities (e.g. the defining relation) fold to 0 = 0
            vacuous = (
                not row.coeffs
                and all(f.is_const() for f, _ in row.const.terms)
                and row.const.eval_fraction(k, {}) == 0
            )
            if not vacuous:
                rows.append(row)
        if prefix.terms or prefix.const:
            linear.append(prefix)
    return ExpLinSystem(
        k=k,
        rows=rows,
        linear=linear,
        rvars=[rvar(v) for v in system.variables],
        zvars=list(system.variables),
    )


def reduce_wreath(system: EquationSystem) -> WreathSystem:
    """Per-component rows and the shared linear forms of an A wr Z system.

    The word lhs rhs^-1 is read run by run with a running prefix, the affine
    form of the t-exponent so far.  Each generator name is resolved once per
    system to the lamp component it moves (None for t): a run t^m shifts the
    prefix by m, a lamp run adds the one term m * t^prefix to its component,
    and an unknown's run X^e adds one term per unit letter.
    """
    spec = system.spec
    lamps = {name: lamp_index(spec, name) for name in spec.generator_names()}
    shared_linear: list[AffineForm] = []
    # per equation: unknown terms, and constant terms (form, component, coef)
    raw: list[tuple[dict[str, list], list]] = []
    for lhs, rhs in system.equations:
        prefix = AffineForm.constant(0)
        fterms: dict[str, list] = {}
        cterms: list = []
        for name, e in _equation_word(lhs, rhs):
            if name[0].isupper():
                at, prefix = _unknown_run(prefix, AffineForm.var(xvar(name)), e)
                sign = 1 if e > 0 else -1
                neg_yv = AffineForm.var(yvar(name), -1)
                fterms.setdefault(name, []).extend((f + neg_yv, sign) for f in at)
            else:
                comp = lamps[name]
                if comp is None:
                    prefix = prefix.shift(e)
                else:
                    cterms.append((prefix, comp, e))
        raw.append((fterms, cterms))
        if prefix.terms or prefix.const:
            shared_linear.append(prefix)

    components: list[CompSystem] = []
    for comp in range(spec.n_components):
        mod = spec.component_modulus(comp)
        rows = []
        for fterms, cterms in raw:
            row = Row(
                {v: ExpSum.make(items, mod) for v, items in fterms.items()},
                ExpSum.make([(f, e) for f, c, e in cterms if c == comp], mod),
            ).normalized()
            if row.coeffs or not row.const.is_zero():
                rows.append(row)
        components.append(CompSystem(component=comp, mod=mod, rows=rows))
    return WreathSystem(
        spec=spec,
        components=components,
        linear=shared_linear,
        xvars=[xvar(v) for v in system.variables],
        yvars=[yvar(v) for v in system.variables],
        fvars=list(system.variables),
    )


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


def triangularize(rows: list[Row], mod: int | None, branch_cap: int = 512) -> list[TriBranch]:
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
