"""Exact solvers for exponential constraint systems.

Two engines, both returning the solution set as a finite union of integer
linear systems over the input variables (each system is a list of affine
forms required to vanish):

* ``semenov_solve`` handles sums of signed k-powers with affine exponents,
  equal to zero over the integers, by sign splitting, clearing, and an
  elimination over the distinct exponent sums that branches on a complete
  cover: atoms at most the k-adic valuation of a nonzero constant, or pairs
  of atoms within ``delta_bound`` of each other when the constant is zero.
  Repeated disjuncts are dropped as they arise, before ``dedup_systems``.
* ``grouping_solve`` handles sums of ring coefficients times t-powers with
  affine exponents over Z or Z_n, by enumerating zero-sum partitions of the
  terms of each equation.

Both are exact: the union of the emitted systems' integer solution sets
equals the solution set of the input.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .intlinalg import AffineForm, lattice_contains, solve_linear


Term = tuple[int, AffineForm]


class SemenovSystem(namedtuple("SemenovSystem", "equations k")):
    """Conjunction of equations sum_j beta_j * k^(form_j) + C = 0.

    Every variable ranges over Z.  The base k must be at least 2: for k = 1
    every power is 1 and the elimination bound ``delta_bound`` does not
    exist.
    """

    __slots__ = ()

    def __new__(cls, equations: tuple[tuple[tuple[Term, ...], int], ...], k: int):
        if k < 2:
            raise ValueError(f"SemenovSystem needs base k >= 2, got {k}")
        return super().__new__(cls, equations, k)

    @staticmethod
    def make(equations, k: int) -> "SemenovSystem":
        eqs = tuple((tuple(terms), int(c)) for terms, c in equations)
        return SemenovSystem(eqs, k)

    def variables(self) -> list[str]:
        out: set[str] = set()
        for terms, _ in self.equations:
            for _, f in terms:
                out.update(f.variables())
        return sorted(out)


def delta_bound(betas: Sequence[int], c: int, k: int) -> int:
    """Smallest d with k^d > sum |beta_j| + |C| + 1.

    If in  sum beta_j k^(z_j) + C = 0  over nonnegative z some variable
    exceeds d and every other variable by more than d, the dominant term
    outweighs everything else, so no solution exists.
    """
    s = sum(abs(b) for b in betas) + abs(c) + 1
    d = 0
    p = 1
    while p <= s:
        p *= k
        d += 1
    return d


# ---------------------------------------------------------------------------
# Claim-level elimination: equations over nonnegative atoms z with integer
# coefficients,  sum beta * k^z + C = 0.


def _kpow_exponent(q: Fraction, k: int) -> int | None:
    """e >= 0 with q == k^e, else None."""
    if q <= 0 or q.denominator != 1:
        return None
    n = q.numerator
    e = 0
    while n % k == 0:
        n //= k
        e += 1
    return e if n == 1 else None


def _valuation(c: int, k: int) -> int:
    """Largest v with k^v dividing the nonzero integer c."""
    v = 0
    while c % k == 0:
        c //= k
        v += 1
    return v


class _Dead(Exception):
    pass


def _normalize_claim(eqs: list, parent: dict, k: int) -> list:
    """Propagate forced values until stable; raises _Dead on contradiction."""
    changed = True
    while changed:
        changed = False
        out = []
        pins: list[tuple[int, int]] = []
        for terms, c in eqs:
            terms = {v: b for v, b in terms.items() if b}
            if not terms:
                if c:
                    raise _Dead()
                continue
            if k > 2 and (sum(terms.values()) + c) % (k - 1):
                raise _Dead()
            coefs = list(terms.values())
            if all(b > 0 for b in coefs) and c >= 0:
                raise _Dead()
            if all(b < 0 for b in coefs) and c <= 0:
                raise _Dead()
            if len(terms) == 1:
                (v, b), = terms.items()
                e = _kpow_exponent(Fraction(-c, b), k)
                if e is None:
                    raise _Dead()
                pins.append((v, e))
                changed = True
                continue
            out.append((terms, c))
        for v, e in pins:
            # two equations can pin the same atom in one pass
            if v in parent and parent[v] != (None, e):
                raise _Dead()
            parent[v] = (None, e)
            out = [_subst_ground(terms, c, v, e, k) for terms, c in out]
        eqs = out
    return eqs


def _subst_ground(terms: dict, c: int, v: int, e: int, k: int):
    if v not in terms:
        return (terms, c)
    terms = dict(terms)
    b = terms.pop(v)
    return (terms, c + b * k**e)


def _subst_pair(terms: dict, c: int, v: int, w: int, off: int, k: int):
    """z_v := z_w + off."""
    if v not in terms:
        return (terms, c)
    terms = dict(terms)
    b = terms.pop(v) * k**off
    terms[w] = terms.get(w, 0) + b
    return (terms, c)


def _freeze_claim(eqs: list) -> tuple:
    return tuple(sorted((tuple(sorted(t.items())), c) for t, c in eqs))


@lru_cache(maxsize=1 << 16)
def _claim_solve(key: tuple, k: int) -> tuple:
    """All relation maps covering the nonnegative solutions of the claim system.

    A relation map sends a substituted atom to (other atom, offset) or
    (None, value); atoms it does not mention are unconstrained.  Cacheable
    because the answer depends only on the system, not on how we got here.

    After normalization, the first equation  sum b_j k^(z_j) + C = 0  is
    split by a complete cover, and each branch substitutes one atom:

    * C != 0: k^(min z) divides every term, hence C, so some atom has
      z_i <= v_k(C).  Branches: z_i = val for every atom i and every
      val <= v_k(C).
    * C == 0: with d = delta_bound, either the largest atom is at most d,
      or it lies within d of another atom, since otherwise its term
      outweighs all the others.  Branches: z_i = z_j + off and z_i = val,
      for off, val <= d.

    A map reached along several branches is returned once, at its first
    occurrence.
    """
    eqs = [(dict(t), c) for t, c in key]
    parent: dict = {}
    try:
        eqs = _normalize_claim(eqs, parent, k)
    except _Dead:
        return ()
    base = tuple(sorted(parent.items()))
    if not eqs:
        return (base,)
    out = []
    terms, c = eqs[0]
    vs = sorted(terms)
    branches: list[tuple[int, tuple, list]] = []
    if c:
        top = _valuation(c, k)
    else:
        top = delta_bound(list(terms.values()), c, k)
        for i in vs:
            for j in vs:
                if i == j:
                    continue
                for off in range(top + 1):
                    if off == 0 and i > j:
                        continue
                    child = [_subst_pair(t, cc, i, j, off, k) for t, cc in eqs]
                    branches.append((i, (j, off), child))
    for i in vs:
        for val in range(top + 1):
            child = [_subst_ground(t, cc, i, val, k) for t, cc in eqs]
            branches.append((i, (None, val), child))
    seen: set[tuple] = set()
    for i, rel, child in branches:
        for sub in _claim_solve(_freeze_claim(child), k):
            rels = base + ((i, rel),) + sub
            key = tuple(sorted(rels))
            if key not in seen:
                seen.add(key)
                out.append(rels)
    return tuple(out)


def _resolve(parent: dict, v: int) -> tuple[int | None, int]:
    off = 0
    while v in parent:
        nxt, d = parent[v]
        off += d
        if nxt is None:
            return (None, off)
        v = nxt
    return (v, off)


# ---------------------------------------------------------------------------
# Sign split and clearing


def _clear_equation(acc: dict[AffineForm, int]) -> dict[AffineForm, int]:
    """Multiply by k^m so every form is componentwise nonnegative."""
    lift: dict[str, int] = {}
    cmin = 0
    for f in acc:
        for v, cf in f.terms:
            if cf < 0:
                lift[v] = max(lift.get(v, 0), -cf)
        cmin = min(cmin, f.const)
    m = AffineForm.make(lift, -cmin)
    if not m.terms and not m.const:
        return acc
    return {f + m: b for f, b in acc.items()}


def semenov_solve(sys: SemenovSystem) -> list[list[AffineForm]]:
    """Exact solution set of a k-power system as a union of linear systems."""
    k = sys.k
    variables = sys.variables()
    systems: list[list[AffineForm]] = []
    seen: set[tuple[AffineForm, ...]] = set()
    for mask in range(1 << len(variables)):
        env = {
            v: AffineForm.var(v, -1)
            for i, v in enumerate(variables)
            if mask >> i & 1
        }
        hat: dict[AffineForm, int] = {}
        defs: list[AffineForm] = []
        claim_eqs = []
        dead = False
        for terms, c in sys.equations:
            acc: dict[AffineForm, int] = {}
            acc[AffineForm.constant(0)] = c
            for b, f in terms:
                g = f.substitute(env)
                acc[g] = acc.get(g, 0) + b
            acc = {f: b for f, b in acc.items() if b}
            acc = _clear_equation(acc)
            cterms: dict[int, int] = {}
            cc = 0
            for f, b in acc.items():
                if f.is_const():
                    cc += b * k**f.const
                else:
                    if f not in hat:
                        hat[f] = len(defs)
                        defs.append(f)
                    h = hat[f]
                    cterms[h] = cterms.get(h, 0) + b
            cterms = {v: b for v, b in cterms.items() if b}
            if not cterms:
                if cc:
                    dead = True
                    break
                continue
            claim_eqs.append((cterms, cc))
        if dead:
            continue
        for rels in _claim_solve(_freeze_claim(claim_eqs), k):
            leaf = dict(rels)
            forms = []
            for v in sorted(leaf):
                root, off = _resolve(leaf, v)
                if root is None:
                    f = defs[v] - AffineForm.constant(off)
                else:
                    f = defs[v] - defs[root] - AffineForm.constant(off)
                # map back out of the flipped coordinates
                forms.append(f.substitute(env))
            key = tuple(sorted(forms))
            if key not in seen:
                seen.add(key)
                systems.append(forms)
    return dedup_systems(systems, variables)


# ---------------------------------------------------------------------------
# Zero-sum grouping over Z_n and Z


def _partitions_zero_sum(coefs: list[int], mod: int | None) -> Iterator[list[int]]:
    """Restricted-growth block assignments where every block sums to zero."""
    return _zero_sum_blocks(coefs, mod, [0] * len(coefs), [], 0, 0)


def _nonzero(s: int, mod: int | None) -> bool:
    return bool(s % mod) if mod is not None else bool(s)


def _zero_sum_blocks(coefs: list[int], mod: int | None, assign: list[int],
                     sums: list[int], i: int, nblocks: int) -> Iterator[list[int]]:
    """The assignments of ``_partitions_zero_sum`` that extend assign[:i],
    whose blocks' sums so far are sums.  A module-level generator and not a
    closure, so that a call leaves no reference cycle behind."""
    n = len(coefs)
    if i == n:
        if not any(_nonzero(s, mod) for s in sums):
            yield assign[:]
        return
    remaining = n - i
    for b in range(nblocks + 1):
        if b == nblocks:
            sums.append(0)
        assign[i] = b
        sums[b] += coefs[i]
        open_blocks = sum(1 for s in sums if _nonzero(s, mod))
        if open_blocks <= remaining - 1:
            yield from _zero_sum_blocks(coefs, mod, assign, sums, i + 1, max(nblocks, b + 1))
        sums[b] -= coefs[i]
        if b == nblocks:
            sums.pop()


def grouping_solve(
    equations: Sequence[Sequence[Term]], mod: int | None
) -> list[list[AffineForm]]:
    """Exact solutions of  sum a_i t^(form_i) = 0  conjunctions over Z or Z_n.

    Any solution groups the terms by exponent value and every group's
    coefficient sum vanishes in the ring; conversely forcing the exponent
    equalities of a zero-sum partition kills the equation identically.
    """
    per_eq: list[list[list[AffineForm]]] = []
    variables: set[str] = set()
    for terms in equations:
        acc: dict[AffineForm, int] = {}
        for a, f in terms:
            if mod is not None:
                a %= mod
            if a:
                acc[f] = acc.get(f, 0) + a
                if mod is not None:
                    acc[f] %= mod
                if not acc[f]:
                    del acc[f]
        for f in acc:
            variables.update(f.variables())
        items = sorted(acc.items())
        if not items:
            per_eq.append([[]])
            continue
        options: list[list[AffineForm]] = []
        coefs = [b for _, b in items]
        for assign in _partitions_zero_sum(coefs, mod):
            constraints: list[AffineForm] = []
            leaders: dict[int, AffineForm] = {}
            for idx, block in enumerate(assign):
                f = items[idx][0]
                if block in leaders:
                    constraints.append(f - leaders[block])
                else:
                    leaders[block] = f
            options.append(constraints)
        if not options:
            return []
        per_eq.append(options)

    systems: list[list[AffineForm]] = [[]]
    for options in per_eq:
        systems = [s + o for s in systems for o in options]
    return dedup_systems(systems, sorted(variables))


# ---------------------------------------------------------------------------
# Canonicalization of disjunctions of linear systems


def solve_forms(forms: Sequence[AffineForm], variables: Sequence[str]):
    """Solve forms = 0 over Z, one matrix column per variable, in order; a
    form's term in a variable that is not listed is left out."""
    col = {v: j for j, v in enumerate(variables)}
    a = []
    for f in forms:
        row = [0] * len(variables)
        for v, c in f.terms:
            j = col.get(v)
            if j is not None:
                row[j] = c
        a.append(row)
    b = [-f.const for f in forms]
    if not forms:
        # keep the variable count visible to the solver
        a, b = [[0] * len(variables)], [0]
    return solve_linear(a, b)


def _contained(s1, s2) -> bool:
    """Affine sublattice containment: every solution of s1 solves s2."""
    diff = [p - q for p, q in zip(s1.particular, s2.particular)]
    if not lattice_contains(s2.basis, diff):
        return False
    return all(lattice_contains(s2.basis, v) for v in s1.basis)


def dedup_systems(
    systems: Sequence[Sequence[AffineForm]], variables: Sequence[str]
) -> list[list[AffineForm]]:
    """Drop unsatisfiable and subsumed members; sort canonically."""
    solved = []
    for forms in systems:
        sol = solve_forms(forms, variables)
        if sol.status == "empty":
            continue
        solved.append((sol.canonical(), list(forms), sol))
    solved.sort(key=lambda t: t[0])
    kept: list[tuple] = []
    for key, forms, sol in solved:
        if any(k2 == key or _contained(sol, s2) for k2, _, s2 in kept):
            continue
        kept.append((key, forms, sol))
    # a later, larger set may still swallow an earlier one
    out = []
    for i, (key, forms, sol) in enumerate(kept):
        if any(j != i and _contained(sol, kept[j][2]) for j in range(len(kept))):
            continue
        out.append(forms)
    return out
