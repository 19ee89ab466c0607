"""Decision procedure for word equation systems over the supported groups.

The input system is reduced to component form, case-split into finitely many
triangular branches, and every branch is attacked from two sides at once:

* a witness search proposes assignments (lifted from branch solutions, then
  drawn from growing balls) and checks them with exact group arithmetic;
* an obstruction search refines joint residue constraints over a growing
  chain of moduli, and an empty refinement level refutes the whole branch.

Every Unsat verdict ships a certificate that can be replayed independently
of the search that found it.  Budgets make each run terminate; running out
of budget yields Unknown, never a wrong answer.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .frontend import EquationSystem, system_hash
from .groups import (
    BsElement,
    WreathElement,
    generator,
    identity,
    mul,
    power,
    verify_witness,
)
from .intlinalg import AffineForm, apply_solution
from .expsolve import SemenovSystem, semenov_solve, grouping_solve, solve_forms
from .reduce import (
    BranchOverflow,
    ExpSum,
    Row,
    reduce_bs,
    reduce_wreath,
    rvar,
    triangularize,
    xvar,
    yvar,
)
from .rings import (
    LaurentPoly,
    RElem,
    ZkFrac,
    monic_enum,
    mult_order,
    poly_add,
    poly_mul,
    poly_reduce,
    poly_pow_t,
    poly_scale,
    prime_powers_coprime,
    primes,
    t_period,
)

VERSION = "0.1.0"
CERT_VERSION = 1

# refinement rounds tried on a dead residual system before its certificate
# falls back to the exact solver's emptiness record
ATTEMPT_LEVELS = 10


@dataclass
class Budget:
    """Resource limits; every field bounds one axis of the search.

    The refinement that certifies a dead residual branch runs only when
    ``decide`` returns unsat, for at most ``ATTEMPT_LEVELS`` rounds, within
    ``max_prime_power``, ``max_monic_degree`` and ``node_cap``.
    """

    steps: int = 48                  # scheduler rounds per procedure
    max_prime_power: int = 256       # largest modulus q = p^m tried
    max_monic_degree: int = 3        # largest polynomial modulus degree
    radius: int = 6                  # witness enumeration ball bound
    time_limit: float | None = None
    branch_cap: int = 400            # case-split branches before giving up
    node_cap: int = 4000             # refinement nodes kept per level
    candidates_per_step: int = 4000


@dataclass
class Verdict:
    status: str  # "sat" | "unsat" | "unknown"
    witness: dict | None = None
    certificate: dict | None = None
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Branch construction


@dataclass
class Part:
    """Rows of one coefficient component inside a branch (BS has one part)."""

    component: int            # -1 for BS
    mod: int | None           # None: integer coefficients
    pivots: list
    residuals: list


@dataclass
class FinalBranch:
    path: str
    parts: list
    varmap: dict
    params: list


@dataclass
class Refuted:
    path: str
    cert: dict | None  # None: a dead residual system, certified on demand
    parts: list
    params: list


@dataclass
class Build:
    kind: str
    k: int | None
    finals: list
    refuted: list
    overflow: bool
    linear_cert: dict | None
    lin_forms: list
    evars: list


@dataclass
class _State:
    comp_rows: list
    varmap: dict
    params: list
    sides: list
    path: str
    depth: int


def _residual_terms(s: ExpSum):
    return tuple((c, f) for f, c in s.terms)


def _render_rows(parts, kind) -> list:
    out = []
    for part in parts:
        base = "k" if kind == "bs" else "t"
        for u, row in part.pivots:
            out.append(f"[{part.component}] pivot {u}: {row.render(base)}")
        for s in part.residuals:
            out.append(f"[{part.component}] {s.render(base)} = 0")
    return out


def _cert_rows(parts, kind, stage) -> list:
    """The rows that a certificate at ``stage`` records for ``parts``."""
    if stage == "residual":
        base = "k" if kind == "bs" else "t"
        return [s.render(base) + " = 0" for part in parts for s in part.residuals]
    return _render_rows(parts, kind)


def _residual_solutions(kind, k, part: Part) -> list:
    """The exact solver's disjunction for the residual rows of one part."""
    eqs = [_residual_terms(s) for s in part.residuals]
    if kind == "bs":
        return semenov_solve(SemenovSystem.make([(t, 0) for t in eqs], k))
    return grouping_solve(eqs, part.mod)


def _build(system: EquationSystem, budget: Budget, deadline=None) -> Build:
    """Case analysis over the reduced system.

    Returns the surviving triangular branches plus the ones refuted on the
    way.  A branch whose residual system has no solution is recorded with
    only its residual rows; ``_refute_residuals`` certifies it when an unsat
    verdict needs that.  Deterministic: replaying with the same caps
    reproduces branches and recorded certificates verbatim.
    """
    spec = system.spec
    if spec.kind == "bs":
        red = reduce_bs(system)
        evars = list(red.rvars)
        lin = list(red.linear)
        comp_info = [(-1, None)]
        start = [list(red.rows)]
        kind, k = "bs", red.k
    else:
        red = reduce_wreath(system)
        evars = list(red.xvars) + list(red.yvars)
        lin = list(red.linear)
        comp_info = [(c.component, c.mod) for c in red.components]
        start = [list(c.rows) for c in red.components]
        kind, k = "wreath", None

    sol = solve_forms(lin, evars)
    if sol.status == "empty":
        cert = _linear_infeasible("shared-linear", lin, evars, sol)
        return Build(kind, k, [], [], False, cert, lin, evars)

    varfs, params, _ = apply_solution(
        sol, evars, [AffineForm.var(v) for v in evars], "p0_"
    )
    varmap = dict(zip(evars, varfs))
    rows0 = [[r.substitute(varmap) for r in rows] for rows in start]

    finals: list = []
    refuted: list = []
    overflow = False
    queue = deque([_State(rows0, varmap, list(params), [], "", 1)])

    while queue:
        if deadline is not None and time.monotonic() > deadline:
            overflow = True
            break
        if len(finals) + len(refuted) >= budget.branch_cap:
            overflow = True
            break
        st = queue.popleft()
        if any(s.is_zero() for s in st.sides):
            refuted.append(
                Refuted(st.path, {"kind": "empty_disjunction", "stage": "side-assumption"}, [], st.params)
            )
            continue
        try:
            tri_lists = [
                triangularize(rows, mod, budget.branch_cap)
                for (_, mod), rows in zip(comp_info, st.comp_rows)
            ]
        except BranchOverflow:
            overflow = True
            break
        for combo in itertools.product(*tri_lists):
            path = st.path + "/t" + "+".join(tb.path or "-" for tb in combo)
            parts = [
                Part(c, mod, list(tb.pivots), list(tb.residuals))
                for (c, mod), tb in zip(comp_info, combo)
            ]
            if len(finals) + len(refuted) >= budget.branch_cap:
                overflow = True
                break

            disjunctions = []
            dead = None
            for part in parts:
                if not part.residuals:
                    continue
                dis = _residual_solutions(kind, k, part)
                if not dis:
                    dead = Part(part.component, part.mod, [], part.residuals)
                    break
                disjunctions.append(dis)
            if dead is not None:
                refuted.append(Refuted(path, None, [dead], st.params))
                continue

            if not disjunctions:
                finals.append(FinalBranch(path, parts, dict(st.varmap), list(st.params)))
                continue

            any_child = False
            done = False
            for di, pick in enumerate(itertools.product(*disjunctions)):
                forms = [f for member in pick for f in member]
                psol = solve_forms(forms, st.params)
                if psol.status == "empty":
                    continue
                if len(psol.basis) == len(st.params):
                    # residuals hold identically on this branch
                    finals.append(
                        FinalBranch(path, parts, dict(st.varmap), list(st.params))
                    )
                    any_child = done = True
                    break
                _, params2, sub = apply_solution(psol, st.params, [], f"p{st.depth}_")
                varmap2 = {v: f.substitute(sub) for v, f in st.varmap.items()}
                rows2 = [
                    [row.substitute(sub) for _, row in part.pivots] for part in parts
                ]
                sides2 = [s.substitute(sub) for s in st.sides] + [
                    s.substitute(sub) for tb in combo for s in tb.side
                ]
                queue.append(
                    _State(rows2, varmap2, params2, sides2, path + f"/d{di}", st.depth + 1)
                )
                any_child = True
            if done:
                continue
            if not any_child:
                refuted.append(
                    Refuted(
                        path,
                        {
                            "kind": "empty_disjunction",
                            "stage": "joint-residual",
                            "rows": _render_rows([p for p in parts if p.residuals], kind),
                        },
                        parts,
                        st.params,
                    )
                )
        if overflow:
            break

    return Build(kind, k, finals, refuted, overflow, None, lin, evars)


# ---------------------------------------------------------------------------
# Obstruction searches (joint residue refinement)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _prime_of(q: int) -> int:
    for p in range(2, q + 1):
        if q % p == 0:
            return p
    return q


class _BsSearch:
    """Refinement over prime power moduli q coprime to k.

    A node pins every exponent parameter mod M (the lcm of the k-orders of
    the processed moduli) together with, per unknown and per prime seen, the
    unknown's residue mod the highest processed power.  A node survives a
    level when some extension satisfies every row mod q; an empty level is a
    refutation and the processed chain is the certificate.
    """

    component = None

    def __init__(self, rows, residuals, params, k, budget, chain=None):
        self.rows = [row for _, row in rows]
        self.unknowns = sorted({u for row in self.rows for u in row.coeffs})
        self.residuals = list(residuals)
        self.params = list(params)
        self.base = k
        self.budget = budget
        if chain is None:
            self.schedule = prime_powers_coprime(k)
            self.limit = budget.max_prime_power
        else:
            self.schedule = iter(chain)
            self.limit = None
        self.var_mod = 1
        self.frontier = [((0,) * len(self.params), tuple(() for _ in self.unknowns))]
        self.chain: list = []
        self.state = "running"

    def _sum_mod(self, s: ExpSum, env: dict, period: int, q: int) -> int:
        total = 0
        for f, c in s.terms:
            total += c * pow(self.base, f.evaluate(env) % period, q)
        return total % q

    def step(self) -> str:
        if self.state != "running":
            return self.state
        q = next(self.schedule, None)
        if q is None or (self.limit is not None and q > self.limit):
            self.state = "exhausted"
            return self.state
        p = _prime_of(q)
        period = mult_order(self.base, q)
        m2 = _lcm(self.var_mod, period)
        ext = m2 // self.var_mod
        work_cap = self.budget.node_cap * 200
        work = 0
        new: dict = {}
        for vals, utab in self.frontier:
            for combo in itertools.product(range(ext), repeat=len(self.params)):
                work += 1
                if work > work_cap:
                    self.state = "saturated"
                    return self.state
                vals2 = tuple(
                    (v + self.var_mod * t) % m2 for v, t in zip(vals, combo)
                )
                env = dict(zip(self.params, vals2))
                if any(self._sum_mod(s, env, period, q) for s in self.residuals):
                    continue
                coefs = [
                    (
                        {u: self._sum_mod(s, env, period, q) for u, s in row.coeffs.items()},
                        self._sum_mod(row.const, env, period, q),
                    )
                    for row in self.rows
                ]
                cands = []
                for ui, _ in enumerate(self.unknowns):
                    prev = dict((pp, (r0, q0)) for pp, r0, q0 in utab[ui])
                    if p in prev:
                        r0, q0 = prev[p]
                        cands.append([(r0 + q0 * j) % q for j in range(q // q0)])
                    else:
                        cands.append(list(range(q)))
                for zc in itertools.product(*cands):
                    work += 1
                    if work > work_cap:
                        self.state = "saturated"
                        return self.state
                    zenv = dict(zip(self.unknowns, zc))
                    if all(
                        (sum(cv * zenv[u] for u, cv in cfs.items()) + cst) % q == 0
                        for cfs, cst in coefs
                    ):
                        utab2 = []
                        for ui in range(len(self.unknowns)):
                            table = {pp: (r0, q0) for pp, r0, q0 in utab[ui]}
                            table[p] = (zc[ui], q)
                            utab2.append(
                                tuple((pp, rr, qq) for pp, (rr, qq) in sorted(table.items()))
                            )
                        new[(vals2, tuple(utab2))] = True
                        if len(new) > self.budget.node_cap:
                            self.state = "saturated"
                            return self.state
        self.chain.append(q)
        self.var_mod = m2
        if not new:
            self.state = "refuted"
        else:
            self.frontier = sorted(new)
        return self.state


class _WreathSearch:
    """Refinement over monic polynomial moduli with unit constant term.

    Works in Z_ring[t]/(h) for a chain of monics h; exponent parameters are
    pinned mod the lcm of the t-orders, and every polynomial unknown carries
    its residue mod the product of the processed moduli, extended level by
    level (base-H digit expansion, so non-coprime moduli are fine).
    """

    base = None
    projected_from = None

    def __init__(self, rows, residuals, params, ring, budget, chain=None, component=None):
        self.rows = [row for _, row in rows] + [Row({}, s) for s in residuals]
        self.unknowns = sorted({u for row in self.rows for u in row.coeffs})
        self.params = list(params)
        self.ring = ring
        self.component = component
        self.budget = budget
        if chain is None:
            self.schedule = self._monics()
        else:
            self.schedule = iter(tuple(h) for h in chain)
        self.var_mod = 1
        self.hprod: tuple = (1,)
        self.frontier = [((0,) * len(self.params), tuple(() for _ in self.unknowns))]
        self.chain: list = []
        self.state = "running"

    def _monics(self):
        for d in range(1, self.budget.max_monic_degree + 1):
            for h in monic_enum(self.ring, d):
                if math.gcd(h[0] % self.ring, self.ring) == 1:
                    yield h

    def _sum_poly(self, s: ExpSum, env, period, h, tcache):
        acc: tuple = ()
        for f, c in s.terms:
            e = f.evaluate(env) % period
            if e not in tcache:
                tcache[e] = poly_pow_t(e, h, self.ring)
            acc = poly_add(acc, poly_scale(tcache[e], c, self.ring), self.ring)
        return acc

    def step(self) -> str:
        if self.state != "running":
            return self.state
        h = next(self.schedule, None)
        if h is None:
            self.state = "exhausted"
            return self.state
        n = self.ring
        period = t_period(h, n)
        m2 = _lcm(self.var_mod, period)
        ext = m2 // self.var_mod
        d = len(h) - 1
        lifts = list(itertools.product(range(n), repeat=d))
        work_cap = self.budget.node_cap * 200
        work = 0
        new: dict = {}
        for vals, utab in self.frontier:
            for combo in itertools.product(range(ext), repeat=len(self.params)):
                work += 1
                if work > work_cap:
                    self.state = "saturated"
                    return self.state
                vals2 = tuple(
                    (v + self.var_mod * t) % m2 for v, t in zip(vals, combo)
                )
                env = dict(zip(self.params, vals2))
                tcache: dict = {}
                coefs = [
                    (
                        {
                            u: self._sum_poly(s, env, period, h, tcache)
                            for u, s in row.coeffs.items()
                        },
                        self._sum_poly(row.const, env, period, h, tcache),
                    )
                    for row in self.rows
                ]
                cand_res = []
                for ui in range(len(self.unknowns)):
                    opts = []
                    for v in lifts:
                        rnew = poly_add(
                            utab[ui], poly_mul(self.hprod, v, n), n
                        )
                        opts.append((rnew, poly_reduce(rnew, h, n)))
                    cand_res.append(opts)
                for pickz in itertools.product(*cand_res):
                    work += 1
                    if work > work_cap:
                        self.state = "saturated"
                        return self.state
                    ok = True
                    for cfs, cst in coefs:
                        acc = cst
                        for ui, u in enumerate(self.unknowns):
                            cf = cfs.get(u)
                            if cf:
                                acc = poly_add(
                                    acc,
                                    poly_reduce(poly_mul(cf, pickz[ui][1], n), h, n),
                                    n,
                                )
                        if poly_reduce(acc, h, n):
                            ok = False
                            break
                    if ok:
                        key = (vals2, tuple(pz[0] for pz in pickz))
                        new[key] = True
                        if len(new) > self.budget.node_cap:
                            self.state = "saturated"
                            return self.state
        self.chain.append(list(h))
        self.var_mod = m2
        self.hprod = poly_mul(self.hprod, h, n)
        if not new:
            self.state = "refuted"
        else:
            self.frontier = sorted(new)
        return self.state


def _project_rows(pivots, residuals, mod: int):
    rows = []
    for u, row in pivots:
        rows.append(
            (
                u,
                Row(
                    {v: ExpSum.make(s.terms, mod) for v, s in row.coeffs.items()},
                    ExpSum.make(row.const.terms, mod),
                ).normalized(),
            )
        )
    res = [ExpSum.make(s.terms, mod) for s in residuals]
    return rows, [s for s in res if not s.is_zero()]


class _ZPartSearch:
    """Integer-coefficient component handled through its prime projections.

    Primes are brought in one per step and all open projections advance one
    level each step, so no single prime can starve the others.  Once a
    projection is refuted, ``ring`` is its prime and ``chain`` its chain.
    """

    base = None
    projected_from = 0

    def __init__(self, pivots, residuals, params, budget, component):
        self.pivots = pivots
        self.residuals = residuals
        self.params = params
        self.budget = budget
        self.component = component
        self.subs: list = []
        self.state = "running"
        self.ring = None
        self.chain: list = []
        self.primegen = primes()

    def step(self) -> str:
        if self.state != "running":
            return self.state
        p = next(self.primegen, None)
        if p is not None and p <= self.budget.max_prime_power:
            rows, res = _project_rows(self.pivots, self.residuals, p)
            self.subs.append((p, _WreathSearch(rows, res, self.params, p, self.budget)))
        live = False
        for ring, sub in self.subs:
            if sub.state != "running":
                continue
            r = sub.step()
            if r == "refuted":
                self.state = "refuted"
                self.ring = ring
                self.chain = list(sub.chain)
                return self.state
            if r == "running":
                live = True
        if not live and (p is None or p > self.budget.max_prime_power):
            self.state = "exhausted"
        return self.state


def _part_searches(kind, k, part, params, budget):
    """All obstruction searches attached to one component of a branch."""
    if kind == "bs":
        return [
            ({"base": k}, _BsSearch(part.pivots, part.residuals, params, k, budget))
        ]
    if part.mod is None:
        return [
            (
                {"component": part.component, "ring": 0},
                _ZPartSearch(part.pivots, part.residuals, params, budget, part.component),
            )
        ]
    out = []
    rings_to_try = [part.mod] + [d for d in range(part.mod - 1, 1, -1) if part.mod % d == 0]
    for d in rings_to_try:
        rows, res = (
            (part.pivots, part.residuals)
            if d == part.mod
            else _project_rows(part.pivots, part.residuals, d)
        )
        out.append(
            (
                {"component": part.component, "ring": d},
                _WreathSearch(rows, res, params, d, budget, component=part.component),
            )
        )
    return out


class _BranchSearches:
    """Obstruction searches for the parts of one branch, stepped in rounds.

    The first search refuted yields the branch's certificate, recorded at
    ``stage`` ("pivots" for a final branch, "residual" for a dead residual
    system).
    """

    def __init__(self, kind, k, parts, params, budget, stage="pivots"):
        self.params = params
        self.stage = stage
        self.rows = _cert_rows(parts, kind, stage)
        self.searches = []
        for part in parts:
            if not part.pivots and not part.residuals:
                continue
            self.searches.extend(_part_searches(kind, k, part, params, budget))
        self.state = "running" if self.searches else "stalled"
        self.cert: dict | None = None
        self.levels = 0

    def step(self) -> str:
        if self.state != "running":
            return self.state
        live = False
        for desc, search in self.searches:
            if search.state not in ("running",):
                continue
            r = search.step()
            self.levels += 1
            if r == "refuted":
                self.cert = _obstruction(search, self.stage, self.rows, self.params)
                self.state = "refuted"
                return self.state
            if r == "running":
                live = True
        if not live:
            self.state = "stalled"
        return self.state


def _in_component(component, inner: dict) -> dict:
    """A wreath certificate names its component; a BS one (None) stands alone."""
    if component is None:
        return inner
    return {"kind": "component_obstruction", "component": component, "inner": inner}


def _obstruction(search, stage, rows, params) -> dict:
    """The modulus obstruction certificate of a refuted search."""
    where = (
        {"base": search.base}
        if search.base is not None
        else {"ring": search.ring, "projected_from": search.projected_from}
    )
    inner = {"kind": "modulus_obstruction", "stage": stage, **where}
    inner.update(chain=list(search.chain), rows=rows, params=list(params))
    return _in_component(search.component, inner)


def _refute_residuals(kind, k, parts, params, budget) -> dict:
    """Certificate for a dead residual system: a modulus obstruction found
    within ``ATTEMPT_LEVELS`` rounds, else the exact solver's emptiness record."""
    searches = _BranchSearches(kind, k, parts, params, budget, "residual")
    for _ in range(ATTEMPT_LEVELS):
        if searches.step() != "running":
            break
    if searches.cert is not None:
        return searches.cert
    fallback = {
        "kind": "empty_disjunction",
        "stage": "residual",
        "rows": searches.rows,
        "params": list(params),
    }
    return _in_component(None if kind == "bs" else parts[0].component, fallback)


# ---------------------------------------------------------------------------
# Witness search


def _bs_layer(k: int, s: int):
    out = []
    for num in range(-s, s + 1):
        for depth in range(0, s - abs(num) + 1):
            if depth > 0 and (k == 1 or num % k == 0):
                continue
            rest = s - abs(num) - depth
            shifts = [0] if rest == 0 else [-rest, rest]
            for r in shifts:
                out.append(BsElement(ZkFrac.make(num, depth, k), r))
    return out


def _wreath_layer(spec, r: int, cap: int):
    """The first cap elements of the radius-r ball outside the radius r-1 ball.

    An element of the radius-r ball has its shift, its lamp positions and its
    free lamp values in [-r, r], and its torsion values in [0, min(n-1, r)].
    Elements come shift first, then the coefficients position by position,
    each in product order over its components.
    """
    m, orders = spec.free_rank, spec.torsion
    if r == 0:
        return [WreathElement(LaurentPoly.zero(m, orders), 0)]
    ranges = [range(-r, r + 1)] * m + [range(min(n - 1, r) + 1) for n in orders]
    chunks = list(itertools.product(*ranges))
    # per position, every coefficient as (poly item or None when zero,
    # whether it puts the element outside the radius r-1 ball)
    slots = []
    for d in range(-r, r + 1):
        opts = []
        for ch in chunks:
            if any(ch):
                item = (d, RElem(ch[:m], ch[m:], orders))
                opts.append((item, abs(d) == r or r in ch or -r in ch))
            else:
                opts.append((None, False))
        slots.append(opts)
    out = []
    for x in range(-r, r + 1):
        edge = abs(x) == r
        for combo in itertools.product(*slots):
            if not edge and not any(new for _, new in combo):
                continue
            items = tuple(item for item, _ in combo if item is not None)
            out.append(WreathElement(LaurentPoly(items, m, orders), x))
            if len(out) >= cap:
                return out
    return out


def _div_exact(c: int, v: int, mod: int | None) -> int | None:
    if mod is None:
        return c // v if v and c % v == 0 else None
    v %= mod
    c %= mod
    g = math.gcd(v, mod)
    if c % g:
        return None
    return (c // g) * pow(v // g, -1, mod // g) % (mod // g)


def _laurent_combine(acc, add, scale, mod):
    out = dict(acc)
    for d, c in add.items():
        v = out.get(d, 0) + c * scale
        if mod is not None:
            v %= mod
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def _lift_bs(system, final: FinalBranch, k: int, env: dict):
    assigned: dict[str, Fraction] = {}
    part = final.parts[0]
    for u, row in reversed(part.pivots):
        coef = row.coeffs[u].eval_fraction(k, env)
        if coef == 0:
            return None
        acc = row.const.eval_fraction(k, env)
        for v, s in row.coeffs.items():
            if v != u:
                acc += s.eval_fraction(k, env) * assigned.get(v, Fraction(0))
        assigned[u] = -acc / coef
    out = {}
    for name in system.variables:
        uval = ZkFrac.from_fraction(assigned.get(name, Fraction(0)), k)
        if uval is None:
            return None
        out[name] = BsElement(uval, final.varmap[rvar(name)].evaluate(env))
    return out


def _lift_wreath(system, final: FinalBranch, spec, env: dict):
    """Back-substitute the pivot rows of every part at the parameters env.

    A pivot whose coefficient is a single monomial c*t^d is solved by exact
    division.  For any other coefficient the pivot unknown is lifted to 0
    when the rest of its row vanishes, and there is no lift otherwise.
    Returns (assignment or None, whether a zero lift was used).
    """
    per_comp: dict[tuple[str, int], dict[int, int]] = {}
    zeroed = False
    for part in final.parts:
        assigned: dict[str, dict[int, int]] = {}
        for u, row in reversed(part.pivots):
            coef = row.coeffs[u].eval_laurent(env)
            acc = dict(row.const.eval_laurent(env))
            for w, s in row.coeffs.items():
                if w == u:
                    continue
                wpoly = assigned.get(w, {})
                spoly = s.eval_laurent(env)
                for dd, cc in spoly.items():
                    for dw, cw in wpoly.items():
                        acc = _laurent_combine(acc, {dd + dw: cw}, cc, part.mod)
            if len(coef) != 1:
                if acc:
                    return None, zeroed
                zeroed = True
                assigned[u] = {}
                continue
            (d0, v0), = coef.items()
            res = {}
            for d, c in acc.items():
                w = _div_exact(-c, v0, part.mod)
                if w is None:
                    return None, zeroed
                if w:
                    res[d - d0] = w
            assigned[u] = res
        for name in system.variables:
            per_comp[(name, part.component)] = assigned.get(name, {})
    m, orders = spec.free_rank, spec.torsion
    out = {}
    for name in system.variables:
        y = final.varmap[yvar(name)].evaluate(env)
        x = final.varmap[xvar(name)].evaluate(env)
        degs = sorted(
            {d for c in range(spec.n_components) for d in per_comp[(name, c)]}
        )
        items = []
        for d in degs:
            free = tuple(per_comp[(name, c)].get(d, 0) for c in range(m))
            tors = tuple(per_comp[(name, m + j)].get(d, 0) for j in range(len(orders)))
            items.append((d - y, RElem.make(free, tors, orders)))
        out[name] = WreathElement(LaurentPoly.make(items, m, orders), x)
    return out, zeroed


def _lift_candidates(system, build: Build, budget: Budget):
    """Assignments suggested by the surviving branches, small parameters first.

    Wreath zero lifts (see ``_lift_wreath``) follow after every plain lift,
    so a system that a plain lift decides keeps that witness.
    """
    spec = system.spec
    seen = set()
    out = []
    zero_lifts = []
    for final in build.finals:
        nparams = len(final.params)
        if nparams == 0:
            grids = [()]
        elif nparams <= 4:
            grids = list(itertools.product(range(3), repeat=nparams))
        else:
            grids = [(0,) * nparams]
        for grid in grids:
            env = dict(zip(final.params, grid))
            if spec.kind == "bs":
                cand, zeroed = _lift_bs(system, final, build.k, env), False
            else:
                cand, zeroed = _lift_wreath(system, final, spec, env)
            if cand is not None:
                (zero_lifts if zeroed else out).append(cand)
    uniq = []
    for cand in out + zero_lifts:
        key = tuple(sorted((v, repr(g)) for v, g in cand.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(cand)
    return uniq


def _witness_check(system):
    """A test of candidate assignments that accepts what ``verify_witness`` does.

    Candidates must assign every unknown of the system.  Once per system it
    resolves the generator letters, multiplies each run of them into one
    element, evaluates the sides without unknowns, and writes each equation's
    total shift (the t-exponent, or the b-exponent in BS(1,k)) as an integer
    form const + sum of e * shift(X).  Shift is a homomorphism onto Z, so a
    candidate with a nonzero form fails; only the others have their sides
    with unknowns multiplied out.
    """
    spec = system.spec
    unknowns = set(system.variables)
    shift_of = operator.attrgetter("r" if spec.kind == "bs" else "shift")
    gens: dict = {}

    def compile_side(word, sign, coefs):
        # terms (unknown, exponent, None) or (None, 0, constant element)
        terms, run, const = [], None, 0
        for name, e in word:
            if name in unknowns:
                coefs[name] = coefs.get(name, 0) + sign * e
                if run is not None:
                    terms.append((None, 0, run))
                    run = None
                terms.append((name, e, None))
                continue
            if name not in gens:
                gens[name] = generator(spec, name)
            const += sign * e * shift_of(gens[name])
            g = power(spec, gens[name], e)
            run = g if run is None else mul(spec, run, g)
        if run is not None or not terms:
            terms.append((None, 0, identity(spec) if run is None else run))
        return terms, const

    forms, sides = [], []
    for lhs, rhs in system.equations:
        coefs: dict = {}
        lterms, lconst = compile_side(lhs, 1, coefs)
        rterms, rconst = compile_side(rhs, -1, coefs)
        forms.append((lconst + rconst, [(x, c) for x, c in coefs.items() if c]))
        sides.append((lterms, rterms))

    def value(terms, assignment):
        acc = None
        for name, e, g in terms:
            if name is not None:
                g = power(spec, assignment[name], e)
            acc = g if acc is None else mul(spec, acc, g)
        return acc

    def check(assignment) -> bool:
        for total, coefs in forms:
            for name, c in coefs:
                total += c * shift_of(assignment[name])
            if total:
                return False
        return all(
            value(lterms, assignment) == value(rterms, assignment)
            for lterms, rterms in sides
        )

    return check


class _WitnessSearch:
    def __init__(self, system, build: Build | None, budget: Budget):
        self.system = system
        self.budget = budget
        self.check = _witness_check(system)
        self.pending = deque()
        if build is not None:
            self.pending.extend(_lift_candidates(system, build, budget))
        self.gen = self._assignments()
        self.checked = 0
        self.exhausted = False

    def _layers(self):
        spec = self.system.spec
        cache: dict[int, list] = {}

        def layer(s: int):
            if s not in cache:
                if spec.kind == "bs":
                    cache[s] = _bs_layer(spec.k, s)
                else:
                    cache[s] = _wreath_layer(spec, s, self.budget.candidates_per_step * 4)
            return cache[s]

        return layer

    def _assignments(self):
        names = list(self.system.variables)
        if not names:
            yield {}
            return
        layer = self._layers()
        radius = self.budget.radius
        for total in range(0, radius * len(names) + 1):
            for sizes in itertools.product(range(radius + 1), repeat=len(names)):
                if sum(sizes) != total:
                    continue
                for combo in itertools.product(*[layer(s) for s in sizes]):
                    yield dict(zip(names, combo))

    def step(self, cap: int):
        n = 0
        while n < cap:
            if self.pending:
                cand = self.pending.popleft()
            else:
                cand = next(self.gen, None)
                if cand is None:
                    self.exhausted = True
                    return None
            n += 1
            self.checked += 1
            if self.check(cand):
                return cand
        return None


def _verified(system, witness: dict) -> dict:
    """The witness, once the plain ``verify_witness`` has accepted it too."""
    if not verify_witness(system, witness):
        raise RuntimeError("witness accepted by the compiled check fails verify_witness")
    return witness


def enumerate_search(system: EquationSystem, budget: Budget | None = None):
    """Standalone witness enumeration; returns a verified assignment or None."""
    budget = budget or Budget()
    search = _WitnessSearch(system, None, budget)
    while not search.exhausted:
        w = search.step(budget.candidates_per_step)
        if w is not None:
            return _verified(system, w)
    return None


# ---------------------------------------------------------------------------
# Top level


def _wrap_cert(cert: dict, system, budget: Budget) -> dict:
    out = {
        "version": CERT_VERSION,
        "system_hash": system_hash(system),
    }
    out.update(cert)
    return out


def _linear_infeasible(stage, forms, evars, sol) -> dict:
    return {
        "kind": "linear_infeasible",
        "stage": stage,
        "rows": [[f.coef(v) for v in evars] for f in forms],
        "rhs": [-f.const for f in forms],
        "witness_row": list(sol.cert_row),
    }


def _abelian_forms(system):
    """BS(1,1) is free abelian of rank 2: the reduced rows become linear forms.

    Returns the forms and their variables, unknowns' a-parts first.
    """
    red = reduce_bs(system)
    forms = list(red.linear)
    for row in red.rows:
        f = AffineForm.constant(sum(c for _, c in row.const.terms))
        for v, s in row.coeffs.items():
            f = f + AffineForm.var(v, sum(c for _, c in s.terms))
        forms.append(f)
    return forms, list(red.zvars) + list(red.rvars)


def _decide_abelian_bs(system, budget: Budget) -> Verdict:
    """BS(1,1) is free abelian of rank 2; everything is one linear solve."""
    forms, allvars = _abelian_forms(system)
    sol = solve_forms(forms, allvars)
    if sol.status == "empty":
        cert = _wrap_cert(_linear_infeasible("abelian", forms, allvars, sol), system, budget)
        return Verdict("unsat", certificate=cert, stats={"stage": "abelian"})
    vals = dict(zip(allvars, sol.particular))
    witness = {
        name: BsElement(ZkFrac.integer(vals[name], 1), vals[rvar(name)])
        for name in system.variables
    }
    if verify_witness(system, witness):
        return Verdict("sat", witness=witness, stats={"stage": "abelian"})
    return Verdict("unknown", stats={"stage": "abelian", "note": "lift failed"})


def decide(system: EquationSystem, budget: Budget | None = None) -> Verdict:
    budget = budget or Budget()
    t0 = time.monotonic()
    deadline = t0 + budget.time_limit if budget.time_limit else None
    spec = system.spec
    if spec.kind == "bs" and spec.k == 1:
        return _decide_abelian_bs(system, budget)

    build = _build(system, budget, deadline)
    stats: dict = {
        "branches": len(build.finals) + len(build.refuted),
        "final_branches": len(build.finals),
        "refuted_at_build": len(build.refuted),
        "coverage_complete": not build.overflow,
        "p1_steps": 0,
        "p2_levels": 0,
        "candidates_checked": 0,
        "rounds": 0,
    }
    if build.linear_cert is not None:
        return Verdict(
            "unsat",
            certificate=_wrap_cert(build.linear_cert, system, budget),
            stats=stats,
        )

    def unsat_cert():
        # dead residual branches are certified only now, for this verdict
        entries = [
            {
                "path": r.path,
                "cert": r.cert
                if r.cert is not None
                else _refute_residuals(build.kind, build.k, r.parts, r.params, budget),
            }
            for r in build.refuted
        ]
        entries += [{"path": path, "cert": m.cert} for path, m in managers]
        entries.sort(key=lambda e: e["path"])
        if len(entries) == 1:
            inner = dict(entries[0]["cert"])
            inner["path"] = entries[0]["path"]
            return _wrap_cert(inner, system, budget)
        return _wrap_cert(
            {"kind": "branch_refutation", "branches": entries}, system, budget
        )

    managers = [
        (f.path, _BranchSearches(build.kind, build.k, f.parts, f.params, budget))
        for f in build.finals
    ]

    if not build.overflow and not build.finals:
        if build.refuted:
            return Verdict("unsat", certificate=unsat_cert(), stats=stats)
        # nothing reduced and nothing refuted: the empty assignment space
    p1 = _WitnessSearch(system, build, budget)

    while stats["rounds"] < budget.steps:
        if deadline is not None and time.monotonic() > deadline:
            break
        stats["rounds"] += 1
        first = stats["rounds"] == 1
        progressed = False
        cap = budget.candidates_per_step
        if first and p1.pending:
            # lifted branch solutions are the cheapest witnesses: check them
            # before refinement, against the round's shared candidate cap
            w = p1.step(min(cap, len(p1.pending)))
            stats["p1_steps"] += 1
            stats["candidates_checked"] = p1.checked
            if w is not None:
                return Verdict("sat", witness=_verified(system, w), stats=stats)
            cap -= p1.checked
        # the first round gives refinement a head start: cheap early levels
        # often refute outright, skipping ball enumeration entirely
        for _ in range(2 if first else 1):
            for _, man in managers:
                if man.state == "running":
                    man.step()
                    stats["p2_levels"] += 1
                    progressed = True
            if (
                not build.overflow
                and managers
                and all(m.state == "refuted" for _, m in managers)
            ):
                return Verdict("unsat", certificate=unsat_cert(), stats=stats)
        if not p1.exhausted:
            w = p1.step(cap)
            if not (first and stats["p1_steps"]):
                # a lifted check above already counted round 1's step
                stats["p1_steps"] += 1
            stats["candidates_checked"] = p1.checked
            if w is not None:
                return Verdict("sat", witness=_verified(system, w), stats=stats)
        if not progressed and p1.exhausted:
            break

    stats["frontier"] = [
        {
            "path": path,
            "state": m.state,
            "levels": m.levels,
            "searches": [
                {"desc": desc, "state": s.state, "chain": len(s.chain)}
                for desc, s in m.searches
            ],
        }
        for path, m in managers
    ]
    return Verdict("unknown", stats=stats)


# ---------------------------------------------------------------------------
# Certificate verification (deterministic replay, no open-ended search)


def _bs_chain_ok(chain, k) -> bool:
    if not isinstance(chain, list) or not chain:
        return False
    return all(
        isinstance(q, int) and q >= 2 and math.gcd(q, k) == 1 for q in chain
    )


def _monic_chain_ok(chain, ring) -> bool:
    if not isinstance(chain, list) or not chain:
        return False
    for h in chain:
        if not isinstance(h, (list, tuple)) or len(h) < 2:
            return False
        if any(not isinstance(c, int) or not 0 <= c < ring for c in h):
            return False
        if h[-1] != 1 or math.gcd(h[0], ring) != 1:
            return False
    return True


def _is_prime(n) -> bool:
    if not isinstance(n, int) or n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def _replay(kind, k, part: Part, params, inner, budget) -> bool:
    """Whether the chain of a modulus obstruction empties the refinement of
    ``part`` (as the search that found it saw the part) at its last level."""
    chain = inner.get("chain")
    if kind == "bs":
        if inner.get("base") != k or not _bs_chain_ok(chain, k):
            return False
        search = _BsSearch(part.pivots, part.residuals, params, k, budget, chain=chain)
    else:
        ring = inner.get("ring")
        if inner.get("projected_from") == 0:
            if part.mod is not None or not _is_prime(ring):
                return False
            rows, res = _project_rows(part.pivots, part.residuals, ring)
        elif ring == part.mod:
            rows, res = part.pivots, part.residuals
        elif part.mod is not None and isinstance(ring, int) and ring >= 2 and part.mod % ring == 0:
            rows, res = _project_rows(part.pivots, part.residuals, ring)
        else:
            return False
        if not _monic_chain_ok(chain, ring):
            return False
        search = _WreathSearch(rows, res, params, ring, budget, chain=chain)
    for _ in chain:
        search.step()
    return search.state == "refuted"


def _check_obstruction(build: Build, parts, params, stage, cert: dict, budget) -> bool:
    """Check the certificate of one branch whose ``parts`` the obstruction
    searches saw at ``stage``: "pivots" for a final branch, "residual" for a
    dead residual system (which may also be certified by its emptiness)."""
    comp, inner = None, cert
    if build.kind == "wreath":
        if cert.get("kind") != "component_obstruction":
            return False
        comp, inner = cert.get("component"), cert.get("inner")
        if not isinstance(inner, dict):
            return False
    part = next((p for p in parts if build.kind == "bs" or p.component == comp), None)
    if part is None or inner.get("stage") != stage:
        return False
    if inner.get("rows") != _cert_rows(parts, build.kind, stage):
        return False
    if list(inner.get("params", ())) != list(params):
        return False
    if inner.get("kind") == "empty_disjunction" and stage == "residual":
        return not _residual_solutions(build.kind, build.k, part)
    if inner.get("kind") != "modulus_obstruction":
        return False
    return _replay(build.kind, build.k, part, params, inner, budget)


def _check_branch_cert(build: Build, path: str, cert: dict, budget) -> bool:
    for r in build.refuted:
        if r.path == path:
            if r.cert is not None:
                # recorded by the build, so recomputed verbatim by the rebuild
                return cert == r.cert
            return _check_obstruction(build, r.parts, r.params, "residual", cert, budget)
    for f in build.finals:
        if f.path == path:
            return _check_obstruction(build, f.parts, f.params, "pivots", cert, budget)
    return False


def verify_certificate(cert: dict, system: EquationSystem) -> bool:
    """Replay a refutation certificate against the system it claims to refute.

    Only the recorded branches and moduli are revisited; verification never
    searches.  Any mismatch, including a wrong hash or a chain that fails to
    empty the final refinement level, yields False.
    """
    try:
        if cert.get("version") != CERT_VERSION:
            return False
        if cert.get("system_hash") != system_hash(system):
            return False
        # replay caps are fixed and generous; certificates are only issued
        # when coverage was complete, so the rebuild below is reproducible
        budget = Budget(branch_cap=4096)
        kind = cert.get("kind")
        spec = system.spec
        got = {kk: vv for kk, vv in cert.items() if kk not in ("version", "system_hash")}

        if spec.kind == "bs" and spec.k == 1:
            forms, allvars = _abelian_forms(system)
            sol = solve_forms(forms, allvars)
            if sol.status != "empty":
                return False
            return got == _linear_infeasible("abelian", forms, allvars, sol)

        if kind == "linear_infeasible":
            build = _build(system, budget)
            return build.linear_cert is not None and got == build.linear_cert

        build = _build(system, budget)
        if build.linear_cert is not None or build.overflow:
            return False
        if kind == "branch_refutation":
            entries = cert.get("branches")
            if not isinstance(entries, list):
                return False
            paths = [e.get("path") for e in entries]
        else:
            entries = [{"path": cert.get("path"), "cert": cert}]
            paths = [cert.get("path")]
        all_paths = sorted(
            [r.path for r in build.refuted] + [f.path for f in build.finals]
        )
        if sorted(paths) != all_paths:
            return False
        for e in entries:
            inner = {
                kk: vv
                for kk, vv in e["cert"].items()
                if kk not in ("version", "system_hash", "path")
            }
            if not _check_branch_cert(build, e["path"], inner, budget):
                return False
        return True
    except Exception:
        return False


def build_report(system: EquationSystem, verdict: Verdict, budget: Budget, seconds: float) -> dict:
    from .frontend import render_system
    from .groups import render_element

    witness = None
    if verdict.witness is not None:
        witness = {
            v: render_element(system.spec, g) for v, g in sorted(verdict.witness.items())
        }
    return {
        "format": 1,
        "tool": {"name": "groupeq", "version": VERSION},
        "system": render_system(system),
        "system_hash": system_hash(system),
        "group": system.spec.render(),
        "verdict": verdict.status,
        "witness": witness,
        "certificate": verdict.certificate,
        "stats": verdict.stats,
        "budget": {
            "steps": budget.steps,
            "max_prime_power": budget.max_prime_power,
            "max_monic_degree": budget.max_monic_degree,
            "radius": budget.radius,
            "time_limit": budget.time_limit,
        },
        "timing": {"seconds": round(seconds, 6)},
    }
