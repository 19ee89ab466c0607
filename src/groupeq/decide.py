"""Decision procedure for word equation systems over the supported groups.

The input system is reduced to rows per coefficient component, BS(1,k)
being the one component -1 (``reduce.reduce_system``), and case-split into
finitely many triangular branches; the build solves each distinct residual
system exactly once per call, however many branches share it, and builds a
child branch's state only when its queue pops it, side conditions first.
Every branch is attacked from two sides at once:

* a witness search accepts an assignment lifted from branch solutions when
  ``groups.verify_witness`` does, the exact re-multiplication that
  ``--verify-only`` also runs.  One lift (``_lift``) solves each pivot row
  coef * X = -rest for its unknown X by exact division in its part's ring,
  Z[1/k], Z[t, t^-1] or Z_n[t, t^-1]: a root X^n = w is lifted when
  1 + t^x + ... + t^((n-1)x) divides the lamps of w.  A retry solves a row
  that does not divide for an unknown without a pivot, or for both by
  Bezout (Z[1/k], Z_p[t, t^-1]);
* an obstruction search refines joint residue constraints over a growing
  chain of moduli, and an empty refinement level refutes the whole branch.

Both refinements, over BS(1,k) and over A wr Z, run the level loop of
``_Refinement``; each ring supplies only its arithmetic, and the chain of
moduli is handed in, so a certificate replays through the same loop.  One
constructor, ``_search``, builds a refinement for the search and for the
replay.  One scheduler, ``_BranchSearches``, steps every refinement of a
branch: a torsion component's refinements over its ring and its divisors
run from the first round, and an integer component gains one new prime
projection to Z_p[t] per round, primes ascending.

Every Unsat verdict ships a certificate that can be replayed independently
of the search that found it.  A ``Budget`` (``steps``, ``max_prime_power``,
``max_monic_degree``, ``time_limit``, ``candidates_per_step``) and four
fixed caps make each run terminate: ``BRANCH_CAP`` case-split branches per
build (defined in ``reduce``), and, defined here, ``NODE_CAP`` refinement
nodes and ``WORK_CAP`` units of work per level and ``ATTEMPT_LEVELS``
refinement rounds on a dead residual system.  Running out of budget yields
Unknown, never a wrong answer.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from .frontend import EquationSystem, system_hash
from .groups import BsElement, WreathElement, verify_witness
from .intlinalg import AffineForm, apply_solution, solve_linear
from .expsolve import SemenovSystem, semenov_solve, grouping_solve, solve_forms
from .reduce import (
    BRANCH_CAP,
    BranchOverflow,
    ExpSum,
    Row,
    reduce_system,
    rvar,
    triangularize,
    xvar,
    yvar,
)
from .rings import (
    LaurentPoly,
    RElem,
    ZkFrac,
    is_prime,
    monic_enum,
    mult_order,
    poly_add,
    poly_bezout,
    poly_make,
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
# refinement nodes kept per level; a level also stops after WORK_CAP
# parameter extensions and residue picks
NODE_CAP = 4000
WORK_CAP = 200 * NODE_CAP


class Budget(NamedTuple):
    """Resource limits; every field bounds one axis of the search.

    Five fields: ``steps``, ``max_prime_power``, ``max_monic_degree``,
    ``time_limit`` and ``candidates_per_step`` (lifted candidates checked
    per round).  Four caps are constants rather than fields: a build keeps
    at most ``BRANCH_CAP`` case-split branches (defined in ``reduce``), and,
    defined in this module, a refinement level at most ``NODE_CAP`` nodes
    and ``WORK_CAP`` units of work, and the refinement that certifies a
    dead residual branch runs for at most ``ATTEMPT_LEVELS`` rounds.
    Replay uses the same caps, so a chain replays as the search saw it.
    That refinement runs only when ``decide`` returns unsat, within
    ``max_prime_power`` and ``max_monic_degree``.
    """

    steps: int = 48                  # scheduler rounds per procedure
    max_prime_power: int = 256       # largest modulus q = p^m tried
    max_monic_degree: int = 3        # largest polynomial modulus degree
    time_limit: float | None = None
    candidates_per_step: int = 4000


class Verdict(NamedTuple):
    status: str  # "sat" | "unsat" | "unknown"
    witness: dict | None = None
    certificate: dict | None = None
    stats: dict | None = None  # ``decide`` always fills it


# ---------------------------------------------------------------------------
# Branch construction


class Part(NamedTuple):
    """Rows of one coefficient component inside a branch (BS has one part)."""

    component: int            # -1 for BS
    mod: int | None           # None: integer coefficients
    pivots: list
    residuals: list


class FinalBranch(NamedTuple):
    path: str
    parts: list
    varmap: dict
    params: list


class Refuted(NamedTuple):
    path: str
    cert: dict | None  # None: a dead residual system, certified on demand
    parts: list
    params: list


class Build:
    """The branches of one case analysis, filled as ``_building`` runs.
    ``k`` is the group's: the base of BS(1,k), 0 for A wr Z."""

    def __init__(self, kind: str, k: int):
        self.kind = kind
        self.k = k
        self.finals: list = []
        self.refuted: list = []
        self.overflow = False
        self.linear_cert: dict | None = None


class _State(NamedTuple):
    comp_rows: list
    varmap: dict
    params: list
    sides: list
    path: str
    depth: int


def _residual_terms(s: ExpSum):
    return tuple((c, f) for f, c in s.terms)


def _base(kind) -> str:
    """The letter that rows print for the base of their monomials."""
    return "k" if kind == "bs" else "t"


def _render_rows(parts, kind) -> list:
    out = []
    base = _base(kind)
    for part in parts:
        for u, row in part.pivots:
            out.append(f"[{part.component}] pivot {u}: {row.render(base)}")
        for s in part.residuals:
            out.append(f"[{part.component}] {s.render(base)} = 0")
    return out


def _cert_rows(parts, kind, stage) -> list:
    """The rows that a certificate at ``stage`` records for ``parts``."""
    if stage == "residual":
        return [s.render(_base(kind)) + " = 0" for part in parts for s in part.residuals]
    return _render_rows(parts, kind)


def _residual_key(part: Part) -> tuple:
    """A part's ring and the terms of its residual rows, in row order: what
    its residual disjunction depends on, for a fixed group."""
    return part.mod, tuple(_residual_terms(s) for s in part.residuals)


def _residual_solutions(kind, k, key) -> list:
    """The exact solver's disjunction for the residual rows of one part,
    given by its ``_residual_key``."""
    mod, eqs = key
    if kind == "bs":
        return semenov_solve(SemenovSystem.make([(t, 0) for t in eqs], k))
    return grouping_solve(eqs, mod)


def _child(parent: _State, psol, combo, path: str):
    """The state below ``parent`` for one pick of its residual disjunctions,
    whose solution over the parent's parameters is ``psol``.

    Built when the queue pops it, side conditions first: when one vanishes
    the child is a ``Refuted`` at stage side-assumption, and its varmap and
    rows are never substituted.
    """
    _, params2, sub = apply_solution(psol, parent.params, [], f"p{parent.depth}_")
    sides2 = [s.substitute(sub) for s in parent.sides] + [
        s.substitute(sub) for tb in combo for s in tb.side
    ]
    if any(s.is_zero() for s in sides2):
        return Refuted(path, {"kind": "empty_disjunction", "stage": "side-assumption"}, [], params2)
    varmap2 = {v: f.substitute(sub) for v, f in parent.varmap.items()}
    rows2 = [[row.substitute(sub) for _, row in tb.pivots] for tb in combo]
    return _State(rows2, varmap2, params2, sides2, path, parent.depth + 1)


def _building(system: EquationSystem, deadline=None):
    """Case analysis over the reduced system, as a stream of final branches.

    Yields the ``Build`` it fills first, then each surviving triangular
    branch as it is appended to ``build.finals``, breadth first.  Branches
    refuted on the way go to ``build.refuted``; a branch whose residual
    system has no solution is recorded with only its residual rows, and
    ``_refute_residuals`` certifies it when an unsat verdict needs that.  A
    consumer that stops early leaves a partial build; ``_build`` drains the
    stream.  Deterministic: a rebuild reproduces the branches and recorded
    certificates of a build that did not overflow verbatim.

    Each distinct residual system (``_residual_key``) is solved once per
    call, and its disjunction is shared by every branch that meets it; it is
    only read.  The memo dies with the call: a cache across calls would
    only pay off on a caller that repeats inputs, and a benchmark that
    cycles through its inputs would then measure the cache.

    A pick of a branch's disjunctions is solved over the branch's
    parameters at once, which settles whether it is empty, holds
    identically (a final branch) or leaves a child.  The child state is
    queued unbuilt and made by ``_child`` when the queue pops it, side
    conditions first, so the children a consumer never reaches cost
    nothing more.
    """
    kind, k = system.spec.kind, system.spec.k
    red = reduce_system(system)
    evars, lin = red.evars, red.linear
    build = Build(kind, k)
    sol = solve_forms(lin, evars)
    if sol.status == "empty":
        build.linear_cert = _linear_infeasible("shared-linear", lin, evars, sol)
        yield build
        return
    yield build

    varfs, params, _ = apply_solution(
        sol, evars, [AffineForm.var(v) for v in evars], "p0_"
    )
    varmap = dict(zip(evars, varfs))
    rows0 = [[r.substitute(varmap) for r in c.rows] for c in red.components]

    finals, refuted = build.finals, build.refuted
    solved: dict = {}  # _residual_key -> disjunction, for this call only
    # the root state, then children as _child's arguments, built when popped
    queue = deque([_State(rows0, varmap, list(params), [], "", 1)])

    while queue:
        if deadline is not None and time.monotonic() > deadline:
            build.overflow = True
            return
        if len(finals) + len(refuted) >= BRANCH_CAP:
            build.overflow = True
            return
        st = queue.popleft()
        if not isinstance(st, _State):
            st = _child(*st)
            if isinstance(st, Refuted):
                refuted.append(st)
                continue
        try:
            tri_lists = [
                triangularize(rows, c.mod, BRANCH_CAP)
                for c, rows in zip(red.components, st.comp_rows)
            ]
        except BranchOverflow:
            build.overflow = True
            return
        for combo in itertools.product(*tri_lists):
            path = st.path + "/t" + "+".join(tb.path or "-" for tb in combo)
            parts = [
                Part(c.component, c.mod, list(tb.pivots), list(tb.residuals))
                for c, tb in zip(red.components, combo)
            ]
            if len(finals) + len(refuted) >= BRANCH_CAP:
                build.overflow = True
                return

            disjunctions = []
            dead = None
            for part in parts:
                if not part.residuals:
                    continue
                key = _residual_key(part)
                dis = solved.get(key)
                if dis is None:
                    dis = solved[key] = _residual_solutions(kind, k, key)
                if not dis:
                    dead = Part(part.component, part.mod, [], part.residuals)
                    break
                disjunctions.append(dis)
            if dead is not None:
                refuted.append(Refuted(path, None, [dead], st.params))
                continue

            if not disjunctions:
                finals.append(FinalBranch(path, parts, dict(st.varmap), list(st.params)))
                yield finals[-1]
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
                    yield finals[-1]
                    any_child = done = True
                    break
                queue.append((st, psol, combo, path + f"/d{di}"))
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


def _build(system: EquationSystem, deadline=None) -> Build:
    """The whole case analysis: ``_building`` drained to its end."""
    stream = _building(system, deadline)
    build = next(stream)
    for _ in stream:
        pass
    return build


def _finals(build: Build, stream):
    """``build.finals`` in order, advancing ``stream`` (the ``_building`` that
    fills ``build``) only when every branch built so far has been taken."""
    i = 0
    while i < len(build.finals) or next(stream, None) is not None:
        yield build.finals[i]
        i += 1


# ---------------------------------------------------------------------------
# Obstruction searches (joint residue refinement)


def _saturated(search) -> str:
    search.state = "saturated"
    return search.state


class _Refinement:
    """Joint residue refinement of pivot rows over a chain of moduli.

    A node pins every exponent parameter mod ``var_mod`` (the lcm of the
    periods of the processed moduli) and every unknown's residue modulo the
    processed moduli.  A level takes the next modulus m from ``schedule``;
    a node's parameter extension survives when its residual rows vanish mod
    m and some extension of the unknowns' residues makes every pivot row
    vanish mod m.  An empty level is a refutation and the processed chain is
    the certificate.  A level that keeps more than ``NODE_CAP`` nodes or
    does more than ``WORK_CAP`` units of work saturates the search.
    Certificate replay runs the same loop, so a level too big for a search
    is too big for a replay, whatever modulus a certificate names.

    A ring adapter sets ``zero``, the residue of an unknown before the first
    level, and supplies ``_width(m)`` and ``_level(m)``.  ``_width(m)``
    bounds both the number of residues one unknown's residue extends to at
    modulus m and the length of the search for the period; it is charged as
    work once for the setup and once per unknown of every node, before any
    of that is listed.  ``_level(m)`` returns the period of the
    parameters mod m, an evaluator of an ``ExpSum`` at a parameter point,
    the extensions of one unknown's residue as (residue, value mod m) pairs,
    and a test whether a row (terms, constant) vanishes at a pick of
    extensions.  ``_level`` may advance the adapter's residue modulus at
    once: a level either completes or ends the search.
    """

    def __init__(self, rows, residuals, params, schedule):
        self.rows = [row for _, row in rows]
        self.residuals = list(residuals)
        self.unknowns = sorted({u for row in self.rows for u in row.coeffs})
        self.params = list(params)
        self.schedule = schedule
        self.var_mod = 1
        self.frontier = [((0,) * len(self.params), (self.zero,) * len(self.unknowns))]
        self.chain: list = []
        self.state = "running"

    def step(self) -> str:
        if self.state != "running":
            return self.state
        m = next(self.schedule, None)
        if m is None:
            self.state = "exhausted"
            return self.state
        width = self._width(m)
        work = width
        if work > WORK_CAP:
            return _saturated(self)
        period, evaluate, extend, vanishes = self._level(m)
        m2 = math.lcm(self.var_mod, period)
        shifts = range(0, m2, self.var_mod)
        index = {u: i for i, u in enumerate(self.unknowns)}
        new: dict = {}
        for vals, residues in self.frontier:
            work += width * len(residues)
            if work > WORK_CAP:
                return _saturated(self)
            extensions = [extend(r) for r in residues]
            for shift in itertools.product(shifts, repeat=len(self.params)):
                work += 1
                if work > WORK_CAP:
                    return _saturated(self)
                vals2 = tuple(map(operator.add, vals, shift))
                env = dict(zip(self.params, vals2))
                if not all(vanishes((), evaluate(s, env), ()) for s in self.residuals):
                    continue
                rows = []
                for row in self.rows:
                    terms = [(index[u], evaluate(s, env)) for u, s in row.coeffs.items()]
                    rows.append(([t for t in terms if t[1]], evaluate(row.const, env)))
                for pick in itertools.product(*extensions):
                    work += 1
                    if work > WORK_CAP:
                        return _saturated(self)
                    if all(vanishes(terms, const, pick) for terms, const in rows):
                        new[(vals2, tuple(r for r, _ in pick))] = True
                        if len(new) > NODE_CAP:
                            return _saturated(self)
        self.chain.append(m)
        self.var_mod = m2
        if new:
            self.frontier = sorted(new)
        else:
            self.state = "refuted"
        return self.state


class _BsSearch(_Refinement):
    """Refinement over integer moduli q coprime to k, usually prime powers.

    An unknown's residue is kept mod ``unknown_mod``, the lcm of the
    processed moduli: by CRT, its residue mod the highest processed power of
    every prime.
    """

    component = None
    zero = 0

    def __init__(self, rows, residuals, params, k, schedule):
        super().__init__(rows, residuals, params, schedule)
        self.base = k
        self.unknown_mod = 1

    def _width(self, q):
        return q

    def _level(self, q):
        k = self.base
        period = mult_order(k, q)
        old = self.unknown_mod
        mod = self.unknown_mod = math.lcm(old, q)

        def evaluate(s: ExpSum, env) -> int:
            return sum(c * pow(k, f.evaluate(env) % period, q) for f, c in s.terms) % q

        def extend(r):
            return [(r2, r2 % q) for r2 in range(r, mod, old)]

        def vanishes(terms, const, pick) -> bool:
            return (sum(c * pick[i][1] for i, c in terms) + const) % q == 0

        return period, evaluate, extend, vanishes


class _WreathSearch(_Refinement):
    """Refinement over monic polynomial moduli h with unit constant term.

    Works in Z_ring[t]/(h); every polynomial unknown carries its residue mod
    ``hprod``, the product of the processed moduli, extended level by level
    (base-H digit expansion, so non-coprime moduli are fine).
    """

    base = None
    projected_from = None
    zero = ()

    def __init__(self, rows, residuals, params, ring, schedule, component=None):
        super().__init__(rows, residuals, params, schedule)
        self.ring = ring
        self.component = component
        self.hprod: tuple = (1,)

    def _width(self, m):
        return self.ring ** (len(m) - 1)

    def _level(self, m):
        n = self.ring
        h = tuple(m)
        period = t_period(h, n)
        lifts = [
            poly_mul(self.hprod, v, n)
            for v in itertools.product(range(n), repeat=len(h) - 1)
        ]
        self.hprod = poly_mul(self.hprod, h, n)
        tpow: dict = {}

        def evaluate(s: ExpSum, env) -> tuple:
            acc: tuple = ()
            for f, c in s.terms:
                e = f.evaluate(env) % period
                if e not in tpow:
                    tpow[e] = poly_pow_t(e, h, n)
                acc = poly_add(acc, poly_scale(tpow[e], c, n), n)
            return acc

        def extend(r):
            out = []
            for lift in lifts:
                r2 = poly_add(r, lift, n)
                out.append((r2, poly_reduce(r2, h, n)))
            return out

        def vanishes(terms, acc, pick) -> bool:
            for i, cf in terms:
                acc = poly_add(acc, poly_reduce(poly_mul(cf, pick[i][1], n), h, n), n)
            return not poly_reduce(acc, h, n)

        return period, evaluate, extend, vanishes


def _monics(ring: int, max_degree: int):
    """Monic moduli over Z_ring with unit constant term, degree by degree."""
    for d in range(1, max_degree + 1):
        for h in monic_enum(ring, d):
            if math.gcd(h[0] % ring, ring) == 1:
                yield list(h)


def _project_rows(pivots, residuals, mod: int):
    def project(s: ExpSum) -> ExpSum:
        return ExpSum.make(s.terms, mod)

    rows = [
        (u, Row({v: project(s) for v, s in row.coeffs.items()}, project(row.const)).normalized())
        for u, row in pivots
    ]
    return rows, [s for s in map(project, residuals) if not s.is_zero()]


def _search(kind, k, part, params, ring, schedule):
    """The refinement of ``part`` over the moduli of ``schedule``.

    Over A wr Z it runs in Z_ring[t]: on the part's own rows when ``ring`` is
    the part's coefficient ring, else on the rows projected to Z_ring (a
    divisor of a torsion order, or a prime for an integer component, whose
    certificate then says ``projected_from`` 0).  ``ring`` is unused for
    BS(1,k).  Search and certificate replay both build refinements here.
    """
    if kind == "bs":
        return _BsSearch(part.pivots, part.residuals, params, k, schedule)
    if ring == part.mod:
        rows, res = part.pivots, part.residuals
    else:
        rows, res = _project_rows(part.pivots, part.residuals, ring)
    search = _WreathSearch(rows, res, params, ring, schedule, part.component)
    if part.mod is None:
        search.projected_from = 0
    return search


def _part_searches(kind, k, part, params, budget):
    """The obstruction searches of one component of a branch.

    Returns the searches that run from the first round, and an iterator of
    the searches admitted one per round: an integer component's prime
    projections, primes ascending up to ``max_prime_power``.
    """
    if kind == "bs":
        schedule = itertools.takewhile(
            lambda q: q <= budget.max_prime_power, prime_powers_coprime(k)
        )
        return [_search(kind, k, part, params, None, schedule)], iter(())

    def over(ring):
        return _search(kind, k, part, params, ring, _monics(ring, budget.max_monic_degree))

    if part.mod is None:
        return [], map(over, itertools.takewhile(lambda p: p <= budget.max_prime_power, primes()))
    divisors = [part.mod] + [d for d in range(part.mod - 1, 1, -1) if part.mod % d == 0]
    return [over(d) for d in divisors], iter(())


def _describe(search) -> dict:
    """How the frontier of an unknown verdict names a search."""
    if search.base is not None:
        return {"base": search.base}
    return {"component": search.component, "ring": search.ring}


class _BranchSearches:
    """Every obstruction search of one branch, stepped in rounds.

    A round goes through the branch's components in order.  It admits the
    component's next lazy search, if any (an integer component gains one new
    prime projection per round), and then steps each running search of that
    component once, oldest first, so no single prime starves the others.
    The branch stays running while some search runs or a projection was
    admitted.  The first search refuted yields the branch's certificate,
    recorded at ``stage`` ("pivots" for a final branch, "residual" for a dead
    residual system).
    """

    def __init__(self, kind, k, parts, params, budget, stage="pivots"):
        self.params = params
        self.stage = stage
        self.rows = _cert_rows(parts, kind, stage)
        self.components = [
            _part_searches(kind, k, part, params, budget)
            for part in parts
            if part.pivots or part.residuals
        ]
        self.state = "running" if self.components else "stalled"
        self.cert: dict | None = None
        self.levels = 0

    def step(self) -> str:
        if self.state != "running":
            return self.state
        live = False
        for searches, admit in self.components:
            new = next(admit, None)
            if new is not None:
                searches.append(new)
                live = True
            for search in searches:
                if search.state != "running":
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


def _div_exact(c: int, v: int, mod: int | None) -> int | None:
    if mod is None:
        return c // v if v and c % v == 0 else None
    v %= mod
    c %= mod
    g = math.gcd(v, mod)
    if c % g:
        return None
    return (c // g) * pow(v // g, -1, mod // g) % (mod // g)


def _laurent_div(num: dict, den: dict, mod: int | None) -> dict | None:
    """A quotient q with den * q == num over Z[t, t^-1] (mod None) or
    Z_mod[t, t^-1], by long division from the top degree, or None.

    num's coefficients are nonzero (mod ``mod``).  Each step divides the
    remainder's coefficient at a cursor degree by den's leading coefficient
    with ``_div_exact`` and subtracts that multiple of den in place; the
    remainder's top degree only falls, so the cursor walks down one degree
    at a time.  The quotient may not reach below min(num) - min(den), which
    is where it ends over Z and over a prime ring; there the quotient is
    unique, and None means that none exists.  Over a composite ring a zero
    divisor at either end of den can leave several quotients, or put the
    only one below that degree; the result is then one of them, or None.
    """
    if not num:
        return {}
    if not den:
        return None
    top = max(den)
    lead = den[top]
    lower = [(e - top, c) for e, c in den.items() if e != top]
    floor = min(num) - min(den) + top
    rest, q = dict(num), {}
    d = max(rest)
    while rest:
        if d < floor:
            return None
        c = rest.pop(d, 0)
        if c:
            w = _div_exact(c, lead, mod)
            if w is None:
                return None
            q[d - top] = w
            for e, cd in lower:
                v = rest.get(d + e, 0) - w * cd
                if mod is not None:
                    v %= mod
                if v:
                    rest[d + e] = v
                else:
                    rest.pop(d + e, None)
        d -= 1
    return q


def _back_substitute(pivots, ev, rest, divide, bezout, choice):
    """The pivot rows of one part solved bottom up at one parameter point,
    as {unknown: value}, or None.

    A row coef * u + r = 0 gives u = ``divide(rest(row, u, assigned), coef)``,
    where rest is -r with every unknown not in ``assigned`` at 0; ``ev``
    evaluates an ``ExpSum``.  ``choice`` (v, pair) solves the first row that
    does not divide once more, if v is in it, pivots no row and is read by
    no row solved before: as v = -r / coef(v) with u at 0, or with ``pair``
    as (u, v) = ``bezout(coef, coef(v), -r)`` where the ring has one.
    """
    pivoted = {u for u, _ in pivots}
    read: set = set()
    assigned: dict = {}
    for u, row in reversed(pivots):
        coef, num = ev(row.coeffs[u]), rest(row, u, assigned)
        q = divide(num, coef)
        if q is None:
            v, pair = choice or (None, False)
            choice = None
            if v not in row.coeffs or v in pivoted or v in read:
                return None
            cv = ev(row.coeffs[v])
            solved = (bezout and bezout(coef, cv, num)) if pair else (None, divide(num, cv))
            if not solved or solved[1] is None:
                return None
            q, assigned[v] = solved
        if q is not None:
            assigned[u] = q
        read.update(row.coeffs)
    return assigned


def _zk_bezout(k: int, a: Fraction, b: Fraction, c: Fraction):
    """(u, v) in Z[1/k] with a*u + b*v == c, or None.  Cleared of powers of k
    (units), the row is solved over Z by ``solve_linear`` with c times e, the
    part of gcd(a, b) made of primes of k, which finds a solution over
    Z[1/k] whenever there is one, as (u/e, v/e)."""
    d = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = int(a * d), int(b * d), int(c * d)
    e, rest = 1, math.gcd(a, b)
    while rest > 1 and (f := math.gcd(rest, k)) > 1:
        e, rest = e * f, rest // f
    sol = solve_linear([[a, b]], [c * e])
    return tuple(Fraction(x, e) for x in sol.particular) if sol.status == "ok" else None


def _laurent_bezout(p: int, a: dict, b: dict, c: dict):
    """(u, v) with a*u + b*v == c over Z_p[t, t^-1], p prime, or None.  t is a
    unit, so each {degree: coefficient} dict is shifted to a polynomial with
    a nonzero constant term, where ``poly_bezout`` solves the pair."""
    lows = [min(f, default=0) for f in (a, b, c)]
    polys = [
        poly_make([f.get(d, 0) for d in range(low, max(f, default=low - 1) + 1)], p)
        for f, low in zip((a, b, c), lows)
    ]
    solved = poly_bezout(*polys, p)
    if solved is None:
        return None
    return tuple({lows[2] - low + i: x for i, x in enumerate(f) if x} for low, f in zip(lows, solved))


def _zk_ring(k: int, env: dict):
    """Z[1/k] at the parameters env for ``_back_substitute``: Fractions, a
    quotient that lies in Z[1/k], and ``_zk_bezout``."""

    def ev(s: ExpSum) -> Fraction:
        return s.eval_fraction(k, env)

    def rest(row, u, assigned) -> Fraction:
        known = [ev(s) * assigned[v] for v, s in row.coeffs.items() if v != u and v in assigned]
        return -ev(row.const) - sum(known)

    def divide(num: Fraction, coef: Fraction):
        if coef and ZkFrac.from_fraction(q := num / coef, k) is not None:
            return q
        return None

    return ev, rest, divide, functools.partial(_zk_bezout, k)


def _laurent_ring(mod: int | None, env: dict):
    """Z[t, t^-1] (mod None) or Z_mod[t, t^-1] at the parameters env for
    ``_back_substitute``: {degree: coefficient} dicts, ``_laurent_div``, and
    ``_laurent_bezout`` for a prime modulus."""

    def ev(s: ExpSum) -> dict:
        return s.eval_laurent(env)

    def rest(row, u, assigned) -> dict:
        acc = dict(ev(row.const))
        for w, s in row.coeffs.items():
            if w != u and w in assigned:
                for dd, cc in ev(s).items():
                    for dw, cw in assigned[w].items():
                        acc[dd + dw] = acc.get(dd + dw, 0) + cc * cw
        return {d: -c for d, c in acc.items() if (c if mod is None else c % mod)}

    divide = functools.partial(_laurent_div, mod=mod)
    bezout = functools.partial(_laurent_bezout, mod) if is_prime(mod) else None
    return ev, rest, divide, bezout


def _lift(system, final: FinalBranch, env: dict, choice=None):
    """``_back_substitute`` in every part at the parameters env, ``choice``
    in each, over the part's ring (``_zk_ring`` for component -1, else
    ``_laurent_ring``), as the family's elements, or None."""
    spec = system.spec
    values = {}
    for part in final.parts:
        ring = _zk_ring(spec.k, env) if part.component < 0 else _laurent_ring(part.mod, env)
        assigned = _back_substitute(part.pivots, *ring, choice)
        if assigned is None:
            return None
        values[part.component] = assigned
    if spec.kind == "bs":
        return {
            name: BsElement(
                ZkFrac.from_fraction(values[-1].get(name, Fraction(0)), spec.k),
                final.varmap[rvar(name)].evaluate(env),
            )
            for name in system.variables
        }
    m, orders = spec.free_rank, spec.torsion
    out = {}
    for name in system.variables:
        lamps = [values[c].get(name, {}) for c in range(spec.n_components)]
        y = final.varmap[yvar(name)].evaluate(env)
        # quotients hold only nonzero, reduced coefficients, so the sorted
        # items are already in canonical form
        items = [
            (d - y, RElem(tuple(f.get(d, 0) for f in lamps[:m]),
                          tuple(f.get(d, 0) for f in lamps[m:]), orders))
            for d in sorted({d for f in lamps for d in f})
        ]
        out[name] = WreathElement(LaurentPoly(tuple(items), m, orders),
                                  final.varmap[xvar(name)].evaluate(env))
    return out


def _multi_term_pivots(final: FinalBranch) -> list:
    """The pivot coefficients of a branch that are not one ExpSum term.  A
    one-term coefficient is one monomial at every parameter point, so only
    these are evaluated to tell a plain lift from a late one."""
    return [row.coeffs[u] for part in final.parts for u, row in part.pivots
            if len(row.coeffs[u].terms) != 1]


def _lifts(system, finals):
    """Assignments suggested by the final branches, small parameters first.

    ``finals`` may be a stream: the plain lifts of each branch are yielded
    as soon as it arrives.  A wreath grid point where a pivot coefficient is
    not one monomial is only queued, and its lift, a Laurent division, is
    made after the last branch.  Then every grid point that did not lift is
    tried again with each choice (v, pair) of ``_back_substitute``, the
    unknowns v in system order.  Each phase follows the one before, so a
    system that an earlier phase decides keeps that witness.  A lift equal
    to an earlier one is skipped.
    """
    seen = set()
    late, failed = [], []

    def lift(final, env, choice=None):
        cand = _lift(system, final, env, choice)
        if cand is None:
            if choice is None:
                failed.append((final, env))
            return
        key = frozenset(cand.items())
        if key not in seen:
            seen.add(key)
            yield cand

    for final in finals:
        nparams = len(final.params)
        if nparams == 0:
            grids = [()]
        elif nparams <= 4:
            grids = itertools.product(range(3), repeat=nparams)
        else:
            grids = [(0,) * nparams]
        # every value of Z[1/k] (component -1) is one monomial c * k^d, so
        # only a branch over Laurent parts has late points
        multi = [] if any(p.component < 0 for p in final.parts) else _multi_term_pivots(final)
        for grid in grids:
            env = dict(zip(final.params, grid))
            if all(len(s.eval_laurent(env)) == 1 for s in multi):
                yield from lift(final, env)
            else:
                late.append((final, env))
    for final, env in late:
        yield from lift(final, env)
    for final, env in failed:
        for choice in itertools.product(system.variables, (False, True)):
            yield from lift(final, env, choice)


class _WitnessSearch:
    """The lifted branch solutions of ``lifts`` (an iterator, pulled only as
    far as the checks go), each checked once by ``verify_witness``, the
    check ``--verify-only`` makes of a report's witness."""

    def __init__(self, system, lifts):
        self.system = system
        self.lifts = iter(lifts)
        self.checked = 0
        self.exhausted = False

    def step(self, cap: int, deadline=None):
        """Check up to cap more candidates, none once ``deadline`` has
        passed; returns the first that passes."""
        for _ in range(cap):
            if deadline is not None and time.monotonic() > deadline:
                break
            cand = next(self.lifts, None)
            if cand is None:
                self.exhausted = True
                break
            self.checked += 1
            # looked up in this module at each call, so a tracer that wraps
            # ``groupeq.decide.verify_witness`` sees every check
            if verify_witness(self.system, cand):
                return cand
        return None


# ---------------------------------------------------------------------------
# Top level


def _wrap_cert(cert: dict, system) -> dict:
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
    red = reduce_system(system)
    forms = list(red.linear)
    for row in red.components[0].rows:
        f = AffineForm.constant(sum(c for _, c in row.const.terms))
        for v, s in row.coeffs.items():
            f = f + AffineForm.var(v, sum(c for _, c in s.terms))
        forms.append(f)
    return forms, list(system.variables) + red.evars


def _decide_abelian_bs(system) -> Verdict:
    """BS(1,1) is free abelian of rank 2; everything is one linear solve.

    The stats hold ``decide``'s counters for a complete build of no
    branches, and the one candidate, checked in round 1, when there is one.
    """
    forms, allvars = _abelian_forms(system)
    sol = solve_forms(forms, allvars)
    stats = {
        "stage": "abelian",
        "branches": 0,
        "final_branches": 0,
        "refuted_at_build": 0,
        "coverage_complete": True,
        "p1_steps": 0,
        "p2_levels": 0,
        "candidates_checked": 0,
        "rounds": 0,
    }
    if sol.status == "empty":
        cert = _wrap_cert(_linear_infeasible("abelian", forms, allvars, sol), system)
        return Verdict("unsat", certificate=cert, stats=stats)
    vals = dict(zip(allvars, sol.particular))
    witness = {
        name: BsElement(ZkFrac.integer(vals[name], 1), vals[rvar(name)])
        for name in system.variables
    }
    stats["candidates_checked"] = stats["p1_steps"] = stats["rounds"] = 1
    if verify_witness(system, witness):
        return Verdict("sat", witness=witness, stats=stats)
    stats["note"] = "lift failed"
    return Verdict("unknown", stats=stats)


def decide(system: EquationSystem, budget: Budget | None = None) -> Verdict:
    """Decide ``system`` within ``budget``: sat with a witness, unsat with a
    certificate, or unknown.

    The build runs as a stream (``_building``), and round 1 opens while it
    runs: each final branch's plain lifts are checked as it arrives, and the
    first that passes returns at once, with the build counters of the
    branches built so far.  Otherwise the build is finished, the late lifts
    and then the retries are divided and checked in turn, and the rounds go
    on with refinement, each round also checking up to
    ``candidates_per_step`` further lifts while any are left.  Every
    candidate comes in the order of the whole list of lifts (``_lifts``), so
    the witness does not depend on where the build stopped.
    """
    budget = budget or Budget()
    t0 = time.monotonic()
    deadline = t0 + budget.time_limit if budget.time_limit is not None else None
    spec = system.spec
    if spec.kind == "bs" and spec.k == 1:
        return _decide_abelian_bs(system)

    stream = _building(system, deadline)
    build = next(stream)
    p1 = _WitnessSearch(system, _lifts(system, _finals(build, stream)))
    # round 1's witness step checks the lifted branch solutions, the cheapest
    # witnesses: each final branch's plain lifts as soon as the build yields
    # it, before refinement, up to the round's ``candidates_per_step``
    w = None
    if budget.steps > 0:
        w = p1.step(budget.candidates_per_step, deadline)
    if w is None:
        for _ in stream:
            pass
    stats: dict = {
        "branches": len(build.finals) + len(build.refuted),
        "final_branches": len(build.finals),
        "refuted_at_build": len(build.refuted),
        "coverage_complete": not build.overflow,
        "p1_steps": 0,
        "p2_levels": 0,
        "candidates_checked": p1.checked,
        "rounds": 0,
    }
    if w is not None:
        stats["p1_steps"] = stats["rounds"] = 1
        return Verdict("sat", witness=w, stats=stats)
    if build.linear_cert is not None:
        return Verdict(
            "unsat",
            certificate=_wrap_cert(build.linear_cert, system),
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
            return _wrap_cert(inner, system)
        return _wrap_cert({"kind": "branch_refutation", "branches": entries}, system)

    managers = [
        (f.path, _BranchSearches(build.kind, build.k, f.parts, f.params, budget))
        for f in build.finals
    ]

    if not build.overflow and not build.finals:
        if build.refuted:
            return Verdict("unsat", certificate=unsat_cert(), stats=stats)
        # nothing reduced and nothing refuted: the empty assignment space

    while stats["rounds"] < budget.steps:
        if deadline is not None and time.monotonic() > deadline:
            break
        stats["rounds"] += 1
        first = stats["rounds"] == 1
        progressed = False
        if first and p1.checked:
            # round 1's witness step: the lifts checked while the build ran
            stats["p1_steps"] += 1
        # the first round gives refinement a head start of two levels: cheap
        # early levels often refute outright, and the extra level is part of
        # which systems are refuted within ``steps`` rounds
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
        if not first and not p1.exhausted:
            w = p1.step(budget.candidates_per_step, deadline)
            stats["p1_steps"] += 1
            stats["candidates_checked"] = p1.checked
            if w is not None:
                return Verdict("sat", witness=w, stats=stats)
        if not progressed and p1.exhausted:
            break

    stats["frontier"] = [
        {
            "path": path,
            "state": m.state,
            "levels": m.levels,
            "searches": [
                {"desc": _describe(s), "state": s.state, "chain": len(s.chain)}
                for searches, _ in m.components
                for s in searches
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


def _replay(kind, k, part: Part, params, inner) -> bool:
    """Whether the chain of a modulus obstruction empties the refinement of
    ``part`` (as the search that found it saw the part) at its last level."""
    chain = inner.get("chain")
    projected = kind == "wreath" and inner.get("projected_from") == 0
    if kind == "bs":
        ring = None
        if inner.get("base") != k or not _bs_chain_ok(chain, k):
            return False
    else:
        # an integer part is seen through a projection, a torsion part over
        # its own ring or a divisor of it
        ring = inner.get("ring")
        if not isinstance(ring, int) or projected != (part.mod is None):
            return False
        if not projected and not (ring >= 2 and part.mod % ring == 0):
            return False
        if not _monic_chain_ok(chain, ring):
            return False
    search = _search(kind, k, part, params, ring, iter(chain))
    for _ in chain:
        search.step()
    if search.state != "refuted":
        return False
    # a projection's ring must be prime; tested last, since a refuted level
    # listed ring^deg(h) <= WORK_CAP lifts, which bounds the trial division
    return not projected or is_prime(ring)


def _check_obstruction(build: Build, parts, params, stage, cert: dict) -> bool:
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
        # the rebuild recorded this residual part as dead after solving it
        return True
    if inner.get("kind") != "modulus_obstruction":
        return False
    return _replay(build.kind, build.k, part, params, inner)


def _check_branch_cert(build: Build, path: str, cert: dict) -> bool:
    for r in build.refuted:
        if r.path == path:
            if r.cert is not None:
                # recorded by the build, so recomputed verbatim by the rebuild
                return cert == r.cert
            return _check_obstruction(build, r.parts, r.params, "residual", cert)
    for f in build.finals:
        if f.path == path:
            return _check_obstruction(build, f.parts, f.params, "pivots", cert)
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
        kind = cert.get("kind")
        spec = system.spec
        got = {kk: vv for kk, vv in cert.items() if kk not in ("version", "system_hash")}

        if spec.kind == "bs" and spec.k == 1:
            forms, allvars = _abelian_forms(system)
            sol = solve_forms(forms, allvars)
            if sol.status != "empty":
                return False
            return got == _linear_infeasible("abelian", forms, allvars, sol)

        # certificates are only issued when coverage was complete, so a
        # rebuild under the same branch cap reproduces the branches
        build = _build(system)
        if kind == "linear_infeasible":
            return build.linear_cert is not None and got == build.linear_cert
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
            if not _check_branch_cert(build, e["path"], inner):
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
            "time_limit": budget.time_limit,
        },
        "timing": {"seconds": round(seconds, 6)},
    }
