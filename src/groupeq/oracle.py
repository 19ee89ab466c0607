"""Exhaustive ground-truth search over bounded balls and integer boxes.

Used for differential testing: these routines share no code with the
reduction or decision machinery, only the element types and the word
evaluator.  Everything here is exact and deterministic.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .groups import BsElement, GroupSpec, WreathElement, verify_witness
from .rings import LaurentPoly, RElem, ZkFrac


class SearchBall(namedtuple("SearchBall", "radius")):
    """Bound on every coordinate of an element at once.

    For BS(1,k): |numerator| <= radius, k-adic depth <= radius and
    |exponent part| <= radius.  For wreath products: polynomial support
    inside [-radius, radius], each coefficient component at most radius
    in magnitude, |shift| <= radius.
    """

    __slots__ = ()

    def __new__(cls, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return super().__new__(cls, radius)


def _as_ball(ball) -> SearchBall:
    if isinstance(ball, SearchBall):
        return ball
    return SearchBall(int(ball))


def _bs_ball(spec: GroupSpec, radius: int):
    k = spec.k
    out = []
    for r in range(-radius, radius + 1):
        for depth in range(0, radius + 1):
            if depth > 0 and k == 1:
                break
            for num in range(-radius, radius + 1):
                if depth > 0 and num % k == 0:
                    continue  # not in canonical form, already listed shallower
                out.append(BsElement(ZkFrac(num, depth, k), r))
    return out


def _torsion_range(order: int, radius: int):
    """Residues mod order whose symmetric representative has magnitude <= radius."""
    vals = []
    for v in range(order):
        rep = v if v <= order // 2 else v - order
        if abs(rep) <= radius:
            vals.append(v)
    return vals


def _wreath_ball(spec: GroupSpec, radius: int):
    m = spec.free_rank
    orders = spec.torsion
    free_axis = list(range(-radius, radius + 1))
    coeffs = []
    for combo in itertools.product(
        *([free_axis] * m + [_torsion_range(n, radius) for n in orders])
    ):
        coeffs.append(RElem.make(combo[:m], combo[m:], orders))
    positions = list(range(-radius, radius + 1))
    out = []
    for shift in range(-radius, radius + 1):
        for assignment in itertools.product(coeffs, repeat=len(positions)):
            items = [
                (p, c) for p, c in zip(positions, assignment) if not c.is_zero()
            ]
            out.append(WreathElement(LaurentPoly.make(items, m, orders), shift))
    return out


def ball_elements(spec: GroupSpec, ball) -> list:
    """Every group element inside the ball, in a fixed order."""
    radius = _as_ball(ball).radius
    if spec.kind == "bs":
        return _bs_ball(spec, radius)
    return _wreath_ball(spec, radius)


def brute_force_group(system, spec: GroupSpec, ball) -> list[dict]:
    """All assignments inside the ball that satisfy the whole system.

    Complexity is (ball size)^(number of variables); callers pick the
    radius accordingly.
    """
    elements = ball_elements(spec, ball)
    variables = list(system.variables)
    hits = []
    for combo in itertools.product(elements, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if verify_witness(system, assignment):
            hits.append(assignment)
    return hits


def brute_force_exp(sys, box) -> list[dict]:
    """All integer points of the box solving every exponential equation.

    sys carries .equations (terms are (coefficient, exponent form) pairs
    plus an additive constant) and .k.  box is either one (lo, hi) pair
    used for every variable or a mapping from variable name to such a pair.
    Each equation is tested exactly in integers: at a point whose smallest
    exponent is -s < 0 the equation is multiplied through by k^s, which
    makes every term an integer and keeps the zero set.
    """
    variables = sys.variables()

    def interval(v):
        lo, hi = box[v] if isinstance(box, dict) else box
        return range(lo, hi + 1)

    k = sys.k

    def vanishes(terms, const, env) -> bool:
        exps = [f.evaluate(env) for _, f in terms]
        s = max(0, -min(exps, default=0))
        return sum(c * k ** (e + s) for (c, _), e in zip(terms, exps)) + const * k**s == 0

    hits = []
    for combo in itertools.product(*(interval(v) for v in variables)):
        env = dict(zip(variables, combo))
        if all(vanishes(terms, const, env) for terms, const in sys.equations):
            hits.append(env)
    return hits
