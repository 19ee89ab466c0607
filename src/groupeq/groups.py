"""Concrete group arithmetic for the two supported families.

BS(1,k) elements are pairs (u, r) with u in Z[1/k], r in Z, multiplying as

    (u1, r1) * (u2, r2) = (u1 + u2 * k^-r1, r1 + r2).

Wreath products A wr Z (A = Z^m + Z_{n_1} + ... + Z_{n_s}) are modelled as
pairs (p, x) with p a Laurent polynomial over A and x the shift:

    (p1, x1) * (p2, x2) = (p1 + t^x1 * p2, x1 + x2),

the upper-triangular 2x2 matrix model [[t^x, p], [0, 1]].

``mul``, ``power`` and ``inv`` implement these products literally; they are
the reference model that the tests compare everything else against.
``eval_word`` does not fold them over a wreath word, which would rebuild a
canonical polynomial per letter.  A word's lamp configuration is the sum of
t^(running shift) * a over its lamp letters a, so one pass adds each letter
into a mutable lamp map and builds the canonical ``LaurentPoly`` once, at
the end.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .rings import LaurentPoly, RElem, ZkFrac


class GroupSpec(NamedTuple):
    """Tagged description of the ambient group: BS(1,k) or A wr Z."""

    kind: str  # "bs" | "wreath"
    k: int = 0
    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    @staticmethod
    def bs(k: int) -> "GroupSpec":
        if k < 1:
            raise ValueError("k must be >= 1")
        return GroupSpec(kind="bs", k=k)

    @staticmethod
    def wreath(free_rank: int, torsion=()) -> "GroupSpec":
        torsion = tuple(int(n) for n in torsion)
        if free_rank < 0 or any(n < 2 for n in torsion):
            raise ValueError("free rank must be >= 0 and torsion orders >= 2")
        return GroupSpec(kind="wreath", free_rank=free_rank, torsion=torsion)

    # -- component bookkeeping (wreath) --

    @property
    def n_components(self) -> int:
        return self.free_rank + len(self.torsion)

    def component_modulus(self, idx: int) -> int | None:
        """None for a Z component, n for a Z_n component."""
        if idx < self.free_rank:
            return None
        return self.torsion[idx - self.free_rank]

    def generator_names(self) -> list[str]:
        if self.kind == "bs":
            return ["a", "b"]
        names = ["t"]
        names += [f"a{i + 1}" for i in range(self.free_rank)]
        names += [f"c{j + 1}" for j in range(len(self.torsion))]
        if self.n_components == 1:
            names.append("a")  # convenience alias for the single lamp generator
        return names

    def render(self) -> str:
        if self.kind == "bs":
            return f"group BS {self.k}"
        parts = [f"Z^{self.free_rank}"] + [f"Z_{n}" for n in self.torsion]
        return "group wreath " + " x ".join(parts)


class BsElement(NamedTuple):
    u: ZkFrac
    r: int


class WreathElement(NamedTuple):
    poly: LaurentPoly
    shift: int


def identity(spec: GroupSpec):
    if spec.kind == "bs":
        return BsElement(ZkFrac.zero(spec.k), 0)
    return WreathElement(LaurentPoly.zero(spec.free_rank, spec.torsion), 0)


def _unit_relem(spec: GroupSpec, component: int) -> RElem:
    m, orders = spec.free_rank, spec.torsion
    free = tuple(1 if i == component else 0 for i in range(m))
    tors = tuple(1 if m + j == component else 0 for j in range(len(orders)))
    return RElem.make(free, tors, orders)


def generator(spec: GroupSpec, name: str):
    if spec.kind == "bs":
        if name == "a":
            return BsElement(ZkFrac.integer(1, spec.k), 0)
        if name == "b":
            return BsElement(ZkFrac.zero(spec.k), 1)
        raise KeyError(name)
    comp = lamp_index(spec, name)
    if comp is None:
        return WreathElement(LaurentPoly.zero(spec.free_rank, spec.torsion), 1)
    poly = LaurentPoly.make([(0, _unit_relem(spec, comp))], spec.free_rank, spec.torsion)
    return WreathElement(poly, 0)


def lamp_index(spec: GroupSpec, name: str) -> int | None:
    """The lamp component a wreath generator moves; None for t.

    Raises KeyError for a name that is not a generator of spec.
    """
    if name == "t":
        return None
    if name == "a" and spec.n_components == 1:
        return 0
    if name.startswith("a") and name[1:].isdigit():
        comp = int(name[1:]) - 1
        if 0 <= comp < spec.free_rank:
            return comp
    elif name.startswith("c") and name[1:].isdigit():
        comp = spec.free_rank + int(name[1:]) - 1
        if spec.free_rank <= comp < spec.n_components:
            return comp
    raise KeyError(name)


def mul(spec: GroupSpec, g, h):
    if spec.kind == "bs":
        return BsElement(g.u + h.u.scale_kpow(-g.r), g.r + h.r)
    return WreathElement(g.poly + h.poly.shift(g.shift), g.shift + h.shift)


def inv(spec: GroupSpec, g):
    if spec.kind == "bs":
        return BsElement((-g.u).scale_kpow(g.r), -g.r)
    return WreathElement((-g.poly).shift(-g.shift), -g.shift)


def power(spec: GroupSpec, g, e: int):
    """g^e by square and multiply (g^-1 raised to -e when e < 0).

    The accumulator starts at g^(2^j), j the lowest set bit of e, rather
    than at the identity, so g^1 is g itself and no product is taken with
    the identity; g^0 is the identity.
    """
    if e < 0:
        g, e = inv(spec, g), -e
    if e == 0:
        return identity(spec)
    while not e & 1:
        g = mul(spec, g, g)
        e >>= 1
    acc = g
    e >>= 1
    while e:
        g = mul(spec, g, g)
        if e & 1:
            acc = mul(spec, acc, g)
        e >>= 1
    return acc


def eval_word(spec: GroupSpec, word, assignment: dict):
    """Evaluate a word (sequence of (name, exponent) letters) left to right.

    Names are looked up in assignment first, then among the generators; a
    name that is neither raises KeyError.  A BS(1,k) word is folded with
    ``mul`` and ``power``, starting from its first letter's power, its
    elements being O(1)-sized.  A wreath word is evaluated in one pass into
    a lamp map {degree: component values} and a running shift: t^e moves
    the shift, a lamp letter adds its exponent at the shift, and an assigned
    unknown X^e adds the lamps of ``power(X, e)`` there.  The canonical
    polynomial is built once, at the end, so the cost is linear in the
    generator letters, where a fold of ``mul`` is quadratic in the lamp
    letters.
    """
    if spec.kind == "bs":
        acc = None
        for name, exp in word:
            if name in assignment:
                base = assignment[name]
            else:
                base = generator(spec, name)
            g = power(spec, base, exp)
            acc = g if acc is None else mul(spec, acc, g)
        return identity(spec) if acc is None else acc
    width = spec.n_components
    lamps: defaultdict[int, list[int]] = defaultdict(lambda: [0] * width)
    shift = 0
    for name, exp in word:
        if name in assignment:
            h = power(spec, assignment[name], exp)
            for d, c in h.poly.coeffs:
                vals = lamps[shift + d]
                for i, v in enumerate(c.free + c.torsion):
                    vals[i] += v
            shift += h.shift
            continue
        comp = lamp_index(spec, name)
        if comp is None:
            shift += exp
        else:
            lamps[shift][comp] += exp
    m, orders = spec.free_rank, spec.torsion
    items = [(d, RElem.make(v[:m], v[m:], orders)) for d, v in lamps.items()]
    return WreathElement(LaurentPoly.make(items, m, orders), shift)


def verify_witness(system, assignment: dict) -> bool:
    """Check a candidate assignment against every equation of the system.

    The one witness check: ``decide`` accepts a candidate only when it
    passes, and ``--verify-only`` runs it on a report's witness.  Exact
    arithmetic, no approximation.  system needs .spec and
    .equations (pairs of words).  Each equation lhs = rhs is re-multiplied
    once, as the single word lhs rhs^-1 (rhs reversed, its exponents
    negated), and holds exactly when that word evaluates to the identity.
    Before that, the word's total shift is summed: the t-exponent, or the
    b-exponent in BS(1,k), a homomorphism onto Z under which t (or b) maps
    to 1, every other generator to 0 and an unknown to its element's
    shift.  A word whose total shift is not 0 is not the identity, so it
    fails without multiplying, however large the witness's exponents.
    An assignment that names a generator of the group is rejected, since
    ``eval_word`` would read that generator as the assigned element.
    """
    spec = system.spec
    names = spec.generator_names()
    if not assignment.keys().isdisjoint(names):
        return False
    bs = spec.kind == "bs"
    shift_name = "b" if bs else "t"
    shifts = {name: int(name == shift_name) for name in names}
    for v, g in assignment.items():
        shifts[v] = g.r if bs else g.shift
    one = identity(spec)
    for lhs, rhs in system.equations:
        word = list(lhs)
        word.extend((name, -e) for name, e in reversed(rhs))
        if sum(shifts[name] * e for name, e in word):
            return False
        if eval_word(spec, word, assignment) != one:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical element text (used in reports and by --verify-only)


def render_element(spec: GroupSpec, g) -> str:
    if spec.kind == "bs":
        return f"{g.u.render()} | {g.r}"
    return f"{g.poly.render()} | {g.shift}"


def parse_element(spec: GroupSpec, text: str):
    """Inverse of render_element."""
    left, sep, right = text.rpartition("|")
    if not sep:
        raise ValueError(f"bad element text: {text!r}")
    left = left.strip()
    last = int(right.strip())
    if spec.kind == "bs":
        if "*" in left:
            z_text, kpow = left.split("*")
            base, _, depth = kpow.partition("^-")
            if int(base) != spec.k:
                raise ValueError(f"element base {base} does not match k={spec.k}")
            u = ZkFrac.make(int(z_text), int(depth), spec.k)
        else:
            u = ZkFrac.integer(int(left), spec.k)
        return BsElement(u, last)
    if not (left.startswith("{") and left.endswith("}")):
        raise ValueError(f"bad polynomial text: {left!r}")
    body = left[1:-1].strip()
    items = []
    if body:
        for chunk in _split_top(body):
            d_text, _, c_text = chunk.partition(":")
            items.append((int(d_text), _parse_relem(spec, c_text.strip())))
    poly = LaurentPoly.make(items, spec.free_rank, spec.torsion)
    return WreathElement(poly, last)


def _split_top(body: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


def _parse_relem(spec: GroupSpec, text: str) -> RElem:
    m, orders = spec.free_rank, spec.torsion
    if text.startswith("("):
        vals = [int(v) for v in text[1:-1].split(",")]
    else:
        vals = [int(text)]
    if len(vals) != m + len(orders):
        raise ValueError(f"coefficient {text!r} has wrong component count")
    return RElem.make(vals[:m], vals[m:], orders)
