"""Seeded workload generators with reference verdicts.

Every generated system carries a reference verdict that is derived here,
never from the solver: either a planted witness, or a closed form checked
with the small exact arithmetic in this file (which shares no code with
``groupeq``).  The program under test only ever sees the system text.

* ``commute``: commutation systems ``w = reverse(w)`` over wreath products,
  plus pinned commutation systems ``X Y = Y X, X = g, Y = h``.
* ``powers``: root extraction ``X^n = w`` over wreath products and
  ``X^n Y^n = a^m`` over BS(1,2) and BS(1,3).

The audit workload is built from these two in ``run.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# wreath families as (free rank, torsion orders)
FAMILIES = [(0, (2,)), (0, (3,)), (1, ()), (1, (2,)), (2, ())]

# fixed search budgets, passed to groupeq.decide.Budget as keyword arguments
BUDGETS = {
    "commute": {"steps": 2},
    "powers": {"steps": 4, "candidates_per_step": 500},
}

COMMUTE_SYSTEMS = 100
POWERS_SYSTEMS = 120
TRIES = 50  # attempts to draw inputs of a wanted shape


@dataclass(frozen=True)
class Item:
    """One generated system: its text and the verdict it must not contradict."""

    text: str
    expected: str  # "sat" | "unsat"
    source: str    # how the reference verdict was obtained


# ---------------------------------------------------------------------------
# Word helpers


def family_header(fam) -> str:
    m, tors = fam
    return "group wreath " + " x ".join([f"Z^{m}"] + [f"Z_{n}" for n in tors])


def lamp_names(fam) -> list[str]:
    m, tors = fam
    return [f"a{i + 1}" for i in range(m)] + [f"c{j + 1}" for j in range(len(tors))]


def render_word(letters) -> str:
    if not letters:
        return "1"
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in letters)


def _merge(letters):
    out = []
    for name, e in letters:
        if out and out[-1][0] == name:
            e += out[-1][1]
            out.pop()
        if e:
            out.append((name, e))
    return out


# ---------------------------------------------------------------------------
# Independent wreath arithmetic: an element is (lamps, shift) with lamps a
# dict position -> tuple of component values (torsion parts reduced).


def _mods(fam):
    m, tors = fam
    return [None] * m + list(tors)


def _norm(vals, mods):
    return tuple(v if n is None else v % n for v, n in zip(vals, mods))


def wreath_eval(fam, letters):
    mods = _mods(fam)
    names = lamp_names(fam)
    lamps: dict[int, tuple] = {}
    shift = 0
    for name, e in letters:
        if name == "t":
            shift += e
            continue
        comp = names.index(name)
        cur = list(lamps.get(shift, (0,) * len(mods)))
        cur[comp] += e
        lamps[shift] = _norm(cur, mods)
    return {d: c for d, c in lamps.items() if any(c)}, shift


def wreath_word(fam, lamps, shift):
    """A word in t and the lamp generators that evaluates to (lamps, shift)."""
    names = lamp_names(fam)
    letters = []
    for d in sorted(lamps):
        letters.append(("t", d))
        letters += [(names[i], v) for i, v in enumerate(lamps[d]) if v]
        letters.append(("t", -d))
    letters.append(("t", shift))
    return _merge(letters)


def wreath_power(fam, lamps, shift, n):
    letters = wreath_word(fam, lamps, shift) * n
    return wreath_eval(fam, letters)


def wreath_root_exists(fam, n: int, lamps, s: int) -> bool:
    """Closed form for X^n = (lamps, s) in A wr Z.

    X = (p, x) gives X^n = (p * (1 + t^x + ... + t^((n-1)x)), n x), so a
    root exists iff n | s and, in every component of A, the lamp
    polynomial is divisible by n (when x = 0) or by the monic polynomial
    1 + t^|x| + ... + t^((n-1)|x|) (when x != 0).
    """
    if s % n:
        return False
    x = abs(s // n)
    for comp, mod in enumerate(_mods(fam)):
        q = {d: c[comp] for d, c in lamps.items() if c[comp]}
        if not q:
            continue
        if x == 0:
            g = n if mod is None else math.gcd(n, mod)
            if any(v % g for v in q.values()):
                return False
            continue
        lo = min(q)
        rem = [0] * (max(q) - lo + 1)
        for d, v in q.items():
            rem[d - lo] = v
        deg = (n - 1) * x
        for top in range(len(rem) - 1, deg - 1, -1):
            c = rem[top] if mod is None else rem[top] % mod
            if c:
                for i in range(n):
                    rem[top - deg + i * x] -= c
        if any((v if mod is None else v % mod) for v in rem[:deg]):
            return False
    return True


# ---------------------------------------------------------------------------
# Closed form for X^n Y^n = a^m in BS(1,k)


def bs_roots_exist(k: int, n: int, m: int) -> bool:
    """X = (u, r), Y = (v, -r) gives X^n Y^n = ((u + v k^-r) A(r), 0) with
    A(r) = sum_{i<n} k^(-i r), and u + v k^-r ranges over Z[1/k].  So the
    system is solvable iff some A(r) divides m in Z[1/k]: A(0) = n, and for
    r != 0 the k-free part of A(r) is (k^(n|r|) - 1) / (k^|r| - 1)."""
    if m == 0:
        return True
    n_free = n
    for p in range(2, k + 1):
        if k % p == 0:
            while n_free % p == 0:
                n_free //= p
    if m % n_free == 0:
        return True
    r = 1
    while True:
        a = (k ** (n * r) - 1) // (k ** r - 1)
        if a > abs(m):
            return False
        if m % a == 0:
            return True
        r += 1


# ---------------------------------------------------------------------------
# Generators


def _commute_palindrome(rng, fam, nvars, shift_letter) -> Item:
    unknowns = [(v, rng.choice((1, -1))) for v in "XYZ"[:nvars]]
    gen = ("t" if shift_letter else rng.choice(lamp_names(fam)), rng.choice((1, -1)))
    letters = unknowns + [gen]
    rng.shuffle(letters)
    text = f"{family_header(fam)}\n{render_word(letters)} = {render_word(letters[::-1])}\n"
    # with every unknown set to the identity both sides reduce to the one
    # generator letter, so the identity assignment is a planted witness
    return Item(text, "sat", "planted identity")


def _random_gen_word(rng, fam, length):
    return _merge([(rng.choice(["t"] + lamp_names(fam)), rng.choice((1, -1)))
                   for _ in range(length)])


def _commute_pinned(rng, fam, want) -> Item:
    for _ in range(TRIES):
        g = _random_gen_word(rng, fam, rng.randint(1, 2))
        h = _random_gen_word(rng, fam, rng.randint(1, 2))
        got = "sat" if wreath_eval(fam, g + h) == wreath_eval(fam, h + g) else "unsat"
        if got == want:
            break
    text = (f"{family_header(fam)}\nX Y = Y X\nX = {render_word(g)}\n"
            f"Y = {render_word(h)}\n")
    return Item(text, got, "pinned closed form")


def commute_items(seed: int, count: int = COMMUTE_SYSTEMS) -> list[Item]:
    """Stratified: every block of ten holds eight palindromes (2 and 3
    unknowns alternating, the generator letter t in half of them) and two
    pinned systems, one sat and one unsat, families in rotation."""
    rng = random.Random(f"commute-{seed}")
    out = []
    for i in range(count):
        fam = FAMILIES[(i + i // 10) % len(FAMILIES)]
        slot = i % 10
        if slot >= 8:
            out.append(_commute_pinned(rng, fam, ("sat", "unsat")[slot % 2]))
        else:
            out.append(_commute_palindrome(rng, fam, 2 + slot % 2, (slot // 2 + i // 10) % 2))
    return out


def _random_lamps(rng, fam, npos, spread, size):
    mods = _mods(fam)
    lamps = {}
    for d in rng.sample(range(-spread, spread + 1), npos):
        vals = _norm([rng.randint(-size, size) if n is None else rng.randrange(n) for n in mods], mods)
        if any(vals):
            lamps[d] = vals
    return lamps


def _powers_planted(rng, fam, n, torsion_value) -> Item:
    # root X = one unit-size lamp next to the origin, times t^-1.  The
    # enumeration meets shift -1 roots long before shift +1 ones, and a Z_3
    # lamp of 2 long after one of 1, so the shift is fixed and the caller
    # alternates the Z_3 value; the seed picks position, component and sign.
    mods = _mods(fam)
    comp = rng.randrange(len(mods))
    vals = [0] * len(mods)
    vals[comp] = rng.choice((1, -1)) if mods[comp] is None else 1 + (torsion_value - 1) % (mods[comp] - 1)
    lamps = {rng.randint(-1, 1): _norm(vals, mods)}
    w_lamps, w_shift = wreath_power(fam, lamps, -1, n)
    word = wreath_word(fam, w_lamps, w_shift)
    text = f"{family_header(fam)}\nX^{n} = {render_word(word)}\n"
    return Item(text, "sat", "planted root")


def _powers_closed(rng, fam, n, kind, want) -> Item:
    """kind "divisible": n times random lamps, shift 0 (sat unless n kills
    every lamp value); "lamps": random lamps, shift 0, drawn until the
    verdict is ``want``; "shift": random lamps and a shift that n does not
    divide (unsat)."""
    mods = _mods(fam)
    for _ in range(TRIES):
        lamps = _random_lamps(rng, fam, rng.randint(1, 2), 2, 2 if kind == "lamps" else 1)
        if kind == "divisible":
            lamps = {d: _norm([n * v for v in c], mods) for d, c in lamps.items()}
            lamps = {d: c for d, c in lamps.items() if any(c)}
        shift = rng.choice((1, -1)) * rng.randint(1, n - 1) if kind == "shift" else 0
        got = "sat" if wreath_root_exists(fam, n, lamps, shift) else "unsat"
        if lamps and (kind != "lamps" or got == want):
            break
    word = wreath_word(fam, lamps, shift)
    text = f"{family_header(fam)}\nX^{n} = {render_word(word)}\n"
    return Item(text, got, "root closed form")


def _powers_bs(rng, k, n, want) -> Item:
    # X^2 Y^2 in BS(1,2) and X^3 Y^3 in BS(1,3) are solvable for every m
    for _ in range(TRIES):
        m = rng.randint(1, 40)
        got = "sat" if bs_roots_exist(k, n, m) else "unsat"
        if got == want:
            break
    text = f"group BS {k}\nX^{n} Y^{n} = a^{m}\n"
    return Item(text, got, "bs closed form")


def powers_items(seed: int, count: int = POWERS_SYSTEMS) -> list[Item]:
    """Stratified in blocks of twenty: ten planted wreath roots, one per
    (family, n) pair; six closed-form wreath systems, two of each kind; four
    BS systems, one per (k, n) pair, sat in even blocks and unsat in odd
    ones where both exist."""
    rng = random.Random(f"powers-{seed}")
    pairs = [(fam, n) for fam in FAMILIES for n in (2, 3)]
    bs_pairs = [(2, 2), (2, 3), (3, 2), (3, 3)]
    out = []
    for i in range(count):
        block, slot = divmod(i, 20)
        if slot < 10:
            out.append(_powers_planted(rng, *pairs[slot], 1 + block % 2))
        elif slot < 16:
            kind = ("divisible", "lamps", "shift")[slot % 3]
            want = ("sat", "unsat")[(slot + block) % 2]
            out.append(_powers_closed(rng, FAMILIES[(slot + block) % 5], 2 + (slot + block) % 2,
                                      kind, want))
        else:
            want = ("sat", "unsat")[block % 2]
            out.append(_powers_bs(rng, *bs_pairs[slot - 16], want))
    return out


GENERATORS = {"commute": commute_items, "powers": powers_items}
