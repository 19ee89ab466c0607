import copy
import importlib
import itertools
import json
import math
import pathlib
import random
import sys
import time
from fractions import Fraction

from groupeq.decide import (
    Budget,
    Part,
    _BsSearch,
    _WreathSearch,
    _build,
    _building,
    _cert_rows,
    _finals,
    _laurent_div,
    _lift,
    _lifts,
    _monics,
    _multi_term_pivots,
    _zk_bezout,
    build_report,
    decide,
    verify_certificate,
)
from groupeq.frontend import parse_system, render_system, system_hash
from groupeq.groups import (
    GroupSpec,
    eval_word,
    inv,
    mul,
    parse_element,
    render_element,
    verify_witness,
)
from groupeq.oracle import ball_elements
from groupeq.reduce import Row, reduce_bs, triangularize
from groupeq.rings import (
    ZkFrac,
    mult_order,
    poly_add,
    poly_mul,
    poly_reduce,
    prime_powers_coprime,
)

# the benchmark's wreath families, as (free rank, torsion orders)
WREATH_FAMILIES = [(0, (2,)), (0, (3,)), (1, ()), (1, (2,)), (2, ())]


def _run(text, budget=None):
    system = parse_system(text)
    return system, decide(system, budget) if budget else decide(system)


def test_sat_anchor_witnesses():
    expect = {
        "group BS 2\nX^2 = a^3": {"X": "3*2^-1 | 0"},
        "group BS 2\nX = 1": {"X": "0 | 0"},
        "group BS 2\nX^-1 a X = a^2": {"X": "0 | 1"},
        "group BS 2\nX^2 = b a b^-1 a": {"X": "3*2^-2 | 0"},
        "group BS 1\nX^2 = a^4 b^2": {"X": "2 | 1"},
        "group wreath Z^0 x Z_2\nX a = a X": {"X": "{} | 0"},
    }
    for text, wit in expect.items():
        system, v = _run(text)
        assert v.status == "sat", text
        assert verify_witness(system, v.witness)
        got = {name: render_element(system.spec, e) for name, e in v.witness.items()}
        assert got == wit, text


def test_unsat_anchor_certificates():
    # (input, kind, frozen fields)
    expect = [
        ("group BS 2\nX^-1 a X = a^3", "modulus_obstruction",
         {"chain": [3], "base": 2, "stage": "residual", "path": "/t-"}),
        ("group BS 3\nX^-1 a X = a^5", "modulus_obstruction",
         {"chain": [2, 4, 5], "base": 3}),
        ("group BS 2\nX^-1 a X a = 1", "modulus_obstruction", {"chain": [3, 5]}),
        ("group BS 2\nX^-1 a X = a^17", "modulus_obstruction", {"chain": [3, 5, 7]}),
        ("group BS 2\nX^2 = a b", "linear_infeasible",
         {"stage": "shared-linear", "witness_row": [0, 2, 1]}),
        ("group BS 1\nX^2 = a^3", "linear_infeasible",
         {"stage": "abelian", "witness_row": [1, 2, 3]}),
        ("group wreath Z^0 x Z_2\nX^2 = t a t^-1 a", "component_obstruction", {"path": "/t-"}),
        ("group wreath Z^1\nX^3 = a^2", "component_obstruction", {"path": "/t."}),
        ("group wreath Z^0 x Z_3\nX^2 = a\nX^3 = a", "component_obstruction", {"path": "/t."}),
        ("group BS 2\nX^2 = b a b a^-1", "branch_refutation", {}),
        # torsion-ring pivots; a branch refutation's fields are keyed by path
        ("group wreath Z^0 x Z_3\na^2 Y^-2 X^2 = Y^-1 Y^2 X^-1\n"
         "t^-1 X^2 t^-1 a^3 = a^2 t^2", "branch_refutation",
         {"/tn.n.": {"kind": "component_obstruction", "component": 0, "inner": {
             "kind": "modulus_obstruction", "stage": "pivots", "ring": 3,
             "projected_from": None, "chain": [[1, 1]],
             "rows": ["[0] pivot X: (1*t^(-p0_0-1)+1*t^(-p0_0+1))*X + 1 = 0",
                      "[0] pivot Y: (2*t^(-p0_0-p0_1-5)+1*t^(-p0_0-p0_1-3)"
                      "+1*t^(-p0_0-p0_1-1)+2*t^(-p0_0-p0_1+1))*Y + 2*t^(-p0_0-4)"
                      "+2*t^(-p0_0-2)+2*t^(-p0_0-1)+2*t^(-p0_0)+2*t^(-p0_0+1) = 0"],
             "params": ["p0_0", "p0_1"]}}}),
        # a residual refuted through the prime projection Z -> Z_2
        ("group wreath Z^1\na^2 a^-2 a^-1 t^2 = t^2", "component_obstruction",
         {"path": "/t-", "component": 0, "inner": {
             "kind": "modulus_obstruction", "stage": "residual", "ring": 2,
             "projected_from": 0, "chain": [[1, 1]], "rows": ["-1 = 0"],
             "params": []}}),
    ]
    for text, kind, fields in expect:
        system, v = _run(text)
        assert v.status == "unsat", text
        cert = v.certificate
        assert cert["kind"] == kind, text
        got = cert
        if kind == "branch_refutation":
            got = {e["path"]: e["cert"] for e in cert["branches"]}
        for key, val in fields.items():
            assert got[key] == val, (text, key)
        assert verify_certificate(cert, system), text


def _residual_fallback(cert):
    """The certificate with its residual-stage modulus obstruction replaced by
    the exact solver's emptiness record, as issued when refinement finds none."""
    out = copy.deepcopy(cert)
    inner = out["inner"] if out["kind"] == "component_obstruction" else out
    assert inner["kind"] == "modulus_obstruction" and inner["stage"] == "residual"
    for key in ("base", "ring", "projected_from", "chain"):
        inner.pop(key, None)
    inner["kind"] = "empty_disjunction"
    return out, inner


def test_residual_emptiness_fallback_verifies(monkeypatch):
    """The replay accepts the emptiness record of a residual part that its
    rebuild solved and found dead, and does not solve that part again."""
    seen = _record_residual_solves(monkeypatch)
    for text in ("group BS 2\nX^-1 a X = a^3",
                 "group wreath Z^0 x Z_2\nX^2 = t a t^-1 a",
                 "group wreath Z^1\na^2 a^-2 a^-1 t^2 = t^2"):
        system, v = _run(text)
        cert, inner = _residual_fallback(v.certificate)
        seen.clear()
        assert verify_certificate(cert, system), text
        assert seen and len(seen) == len(set(seen)), (text, seen)
        inner["rows"].append(inner["rows"][0])
        assert not verify_certificate(cert, system), text


def test_two_branch_refutation_shape():
    system, v = _run("group BS 2\nX^2 = b^2 a")
    cert = v.certificate
    assert cert["kind"] == "branch_refutation"
    got = sorted((e["path"], e["cert"]["kind"]) for e in cert["branches"])
    assert got == [("/tn.", "modulus_obstruction"), ("/tz", "modulus_obstruction")]
    assert all(e["cert"]["chain"] == [3] for e in cert["branches"])
    assert verify_certificate(cert, system)


def test_verify_rejects_foreign_system():
    system, v = _run("group BS 2\nX^-1 a X = a^3")
    other = parse_system("group BS 2\nX^-1 a X = a^5")
    assert verify_certificate(v.certificate, system)
    assert not verify_certificate(v.certificate, other)


def test_descending_chain_does_not_refute_a_sat_system():
    """A chain may name a prime's powers in any order: an unknown's residue
    is kept mod the lcm of the moduli, so q = 3 after q = 9 narrows nothing
    and cannot empty a level of a solvable branch."""
    system = parse_system("group BS 2\nX^2 = a^3")
    build = _build(system)
    assert not build.refuted
    (final,) = build.finals
    forged = {
        "version": 1,
        "system_hash": system_hash(system),
        "kind": "modulus_obstruction",
        "stage": "pivots",
        "base": 2,
        "chain": [9, 3],
        "rows": _cert_rows(final.parts, "pivots"),
        "params": list(final.params),
        "path": final.path,
    }
    assert not verify_certificate(forged, system)
    search = _BsSearch.named(final.parts[0], final.params, 2, forged)
    assert [search.step(), search.step()] == ["running", "running"]


def test_forged_huge_moduli_fail_fast(monkeypatch):
    """A modulus too big for a search level is too big for its replay: the
    level saturates before it computes a period or lists a residue, and a
    projection's ring is tested for primality only after a refutation."""
    decide_mod = importlib.import_module("groupeq.decide")
    steps = []
    step = decide_mod._Refinement.step
    monkeypatch.setattr(decide_mod._Refinement, "step",
                        lambda search: steps.append(step(search)) or steps[-1])
    cases = [
        ("group BS 2\nX^2 = a^3", {"base": 2, "chain": [1000000007]}),
        ("group wreath Z^0 x Z_1000003\nX^2 = a",
         {"ring": 1000003, "projected_from": None, "chain": [[1, 5, 7, 1]]}),
        ("group wreath Z^1\nX^2 = a1",
         {"ring": 1000003, "projected_from": 0, "chain": [[1, 5, 7, 1]]}),
        ("group wreath Z^1\nX^2 = a1",
         {"ring": 2**61 - 1, "projected_from": 0, "chain": [[1, 1]]}),
    ]
    for i, (text, where) in enumerate(cases):
        system = parse_system(text)
        build = _build(system)
        (final,) = build.finals
        inner = {"kind": "modulus_obstruction", "stage": "pivots", **where,
                 "rows": _cert_rows(final.parts, "pivots"),
                 "params": list(final.params)}
        if final.parts[0].component >= 0:
            inner = {"kind": "component_obstruction",
                     "component": final.parts[0].component, "inner": inner}
        forged = {"version": 1, "system_hash": system_hash(system), **inner,
                  "path": final.path}
        t0 = time.process_time()
        assert not verify_certificate(forged, system), text
        assert time.process_time() - t0 < 1, text
        # the replay reached the named search, whose first level saturated
        assert steps == ["saturated"] * (i + 1), text


def _obstruction_record(cert):
    """The first modulus obstruction record of ``cert``, inside its
    component wrapper or its first branch, or None."""
    for node in [cert] + [e["cert"] for e in cert.get("branches", [])]:
        node = node.get("inner", node)
        if node.get("kind") == "modulus_obstruction":
            return node
    return None


def _next_modulus(record):
    """The modulus that the search of ``record`` steps to after its chain."""
    last = record["chain"][-1]
    if "base" in record:
        return next(q for q in prime_powers_coprime(record["base"]) if q > last)
    monics = list(_monics(record["ring"], len(last)))
    return monics[monics.index(last) + 1]


def _tampers(cert):
    """Single-field edits that break validity (not merely produce another
    valid refutation)."""
    out = []

    def mut(fn):
        c = copy.deepcopy(cert)
        fn(c)
        out.append(c)

    if _obstruction_record(cert) is not None:
        # records the writer never writes: an extra field, and a chain that
        # goes on past the level that refuted
        mut(lambda c: _obstruction_record(c).update(note="extra"))
        mut(lambda c: _obstruction_record(c)["chain"].append(
            _next_modulus(_obstruction_record(c))))
    mut(lambda c: c.update(version=2))
    mut(lambda c: c.update(system_hash="0" * 64))
    if cert["kind"] == "modulus_obstruction":
        # NB: flipping kind to empty_disjunction can yield a *valid* cert
        # (the replayed disjunction really is empty), so aim lower
        mut(lambda c: c.update(kind="linear_infeasible"))
        mut(lambda c: c.update(stage="shared-linear"))
        mut(lambda c: c.update(chain=c["chain"][:-1]))
        mut(lambda c: c.update(rows=[r.replace("1*", "2*") for r in c["rows"]]))
        mut(lambda c: c.update(params=[p + "z" for p in c["params"]]))
        mut(lambda c: c.update(path=c["path"] + "."))
    if cert["kind"] == "linear_infeasible":
        if "witness_row" in cert:
            mut(lambda c: c.update(witness_row=[c["witness_row"][0], 2, 4]))
        if "rows" in cert:
            mut(lambda c: c.update(rows=[[x + 1 for x in row] for row in c["rows"]]))
    if cert["kind"] == "branch_refutation":
        mut(lambda c: c.update(branches=c["branches"][:-1]))
        mut(lambda c: c.update(note="extra"))
        mut(lambda c: c["branches"][0].update(note="extra"))
        mut(lambda c: c["branches"][0].update(path=c["branches"][0]["path"] + "."))

        def chain_drop(c):
            inner = c["branches"][0]["cert"]
            inner["chain"] = inner["chain"][:-1]

        mut(chain_drop)
    if cert["kind"] == "component_obstruction":
        mut(lambda c: c.update(path=c.get("path", "/") + "."))
    return out


def test_tampered_certificates_fail():
    cases = [
        "group BS 2\nX^-1 a X = a^3",
        "group BS 2\nX^-1 a X a = 1",
        "group BS 2\nX^2 = a b",
        "group BS 1\nX^2 = a^3",
        "group BS 2\nX^2 = b a b a^-1",
        "group wreath Z^1\nX^3 = a^2",
        "group wreath Z^0 x Z_2\nX^2 = t a t^-1 a",
    ]
    for text in cases:
        system, v = _run(text)
        assert verify_certificate(v.certificate, system)
        muts = _tampers(v.certificate)
        assert muts, text
        for m in muts:
            assert not verify_certificate(m, system), (text, m)


def test_interleaving_both_searches_progress():
    """With refinement capped out and no lift left (3X = 2 has none), the
    rounds stop: the two mod-2 levels of round 1 are all there is to do."""
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(max_prime_power=2, max_monic_degree=1, steps=4))
    assert v.status == "unknown"
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] == 0
    assert v.stats["p2_levels"] == 2
    assert v.stats["rounds"] == 2
    frontier = v.stats["frontier"]
    assert frontier[0]["searches"][0]["state"] == "exhausted"


def test_interleaving_refinement_keeps_stepping():
    """Refinement gets a level every round after the lifts have run out."""
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(max_prime_power=2, steps=4))
    assert v.status == "unknown"
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] == 0
    # two warmup levels in round one, then one per round
    assert v.stats["rounds"] == 4
    assert v.stats["p2_levels"] == 2 + (v.stats["rounds"] - 1)


def test_frontier_lists_each_prime_projection():
    """An integer component gains one prime projection per scheduler step,
    primes ascending, and an unknown verdict's frontier lists each one with
    its component and chain length.  The pivot row 3*X + 2t^-2 + t^2 = 0
    loses its unknown over Z_3, so no projection refutes it at this budget."""
    system = parse_system("group wreath Z^1\nX^3 = t^-2 a1^-2 t^4 a1^-1 t^-2")
    v = decide(system, Budget(steps=4, candidates_per_step=500))
    assert v.status == "unknown"
    assert v.stats["p2_levels"] == 5
    [branch] = v.stats["frontier"]
    assert branch["state"] == "running"
    assert branch["levels"] == 5 + 4 + 3 + 2 + 1
    assert branch["searches"] == [
        {"desc": {"component": 0, "ring": p}, "state": "running", "chain": chain}
        for p, chain in [(2, 5), (3, 4), (5, 3), (7, 2), (11, 1)]
    ]


def test_scheduler_refutes_in_first_round():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget())
    assert v.status == "unsat"
    assert v.stats["rounds"] == 1
    assert v.stats["refuted_at_build"] == 0
    assert verify_certificate(v.certificate, system)


def _rendered(system, witness):
    return {name: render_element(system.spec, e) for name, e in witness.items()}


def test_lifted_witness_checked_before_refinement():
    """A branch solution that lifts to a witness wins before any refinement."""
    system, v = _run("group wreath Z^1\nt^-1 X Y^-1 = Y^-1 X t^-1")
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"X": "{} | 1", "Y": "{} | 1"}
    assert v.stats["p2_levels"] == 0
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] == v.stats["rounds"] == 1


def test_zero_lift_of_binomial_pivot():
    """A pivot with a non-monomial coefficient lifts to 0 when its row's rest
    vanishes; such a system used to wait for refinement and the balls."""
    system = parse_system("group wreath Z^0 x Z_3\nY t Z X^-1 = X^-1 Z t Y")
    build = _build(system)
    assert list(_lifts(system, build.finals))
    v = decide(system)
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"X": "{} | 0", "Y": "{} | 0", "Z": "{} | 0"}
    assert v.stats["p2_levels"] == 0


def test_planted_root_lifts_by_division():
    """X^3 = w with shift -1 has the pivot coefficient 1 + t^-1 + t^-2;
    dividing the lamps of w by it lifts the root, so the first candidate
    checked decides the system instead of a ball search of 609."""
    system, v = _run("group wreath Z^2\nX^3 = t^-3 a1 t a1 t a1 t^-2")
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"X": "{-1:(1,0)} | -1"}
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] == 1
    assert v.stats["p2_levels"] == 0


def _laurent_mul(a, b, mod):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    if mod is not None:
        out = {d: c % mod for d, c in out.items()}
    return {d: c for d, c in out.items() if c}


def _field_quotient(num, den, mod):
    """num / den in Q[t, t^-1] (mod None) or F_mod[t, t^-1], or None.

    Both are shifted to start at degree 0; den then has a nonzero constant
    term, so it divides num as a Laurent polynomial exactly when it divides
    it as a polynomial, which schoolbook division decides.
    """
    lo_n, lo_d = min(num), min(den)
    a = [Fraction(0)] * (max(num) - lo_n + 1)
    b = [Fraction(0)] * (max(den) - lo_d + 1)
    for d, c in num.items():
        a[d - lo_n] = Fraction(c)
    for d, c in den.items():
        b[d - lo_d] = Fraction(c)
    inv = 1 / b[-1] if mod is None else pow(int(b[-1]), -1, mod)
    q = {}
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if mod is not None:
            c %= mod
        if c:
            q[i + lo_n - lo_d] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
                if mod is not None:
                    a[i + j] %= mod
    return None if any(a) else q


def test_laurent_div_on_random_polynomials():
    """Over every ring a returned quotient is exact; with a unit leading
    coefficient the quotient of a product is its factor (over a composite
    ring the trailing coefficient must be a unit too, or the factor may sit
    below the degrees the division tries); over Z and a prime ring the
    division agrees with field division, so None means no quotient."""
    rng = random.Random(7)
    tally = {"quotients": 0, "none": 0, "factor": 0, "reference": 0}

    def rand_poly(mod, terms):
        out = {}
        for _ in range(terms):
            out[rng.randint(-3, 3)] = rng.randint(-3, 3) if mod is None else rng.randrange(mod)
        return {d: c for d, c in out.items() if c}

    def unit(c, mod):
        return abs(c) == 1 if mod is None else math.gcd(c, mod) == 1

    for mod in (None, 2, 3, 4, 6):
        for _ in range(400):
            den = rand_poly(mod, rng.randint(1, 4))
            q0 = rand_poly(mod, rng.randint(0, 4))
            num = _laurent_mul(den, q0, mod)
            if rng.random() < 0.4:
                # one more term; multiplying by 1 reduces and prunes it
                d = rng.randint(-6, 6)
                num = _laurent_mul({**num, d: num.get(d, 0) + rng.randint(1, 3)}, {0: 1}, mod)
            q = _laurent_div(num, den, mod)
            if not den:
                assert q == ({} if not num else None)
                continue
            if q is not None:
                assert _laurent_mul(den, q, mod) == num, (mod, num, den, q)
                tally["quotients"] += 1
            else:
                tally["none"] += 1
            ends_unit = unit(den[max(den)], mod) and (
                mod in (None, 2, 3) or unit(den[min(den)], mod)
            )
            if ends_unit and num == _laurent_mul(den, q0, mod):
                assert q == q0, (mod, num, den, q0, q)
                tally["factor"] += 1
            if mod in (None, 2, 3) and num:
                ref = _field_quotient(num, den, mod)
                if ref is not None and any(c.denominator != 1 for c in ref.values()):
                    ref = None
                assert q == (None if ref is None else {d: int(c) for d, c in ref.items()}), (
                    mod, num, den, q, ref,
                )
                tally["reference"] += 1
    assert min(tally.values()) >= 200, tally


def test_sat_verdict_certifies_no_dead_residual(monkeypatch):
    """Dead residual branches are certified only for an unsat verdict."""
    decide_mod = importlib.import_module("groupeq.decide")
    system = parse_system("group wreath Z^0 x Z_3\nY t Z X^-1 = X^-1 Z t Y")

    def refute(*args):
        raise AssertionError("dead residual certified for a sat verdict")

    monkeypatch.setattr(decide_mod, "_refute_residuals", refute)
    v = decide(system)
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"X": "{} | 0", "Y": "{} | 0", "Z": "{} | 0"}
    assert sum(r.cert is None for r in _build(system).refuted) == 3


def test_failing_lift_does_not_change_first_round_refutation(monkeypatch):
    """Lifted candidates are checked before refinement even on unsat systems:
    a lift that fails verification costs one check, and the refutation, its
    certificate and the round it lands in stay the same."""
    decide_mod = importlib.import_module("groupeq.decide")

    text = "group wreath Z^0 x Z_2\nX Y = Y^-1 X a^-1"
    system, plain = _run(text)
    assert plain.status == "unsat"
    assert _build(system).finals
    assert plain.stats["candidates_checked"] == plain.stats["p1_steps"] == 0
    assert plain.stats["rounds"] == 1

    lift = {name: parse_element(system.spec, "{} | 0") for name in system.variables}
    assert not verify_witness(system, lift)
    monkeypatch.setattr(decide_mod, "_lifts", lambda *args: iter([lift, lift]))
    v = decide(system)
    assert v.status == "unsat"
    assert v.certificate == plain.certificate
    assert verify_certificate(v.certificate, system)
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] + 1 == 2
    assert v.stats["rounds"] == 1
    assert v.stats["p2_levels"] == plain.stats["p2_levels"]


# systems that only a retry lift decides: a free unknown's division (the
# first three), a Bezout pair over Z[1/k] (at p0_0 = 0 the pivot row of the
# fourth is -7X - (3/2)Y = 4) and over Z_3[t, t^-1] (the last)
RETRY_SYSTEMS = [
    "group BS 3\na^-1 Y^-1 X = X^-1 b^-1 Y^-2",
    "group wreath Z^1\na^-1 a^2 X^2 = Y^-1 X^-1 Y^2",
    "group wreath Z^1 x Z_2\nY^-1 X^-1 Y^2 = a1 X^2",
    "group BS 2\nX^-2 a^-1 b = X Y^2",
    "group BS 3\nX^-2 b^-1 Y^-2 = a^-1 X",
    "group wreath Z^0 x Z_3\nc1^-2 Y^-1 t^-1 = X^-2 Y^2",
]


def _lift_systems():
    """The corpus systems, the ``commute`` and ``powers`` systems of
    benchmark seeds 1 and 2, systems whose lifts divide by a monomial in
    one pivot row or component and by a binomial in another, and
    ``RETRY_SYSTEMS``."""
    root = pathlib.Path(__file__).resolve().parent
    if str(root.parent / "perfbench") not in sys.path:
        sys.path.insert(0, str(root.parent / "perfbench"))
    import workloads  # the benchmark's generators, never modified

    manifest = json.loads((root / "corpus" / "manifest.json").read_text())
    texts = [(root / "corpus" / e["file"]).read_text() for e in manifest["instances"]]
    for seed in (1, 2):
        for name in ("commute", "powers"):
            texts += [item.text for item in workloads.GENERATORS[name](seed)]
    texts += [
        "group wreath Z^1 x Z_2\nY^2 X^-2 = t^2",
        "group wreath Z^1\nX^-2 = t^-2\nY = a1^-2",
        "group wreath Z^1\nY^2 = t^-2\nt^-1 = Y^-1 X^-1",
    ]
    return [parse_system(text) for text in texts + RETRY_SYSTEMS]


def _grid_envs(final):
    n = len(final.params)
    grids = itertools.product(range(3), repeat=n) if n <= 4 else [(0,) * n]
    return [dict(zip(final.params, grid)) for grid in grids]


def _every_pivot_monomial(final, env):
    """Whether every pivot coefficient of a wreath branch evaluates to one
    monomial at env, each of them evaluated."""
    return all(
        len(row.coeffs[u].eval_laurent(env)) == 1
        for part in final.parts
        for u, row in part.pivots
    )


def _listed_lifts(system, build, retry=True):
    """The lifted candidates as one list, built as before the stream: every
    grid point of every final branch lifted, plain lifts then late ones,
    then (with ``retry``) every grid point that did not lift tried again
    with each choice, each lift once."""
    plain, late, failed = [], [], {True: [], False: []}
    for final in build.finals:
        for env in _grid_envs(final):
            cand = _lift(system, final, env)
            monomial = (any(p.component < 0 for p in final.parts)
                        or _every_pivot_monomial(final, env))
            if cand is None:
                failed[monomial].append((final, env))
            else:
                (plain if monomial else late).append(cand)
    retried = []
    for final, env in failed[True] + failed[False] if retry else ():
        for choice in itertools.product(system.variables, (False, True)):
            retried.append(_lift(system, final, env, choice))
    seen, out = set(), []
    for cand in plain + late + retried:
        if cand is None:
            continue
        key = frozenset(cand.items())
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out


def test_lift_stream_yields_the_listed_lifts():
    """Streamed from the build as ``decide`` streams it, the lifts come in
    exactly the order and number of the list the whole build gives."""
    late_seen = retried = 0
    for system in _lift_systems():
        if system.spec.kind == "bs" and system.spec.k == 1:
            continue
        build = _build(system)
        listed = _listed_lifts(system, build)
        stream = _building(system)
        partial = next(stream)
        streamed = list(_lifts(system, _finals(partial, stream)))
        assert streamed == listed, render_system(system)
        assert list(_lifts(system, build.finals)) == listed
        assert len(partial.finals) == len(build.finals)
        late_seen += any(
            not _every_pivot_monomial(f, env)
            for f in build.finals if system.spec.kind == "wreath"
            for env in _grid_envs(f)
        )
        retried += len(listed) > len(_listed_lifts(system, build, retry=False))
    assert late_seen >= 20
    assert retried >= len(RETRY_SYSTEMS)


def test_monomial_pretest_agrees_with_lift_division():
    """The multi-term pivot coefficients of a branch, evaluated at a grid
    point as ``_lifts`` does, tell whether every division of the branch's
    lift there is by a monomial, as evaluating every pivot coefficient does."""
    tally = {True: 0, False: 0}
    for system in _lift_systems():
        if system.spec.kind != "wreath":
            continue
        for final in _build(system).finals:
            multi = _multi_term_pivots(final)
            for env in _grid_envs(final):
                monomial = _every_pivot_monomial(final, env)
                assert all(len(s.eval_laurent(env)) == 1 for s in multi) == monomial
                tally[monomial] += 1
    assert tally[True] >= 100 and tally[False] >= 20, tally


def test_retry_lifts_decide_what_no_plain_lift_does():
    """No grid point of a ``RETRY_SYSTEMS`` system lifts as it is; a retry
    lift is sat at the ``powers`` budget, with a witness that verifies."""
    budget = Budget(steps=4, candidates_per_step=500)
    for text in RETRY_SYSTEMS:
        system, v = _run(text, budget)
        build = _build(system)
        assert not _listed_lifts(system, build, retry=False), text
        assert v.status == "sat", text
        assert verify_witness(system, v.witness), text
        assert v.witness in _listed_lifts(system, build), text


def test_zk_bezout_against_brute_force():
    """``_zk_bezout`` solves a*u + b*v == c in Z[1/k] whenever a search of a
    box of Z[1/k] finds a solution, and what it returns is one."""
    rng = random.Random(16)
    tally = {"solved": 0, "none": 0, "boxed": 0}
    for k in (2, 3, 6):
        box = {Fraction(n, k**d) for n in range(-8, 9) for d in range(3)}

        def rand_zk():
            return Fraction(rng.randint(-9, 9), k ** rng.randint(0, 2))

        for _ in range(200):
            a, b, c = rand_zk(), rand_zk(), rand_zk()
            products = {b * v for v in box}
            boxed = any(c - a * u in products for u in box)
            got = _zk_bezout(k, a, b, c)
            assert got is not None or not boxed, (k, a, b, c)
            if got is not None:
                u, v = got
                assert a * u + b * v == c, (k, a, b, c, got)
                assert all(ZkFrac.from_fraction(x, k) is not None for x in got)
            tally["none" if got is None else "solved"] += 1
            tally["boxed"] += boxed
    assert min(tally.values()) >= 50, tally


def test_plain_witness_in_first_branch_stops_the_build():
    """A plain lift of the first final branch is the witness, so the build
    stops there: the report counts one final branch of the two there are."""
    system, v = _run("group BS 2\nY^2 b^-1 = a^-2 b^-1 a Y")
    assert len(_build(system).finals) == 2
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"Y": "0 | 0"}
    assert v.stats["final_branches"] == v.stats["branches"] == 1
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] == v.stats["rounds"] == 1


def test_refinement_frontier_is_crt_consistent():
    """Frontier residues stay mutually consistent across the modulus chain."""
    system = parse_system("group BS 2\nX^2 = a^3")
    red = reduce_bs(system)
    branch = [b for b in triangularize(red.components[0].rows, None) if b.path != "z"][0]
    part = Part(-1, None, branch.pivots, branch.residuals)
    search = _BsSearch(part, ["r_X"], 2, prime_powers_coprime(2))
    seen_mods = {}
    for _ in range(4):
        assert search.step() == "running"
        q = search.chain[-1]
        p = [p for p in (2, 3, 5, 7) if q % p == 0][0]
        seen_mods[p] = max(seen_mods.get(p, 0), q)
        # var_mod is the lcm of the multiplicative orders processed so far
        lcm = 1
        for qq in seen_mods.values():
            o = mult_order(2, qq)
            lcm = lcm * o // math.gcd(lcm, o)
        assert search.var_mod == lcm
        # each unknown's residue is taken mod the highest processed power of
        # every prime (one residue mod their product, by CRT)
        assert search.unknown_mod == math.prod(seen_mods.values())
        for vals, residues in search.frontier:
            assert all(0 <= val < search.var_mod for val in vals)
            assert all(0 <= res < search.unknown_mod for res in residues)
            env = dict(zip(search.params, vals))
            # every residue still satisfies the pivot row mod each of those powers
            for qq in seen_mods.values():
                _, evaluate, _, _ = _BsSearch(Part(-1, None, [], []), [], 2, iter(()))._level(qq)
                for row, res in zip(search.rows, residues):
                    coef = evaluate(row.coeffs["X"], env)
                    assert (coef * res + evaluate(row.const, env)) % qq == 0


def test_wreath_frontier_extends_the_previous_level():
    """Each wreath node's residues mod the previous product of moduli are a
    node of the previous level, every pivot row vanishes mod each processed
    modulus at the node's parameters, and no such extension is left out."""
    system = parse_system("group wreath Z^0 x Z_3\nX t^2 X = t a t^-1 a")
    final = _build(system).finals[0]
    part = final.parts[0]
    search = _WreathSearch(part, final.params, 3, _monics(3, 3))

    def rows_vanish(vals, residues, h):
        _, evaluate, _, vanishes = _WreathSearch(Part(0, 3, [], []), [], 3, iter(()))._level(h)
        env = dict(zip(search.params, vals))
        pick = [(r, poly_reduce(r, tuple(h), 3)) for r in residues]
        return all(
            vanishes(
                [(search.unknowns.index(u), evaluate(s, env)) for u, s in row.coeffs.items()],
                evaluate(row.const, env),
                pick,
            )
            for row in search.rows
        )

    for _ in range(3):
        prev, prev_mod, prev_hprod = set(search.frontier), search.var_mod, search.hprod
        assert search.step() == "running"
        for vals, residues in search.frontier:
            assert (
                tuple(v % prev_mod for v in vals),
                tuple(poly_reduce(r, prev_hprod, 3) for r in residues),
            ) in prev
            assert all(rows_vanish(vals, residues, h) for h in search.chain)
        h = search.chain[-1]
        lifts = [poly_mul(prev_hprod, v, 3) for v in itertools.product(range(3), repeat=len(h) - 1)]
        shifts = range(0, search.var_mod, prev_mod)
        expected = {
            (vals2, res2)
            for vals, residues in prev
            for vals2 in itertools.product(*[[v + s for s in shifts] for v in vals])
            for res2 in itertools.product(*[[poly_add(r, lift, 3) for lift in lifts] for r in residues])
            if rows_vanish(vals2, res2, h)
        }
        assert set(search.frontier) == expected
    assert len(search.frontier) > 1


def test_determinism():
    for text in ("group BS 2\nX^2 = a^3", "group BS 2\nX^-1 a X = a^3",
                 "group wreath Z^1\nX^3 = a^2"):
        system = parse_system(text)
        a, b = decide(system), decide(system)
        assert a.status == b.status
        assert a.witness == b.witness
        assert a.certificate == b.certificate


def test_reports_identical_modulo_timing():
    system = parse_system("group BS 2\nX^2 = b^2 a")
    outs = []
    for _ in range(2):
        v = decide(system)
        rep = build_report(system, v, Budget(), 0.0)
        rep["timing"] = None
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_budget_exhaustion_is_graceful():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(steps=1, max_prime_power=2,
                              max_monic_degree=1, candidates_per_step=5))
    assert v.status == "unknown"
    assert v.witness is None and v.certificate is None
    assert v.stats["rounds"] == 1


def test_unknown_then_bigger_budget_decides():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    small = decide(system, Budget(steps=1, max_prime_power=2,
                                  max_monic_degree=1, candidates_per_step=5))
    assert small.status == "unknown"
    full = decide(system)
    assert full.status == "unsat"
    assert verify_certificate(full.certificate, system)


def test_bs1_report_fields():
    system = parse_system("group BS 1\nX^2 = a^4 b^2")
    v = decide(system)
    rep = build_report(system, v, Budget(), 1.25)
    assert rep["verdict"] == "sat"
    assert rep["system_hash"] == system_hash(system)
    assert rep["group"] == "group BS 1"
    assert rep["witness"] == {"X": "2 | 1"}
    assert rep["timing"]["seconds"] == 1.25


def _lamp_names(spec):
    return [f"a{i + 1}" for i in range(spec.free_rank)] + [
        f"c{j + 1}" for j in range(len(spec.torsion))
    ]


def _word_of(spec, g):
    """Generator letters that multiply out to g."""
    if spec.kind == "bs":
        d = g.u.depth
        letters = [("b", d), ("a", g.u.num), ("b", -d), ("b", g.r)]
    else:
        letters = []
        for d, c in g.poly.coeffs:
            vals = c.free + c.torsion
            letters += [("t", d)] + list(zip(_lamp_names(spec), vals)) + [("t", -d)]
        letters.append(("t", g.shift))
    return [(n, e) for n, e in letters if e]


def _text(word):
    return " ".join(f"{n}^{e}" for n, e in word) or "1"


def test_every_lift_is_a_witness():
    """Every assignment ``_lifts`` yields over a full build passes
    ``verify_witness``.  ``decide`` passes over a lift that fails, so a lift
    bug would otherwise show only as a lost sat verdict.  The systems are
    random, most with the constant that makes a planted assignment solve
    them."""
    rng = random.Random(61)
    specs = [GroupSpec.bs(2), GroupSpec.bs(3)]
    specs += [GroupSpec.wreath(m, t) for m, t in WREATH_FAMILIES]
    exps = [-3, -2, -1, 1, 2, 3]
    tally = {"systems": 0, "lifted": 0}
    for spec in specs:
        shift_gen = "b" if spec.kind == "bs" else "t"
        lamps = ["a"] if spec.kind == "bs" else _lamp_names(spec)
        gens = [shift_gen] + lamps
        balls = ball_elements(spec, 1)

        def rand_word(names, lo=1, hi=4):
            return [(rng.choice(names), rng.choice(exps)) for _ in range(rng.randint(lo, hi))]

        for _ in range(10):
            unknowns = ["X", "Y"][: rng.randint(1, 2)]
            planted = {x: rng.choice(balls) for x in unknowns}
            lines = []
            for _ in range(rng.randint(1, 3)):
                shape = rng.random()
                if shape < 0.1:
                    lhs, rhs = rand_word(gens), rand_word(gens, 0, 2)
                else:
                    lhs = rand_word(unknowns + gens)
                    rhs = rand_word(unknowns + gens if shape < 0.5 else gens, 0, 3)
                if rng.random() < 0.8:
                    # append the constant that makes the planted assignment solve it
                    gap = mul(spec, inv(spec, eval_word(spec, rhs, planted)),
                              eval_word(spec, lhs, planted))
                    rhs = rhs + _word_of(spec, gap)
                lines.append(f"{_text(lhs)} = {_text(rhs)}")
            system = parse_system(spec.render() + "\n" + "\n".join(lines))
            if not system.variables:
                continue
            build = _build(system)
            for cand in _lifts(system, build.finals):
                assert verify_witness(system, cand), (render_system(system), cand)
                tally["lifted"] += 1
            tally["systems"] += 1
    assert tally["systems"] >= 50, tally
    assert tally["lifted"] >= 20, tally


def test_rejected_candidates_leave_a_sat_system_unknown(monkeypatch):
    """``verify_witness`` is the only check on a candidate: when it rejects
    every one, a sat system ends unknown, with no error, after exactly
    ``candidates_checked`` calls."""
    decide_mod = importlib.import_module("groupeq.decide")
    budget = Budget(steps=4, candidates_per_step=500)
    system, plain = _run("group wreath Z^1\nX Y = Y X", budget)
    assert plain.status == "sat"

    calls = []

    def reject(system, assignment):
        calls.append(assignment)
        return False

    monkeypatch.setattr(decide_mod, "verify_witness", reject)
    v = decide(system, budget)
    assert v.status == "unknown" and v.witness is None
    assert len(calls) == v.stats["candidates_checked"] > 1


def test_bs1_stats_count_the_checked_candidate(monkeypatch, capsys):
    """BS(1,1) is one linear solve, but its stats carry ``decide``'s
    counters: a complete build of no branches, and the one candidate that
    ``verify_witness`` checks on a sat system, in round 1."""
    from groupeq import cli

    decide_mod = importlib.import_module("groupeq.decide")
    _, other = _run("group BS 2\nX^2 = a^3")
    calls = []

    def counting(system, assignment):
        calls.append(assignment)
        return verify_witness(system, assignment)

    monkeypatch.setattr(decide_mod, "verify_witness", counting)
    corpus = pathlib.Path(__file__).parent / "corpus"
    for name, status, checked in [("bs1_square_even", "sat", 1), ("bs1_square_odd", "unsat", 0)]:
        path = corpus / f"{name}.eq"
        calls.clear()
        v = decide(parse_system(path.read_text()))
        assert v.status == status, name
        assert set(other.stats) <= set(v.stats), name
        assert len(calls) == v.stats["candidates_checked"] == checked, name
        assert v.stats["stage"] == "abelian" and v.stats["coverage_complete"], name
        assert v.stats["p1_steps"] == v.stats["rounds"] == checked, name
        assert v.stats["branches"] == v.stats["final_branches"] == 0, name
        assert v.stats["refuted_at_build"] == v.stats["p2_levels"] == 0, name
        capsys.readouterr()
        cli.main(["--format", "human", str(path)])
        line = f"branches: 0  rounds: {checked}  candidates: {checked}"
        assert line in capsys.readouterr().out.splitlines(), name


def test_decide_and_replay_reduce_through_the_module_names(monkeypatch):
    """``decide`` and ``verify_certificate`` reduce a system once each, and
    through the names ``groupeq.reduce.reduce_bs`` and ``reduce_wreath``,
    which ``perfbench/layertrace.py`` wraps to count ``reduce.reduce_calls``;
    BS(1,1), solved by one linear solve, reduces through them too."""
    reduce_mod = importlib.import_module("groupeq.reduce")
    calls = []
    for family in ("reduce_bs", "reduce_wreath"):

        def counting(system, family=family, inner=getattr(reduce_mod, family)):
            calls.append(family)
            return inner(system)

        monkeypatch.setattr(reduce_mod, family, counting)
    corpus = pathlib.Path(__file__).parent / "corpus"
    for name, family, status in [
        ("bs2_conj_pow3", "reduce_bs", "unsat"),
        ("lamp2_square_root", "reduce_wreath", "unsat"),
        ("bs1_square_even", "reduce_bs", "sat"),
    ]:
        system = parse_system((corpus / f"{name}.eq").read_text())
        calls.clear()
        v = decide(system)
        assert v.status == status and calls == [family], (name, calls)
        if status == "unsat":
            calls.clear()
            assert verify_certificate(v.certificate, system), name
            assert calls == [family], (name, calls)


def _record_residual_solves(monkeypatch):
    """Wrap the exact solvers that ``decide`` calls; returns the list of
    (ring, equations) keys they receive, in call order."""
    decide_mod = importlib.import_module("groupeq.decide")
    seen = []
    grouping, semenov = decide_mod.grouping_solve, decide_mod.semenov_solve

    def grouping_rec(equations, mod):
        seen.append((mod, tuple(tuple(eq) for eq in equations)))
        return grouping(equations, mod)

    def semenov_rec(system):
        seen.append((None, repr(system)))
        return semenov(system)

    monkeypatch.setattr(decide_mod, "grouping_solve", grouping_rec)
    monkeypatch.setattr(decide_mod, "semenov_solve", semenov_rec)
    return seen


def test_each_residual_system_is_solved_once_per_call(monkeypatch):
    """Branches that share a residual system share its solution within one
    ``decide`` call (each system below meets 6 distinct residual systems,
    34 and 24 times), and a second call solves again: nothing is cached
    across calls."""
    seen = _record_residual_solves(monkeypatch)
    budget = Budget(steps=2)
    for text, most in [
        ("group wreath Z^2\nt Y X Z^-1 = Z^-1 X Y t", 6),
        ("group wreath Z^1 x Z_2\nY X c1 Z^-1 = Z^-1 c1 X Y", 6),
    ]:
        system = parse_system(text)
        runs = []
        for _ in range(2):
            seen.clear()
            assert decide(system, budget).status == "sat", text
            assert len(seen) == len(set(seen)), text
            assert 0 < len(seen) <= most, text
            runs.append(list(seen))
        assert runs[0] == runs[1], text


def test_certificate_replay_solves_each_residual_system_once(monkeypatch):
    """A replay rebuilds through ``_building``, so it shares residual
    solutions too; the certificate still verifies, and criterion 7's
    tampered copies still fail."""
    from test_acceptance import _cert_tampers

    system, v = _run("group wreath Z^1 x Z_2\nY^-1 a1 Y^-1 = X^-2",
                     Budget(steps=4, candidates_per_step=500))
    assert v.status == "unsat"
    seen = _record_residual_solves(monkeypatch)
    assert verify_certificate(v.certificate, system)
    # the rebuild meets 4 distinct residual systems, 8 times
    assert 0 < len(seen) == len(set(seen)) <= 4
    for bad in _cert_tampers(v.certificate):
        assert not verify_certificate(bad, system), bad


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_child_states_are_built_when_popped(monkeypatch):
    """A pick that leaves a parameter lattice is queued unbuilt: a sat
    ``decide`` that stops early makes only the children it pops, and a
    child whose side condition vanishes is refuted before its rows are
    substituted.  Building each child at pick time cost 16 parameter
    solutions and 24 row substitutions in the ``decide`` below, and 34 and
    24 row substitutions in the two drained builds."""
    decide_mod = importlib.import_module("groupeq.decide")
    solutions = _count_calls(monkeypatch, decide_mod, "apply_solution")
    rows = _count_calls(monkeypatch, Row, "substitute")
    system = parse_system("group wreath Z^1 x Z_2\nY X c1 Z^-1 = Z^-1 c1 X Y")
    v = decide(system, Budget(steps=2))
    assert v.status == "sat" and v.stats["branches"] == 2
    assert 0 < len(solutions) <= 2 and 0 < len(rows) <= 2
    rows.clear()
    _build(system)
    assert 0 < len(rows) <= 4
    rows.clear()
    build = _build(parse_system("group wreath Z^2\nt Y X Z^-1 = Z^-1 X Y t"))
    side = {"kind": "empty_disjunction", "stage": "side-assumption"}
    assert [r.cert for r in build.refuted].count(side) == 9
    assert 0 < len(rows) <= 6


# the 27 branches of ``group wreath Z^2``, ``t Y X Z^-1 = Z^-1 X Y t``, in
# build order: final paths, and refuted paths with their recorded stage
# (None for a dead residual system, certified on demand)
Z2_FINALS = ["/tn.+n.", "/tzzn.+zzn./d0/tn.+n.", "/tzn.+zn./d0/tn.+n."]
Z2_REFUTED = [
    ("/tzzz+zzz", None), ("/tzzz+zzn.", None), ("/tzzz+zn.", None),
    ("/tzzz+n.", None), ("/tzzn.+zzz", None), ("/tzn.+zzz", None),
    ("/tn.+zzz", None), ("/tzzn.+zzn./d0/tz+z", None),
    ("/tzzn.+zzn./d0/tz+n.", None), ("/tzzn.+zzn./d0/tn.+z", None),
    ("/tzzn.+zn./d0", "side-assumption"), ("/tzzn.+n./d0", "side-assumption"),
    ("/tzn.+zzn./d0", "side-assumption"), ("/tzn.+zn./d0/tzz+zz", None),
    ("/tzn.+zn./d0/tzz+zn.", None), ("/tzn.+zn./d0/tzz+n.", None),
    ("/tzn.+zn./d0/tzn.+zz", None), ("/tzn.+zn./d0/tn.+zz", None),
    ("/tzn.+n./d0", "side-assumption"), ("/tn.+zzn./d0", "side-assumption"),
    ("/tn.+zn./d0", "side-assumption"),
    ("/tzn.+zn./d0/tzn.+zn./d0", "side-assumption"),
    ("/tzn.+zn./d0/tzn.+n./d0", "side-assumption"),
    ("/tzn.+zn./d0/tn.+zn./d0", "side-assumption"),
]


def test_deferred_children_keep_branch_order():
    """Children built only when popped keep every path, its place in the
    build and its recorded stage, in a drained build and in a streamed one;
    a streamed build has refuted the same branches by each final it yields."""
    system = parse_system("group wreath Z^2\nt Y X Z^-1 = Z^-1 X Y t")

    def refuted(build):
        return [(r.path, r.cert and r.cert["stage"]) for r in build.refuted]

    build = _build(system)
    assert [f.path for f in build.finals] == Z2_FINALS
    assert refuted(build) == Z2_REFUTED
    stream = _building(system)
    streamed = next(stream)
    seen = [(f.path, len(streamed.refuted)) for f in stream]
    assert seen == list(zip(Z2_FINALS, [7, 10, 18]))
    assert refuted(streamed) == Z2_REFUTED
    assert [f.path for f in streamed.finals] == Z2_FINALS


def test_long_constant_word_is_sat_and_verifies(tmp_path, capsys):
    from groupeq import cli

    # the lift divides the lamps of (t a)^n by 1, which must be linear in n
    for n in (1500, 12000):
        system = parse_system("group wreath Z^1\nX = " + " ".join(["t a"] * n) + "\n")
        start = time.monotonic()
        verdict = decide(system)
        seconds = time.monotonic() - start
        assert verdict.status == "sat" and seconds < 5.0, (n, seconds)
        rep = tmp_path / f"long{n}.json"
        rep.write_text(json.dumps(build_report(system, verdict, Budget(), seconds)))
        capsys.readouterr()
        start = time.monotonic()
        assert cli.main(["--verify-only", str(rep)]) == cli.EXIT_SAT
        assert time.monotonic() - start < 5.0, n
        assert capsys.readouterr().out == "witness: ok\n"
