import copy
import importlib
import json

from groupeq.decide import (
    Budget,
    _BsSearch,
    _build,
    _lift_candidates,
    build_report,
    decide,
    enumerate_search,
    verify_certificate,
)
from groupeq.frontend import parse_system, system_hash
from groupeq.groups import parse_element, render_element, verify_witness
from groupeq.reduce import reduce_bs, triangularize
from groupeq.rings import mult_order


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
    ]
    for text, kind, fields in expect:
        system, v = _run(text)
        assert v.status == "unsat", text
        cert = v.certificate
        assert cert["kind"] == kind, text
        for key, val in fields.items():
            assert cert[key] == val, (text, key)
        assert verify_certificate(cert, system), text


def test_two_branch_refutation_shape():
    system, v = _run("group BS 2\nX^2 = b^2 a")
    cert = v.certificate
    assert cert["kind"] == "branch_refutation"
    got = sorted((e["path"], e["cert"]["kind"]) for e in cert["branches"])
    assert got == [("/tn.", "modulus_obstruction"), ("/tz", "modulus_obstruction")]
    assert all(e["cert"]["chain"] == [3] for e in cert["branches"])
    assert verify_certificate(cert, system)


def test_enumerate_search_examples():
    system = parse_system("group BS 2\nX^2 = a^3")
    w = enumerate_search(system, Budget(radius=4))
    assert w is not None
    assert verify_witness(system, w)

    system = parse_system("group BS 2\nX = 1")
    w = enumerate_search(system, Budget(radius=0))
    assert w is not None and w["X"].r == 0 and w["X"].u.num == 0

    system = parse_system("group wreath Z^0 x Z_2\nX a = a X")
    w = enumerate_search(system, Budget(radius=1))
    assert w is not None and verify_witness(system, w)


def test_verify_rejects_foreign_system():
    system, v = _run("group BS 2\nX^-1 a X = a^3")
    other = parse_system("group BS 2\nX^-1 a X = a^5")
    assert verify_certificate(v.certificate, system)
    assert not verify_certificate(v.certificate, other)


def _tampers(cert):
    """Single-field edits that break validity (not merely produce another
    valid refutation)."""
    out = []

    def mut(fn):
        c = copy.deepcopy(cert)
        fn(c)
        out.append(c)

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
    ]
    for text in cases:
        system, v = _run(text)
        assert verify_certificate(v.certificate, system)
        muts = _tampers(v.certificate)
        assert muts, text
        for m in muts:
            assert not verify_certificate(m, system), (text, m)


def test_interleaving_both_searches_progress():
    """With refinement capped out, enumeration still gets a step every round."""
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(attempt_levels=0, max_prime_power=2,
                              max_monic_degree=1, steps=4))
    assert v.status == "unknown"
    assert v.stats["rounds"] == 4
    assert v.stats["p1_steps"] == 4
    # refinement exhausted its two mod-2 levels during the first round
    assert v.stats["p2_levels"] == 2
    frontier = v.stats["frontier"]
    assert frontier[0]["searches"][0]["state"] == "exhausted"


def test_interleaving_refinement_keeps_stepping():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(attempt_levels=0, max_prime_power=2, steps=4))
    assert v.status == "unknown"
    # two warmup levels in round one, then one per round
    assert v.stats["p2_levels"] == 2 + (v.stats["rounds"] - 1)
    assert v.stats["p1_steps"] == v.stats["rounds"] == 4


def test_scheduler_refutes_in_first_round():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    v = decide(system, Budget(attempt_levels=0))
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
    budget = Budget()
    assert _lift_candidates(system, _build(system, budget), budget)
    v = decide(system, budget)
    assert v.status == "sat"
    assert _rendered(system, v.witness) == {"X": "{} | 0", "Y": "{} | 0", "Z": "{} | 0"}
    assert v.stats["p2_levels"] == 0


def test_failing_lift_does_not_change_first_round_refutation(monkeypatch):
    """Lifted candidates are checked before refinement even on unsat systems:
    a lift that fails verification costs one check, and the refutation, its
    certificate and the round it lands in stay the same."""
    decide_mod = importlib.import_module("groupeq.decide")

    text = "group wreath Z^0 x Z_2\nX Y = Y^-1 X a^-1"
    system, plain = _run(text)
    assert plain.status == "unsat"
    assert _build(system, Budget()).finals
    assert plain.stats["candidates_checked"] == plain.stats["p1_steps"] == 0
    assert plain.stats["rounds"] == 1

    lift = {name: parse_element(system.spec, "{} | 0") for name in system.variables}
    assert not verify_witness(system, lift)
    monkeypatch.setattr(decide_mod, "_lift_candidates", lambda *args: [lift, lift])
    v = decide(system)
    assert v.status == "unsat"
    assert v.certificate == plain.certificate
    assert verify_certificate(v.certificate, system)
    assert v.stats["candidates_checked"] == v.stats["p1_steps"] + 1 == 2
    assert v.stats["rounds"] == 1
    assert v.stats["p2_levels"] == plain.stats["p2_levels"]


def test_refinement_frontier_is_crt_consistent():
    """Frontier residues stay mutually consistent across the modulus chain."""
    system = parse_system("group BS 2\nX^2 = a^3")
    red = reduce_bs(system)
    branch = [b for b in triangularize(red.rows, list(red.zvars)) if b.path != "z"][0]
    search = _BsSearch(branch.pivots, branch.residuals, ["r_X"], 2, Budget())
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
            lcm = lcm * o // __import__("math").gcd(lcm, o)
        assert search.var_mod == lcm
        for vals, utab in search.frontier:
            assert all(0 <= val < search.var_mod for val in vals)
            env = dict(zip(search.params, vals))
            for entries in utab:
                primes = [pr for pr, _, _ in entries]
                assert len(primes) == len(set(primes))
                # each entry tracks the highest processed power of its prime
                assert {pr: qq for pr, _, qq in entries} == {
                    pr: qq for pr, qq in seen_mods.items()
                }
            # every recorded residue still satisfies the pivot row
            for row, entries in zip(search.rows, utab):
                for pr, res, qq in entries:
                    period = mult_order(2, qq)
                    coef = search._sum_mod(row.coeffs["X"], env, period, qq)
                    const = search._sum_mod(row.const, env, period, qq)
                    assert (coef * res + const) % qq == 0


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
    v = decide(system, Budget(steps=1, attempt_levels=0, max_prime_power=2,
                              max_monic_degree=1, candidates_per_step=5, radius=1))
    assert v.status == "unknown"
    assert v.witness is None and v.certificate is None
    assert v.stats["rounds"] == 1


def test_unknown_then_bigger_budget_decides():
    system = parse_system("group wreath Z^1\nX^3 = a^2")
    small = decide(system, Budget(steps=1, attempt_levels=0, max_prime_power=2,
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
