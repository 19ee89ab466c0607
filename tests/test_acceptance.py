"""Acceptance gate: eight end-to-end criteria, one summary line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each criterion states its own scale and wall-clock bound; a FAIL line is
followed by the assertion that actually stops the suite.
"""

import copy
import itertools
import json
import pathlib
import random
import subprocess
import sys
import time

from groupeq.decide import Budget, decide, verify_certificate
from groupeq.expsolve import SemenovSystem, grouping_solve, semenov_solve
from groupeq.frontend import parse_system, render_word
from groupeq.groups import (
    GroupSpec,
    eval_word,
    identity,
    inv,
    mul,
    render_element,
    verify_witness,
)
from groupeq.intlinalg import AffineForm, smith_normal_form
from groupeq.oracle import SearchBall, brute_force_exp, brute_force_group
from groupeq.reduce import reduce_system
from groupeq.rings import LaurentPoly, RElem, ZkFrac
from reference_models import d_matrix, det, eval_bs_system, eval_wreath_system, mat_mul

CORPUS = pathlib.Path(__file__).parent / "corpus"
CLI = [sys.executable, "-m", "groupeq.cli"]

FAMILIES = [
    GroupSpec.bs(2),
    GroupSpec.bs(3),
    GroupSpec.wreath(0, (2,)),
    GroupSpec.wreath(1),
    GroupSpec.wreath(1, (2,)),
]


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _manifest():
    with open(CORPUS / "manifest.json") as fh:
        return json.load(fh)["instances"]


def _rand_bs(rng, k, radius=4):
    num = rng.randint(-2 * radius, 2 * radius)
    depth = rng.randint(0, radius)
    return type(identity(GroupSpec.bs(k)))(
        ZkFrac.make(num, depth, k), rng.randint(-3, 3)
    )


def _rand_wreath(rng, spec, radius=3):
    m, orders = spec.free_rank, spec.torsion
    items = []
    for pos in rng.sample(range(-radius, radius + 1), rng.randint(0, 3)):
        free = [rng.randint(-radius, radius) for _ in range(m)]
        tors = [rng.randrange(o) for o in orders]
        c = RElem.make(free, tors, orders)
        if not c.is_zero():
            items.append((pos, c))
    poly = LaurentPoly.make(items, m, orders)
    return type(identity(spec))(poly, rng.randint(-radius, radius))


def _rand_elem(rng, spec):
    if spec.kind == "bs":
        return _rand_bs(rng, spec.k)
    return _rand_wreath(rng, spec)


def test_criterion_1_group_arithmetic():
    t0 = time.monotonic()
    rng = random.Random(101)
    fails = 0
    for spec in FAMILIES:
        e = identity(spec)
        checks = 0
        while checks < 10_000:
            g, h, f = (_rand_elem(rng, spec) for _ in range(3))
            if mul(spec, mul(spec, g, h), f) != mul(spec, g, mul(spec, h, f)):
                fails += 1
            if mul(spec, g, inv(spec, g)) != e:
                fails += 1
            if mul(spec, e, g) != g:
                fails += 1
            if mul(spec, g, e) != g:
                fails += 1
            checks += 4
    for k in (2, 3, 5):
        spec = GroupSpec.bs(k)
        lhs = eval_word(spec, [("b", -1), ("a", 1), ("b", 1)], {})
        rhs = eval_word(spec, [("a", k)], {})
        if lhs != rhs:
            fails += 1
    dt = time.monotonic() - t0
    _line(1, fails == 0 and dt < 10,
          f"50,000 arithmetic checks across 5 families, {fails} failures, {dt:.1f}s")


def test_criterion_2_smith_normal_form():
    t0 = time.monotonic()
    rng = random.Random(202)
    fails = 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(a)
        if mat_mul(mat_mul(res.u, a), res.v) != d_matrix(res):
            fails += 1
        if abs(det(res.u)) != 1 or abs(det(res.v)) != 1:
            fails += 1
        diag = res.diag
        if any(d < 0 for d in diag):
            fails += 1
        if any(y % x for x, y in zip(diag, diag[1:])):
            fails += 1
    dt = time.monotonic() - t0
    _line(2, fails == 0 and dt < 30,
          f"1,000 matrices up to 5x5, {fails} failures, {dt:.1f}s")


def _exp_solution_points(disjuncts, variables, box):
    pts = set()
    for pt in itertools.product(box, repeat=len(variables)):
        env = dict(zip(variables, pt))
        for forms in disjuncts:
            if all(f.evaluate(env) == 0 for f in forms):
                pts.add(pt)
                break
    return pts


def test_criterion_3_semenov_equivalence():
    t0 = time.monotonic()
    rng = random.Random(303)
    box = range(-8, 21)
    fails = 0
    checked = 0
    solver_s = oracle_s = 0.0

    def check(k, betas, c):
        nonlocal fails, checked, solver_s, oracle_s
        names = [f"y{i}" for i in range(len(betas))]
        terms = [(b, AffineForm.var(n)) for b, n in zip(betas, names)]
        sys_ = SemenovSystem.make([(terms, c)], k)
        t1 = time.monotonic()
        disjuncts = semenov_solve(sys_)
        t2 = time.monotonic()
        hits = brute_force_exp(sys_, (-8, 20))
        t3 = time.monotonic()
        solver_s += t2 - t1
        oracle_s += t3 - t2
        got = _exp_solution_points(disjuncts, names, box)
        want = {tuple(e[n] for n in names) for e in hits}
        if got != want:
            fails += 1
        checked += 1

    coefs = [b for b in range(-5, 6) if b]
    # one variable: the whole space
    for k in (2, 3):
        for b1 in coefs:
            for c in range(-20, 21):
                if rng.random() < 0.25:
                    check(k, [b1], c)
    # two and three variables: sampled
    while checked < 1800:
        check(rng.choice([2, 3]), [rng.choice(coefs) for _ in range(2)],
              rng.randint(-20, 20))
    while checked < 2000:
        check(rng.choice([2, 3]), [rng.choice(coefs) for _ in range(3)],
              rng.randint(-20, 20))
    dt = time.monotonic() - t0
    _line(3, fails == 0 and dt < 300,
          f"{checked} exponential systems vs oracle on [-8,20]^v, {fails} mismatches, "
          f"{dt:.0f}s (solver {solver_s:.0f}s, oracle {oracle_s:.0f}s)")


def test_criterion_4_grouping_equivalence():
    t0 = time.monotonic()
    rng = random.Random(404)
    fails = 0
    checked = 0
    box = range(-10, 11)
    for nvars, count in ((1, 400), (2, 400), (3, 200)):
        names = [f"x{i}" for i in range(nvars)]
        done = 0
        while done < count:
            ring = rng.choice([None, 2, 3, 5, 6])
            eq = []
            for _ in range(rng.randint(1, 5)):
                c = rng.randint(-6, 6) if ring is None else rng.randrange(1, ring)
                if not c:
                    continue
                f = AffineForm.constant(rng.randint(-3, 3))
                if rng.random() < 0.85:
                    f = f + AffineForm.var(rng.choice(names))
                eq.append((c, f))
            if not eq:
                continue
            got = _exp_solution_points(grouping_solve([eq], ring), names, box)
            want = set()
            for pt in itertools.product(box, repeat=nvars):
                env = dict(zip(names, pt))
                acc = {}
                for c, f in eq:
                    d = f.evaluate(env)
                    w = acc.get(d, 0) + c
                    if ring is not None:
                        w %= ring
                    if w:
                        acc[d] = w
                    else:
                        acc.pop(d, None)
                if not acc:
                    want.add(pt)
            if got != want:
                fails += 1
            done += 1
            checked += 1

    # the mod-5 four-term worked example yields its known linear system
    v = AffineForm.var
    e1 = AffineForm.constant(3) - v("x1") + v("x2")
    e2 = AffineForm.constant(-2) + v("x1")
    e3 = v("x3") + AffineForm.constant(-2)
    out = grouping_solve([[(3, e1), (4, e2), (2, e3), (1, AffineForm.constant(0))]], 5)

    def sign_free(f):
        return frozenset({f.render(), f.scale(-1).render()})

    want = {sign_free(e1 - e3), sign_free(e2)}
    reproduced = any({sign_free(f) for f in forms} == want for forms in out)
    dt = time.monotonic() - t0
    _line(4, fails == 0 and reproduced and dt < 120,
          f"{checked} grouping systems vs brute force on [-10,10]^v, "
          f"{fails} mismatches, worked example {'ok' if reproduced else 'MISSING'}, {dt:.0f}s")


def _rand_group_system(rng, head, spec):
    names = spec.generator_names()
    variables = ["X", "Y"][: rng.randint(1, 2)]
    lines = [head]
    for _ in range(rng.randint(1, 2)):
        lhs = [(rng.choice(names + variables), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randint(1, 3))]
        rhs = [(rng.choice(names + variables), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randint(1, 3))]
        lines.append(f"{render_word(lhs)} = {render_word(rhs)}")
    return parse_system("\n".join(lines))


def test_criterion_5_reduction_soundness():
    t0 = time.monotonic()
    rng = random.Random(505)
    heads = {
        "group BS 2": GroupSpec.bs(2),
        "group BS 3": GroupSpec.bs(3),
        "group wreath Z^0 x Z_2": GroupSpec.wreath(0, (2,)),
        "group wreath Z^1": GroupSpec.wreath(1),
        "group wreath Z^1 x Z_2": GroupSpec.wreath(1, (2,)),
    }
    fails = 0
    for head, spec in heads.items():
        done = 0
        while done < 500:
            system = _rand_group_system(rng, head, spec)
            if not system.variables:
                continue
            red = reduce_system(system)
            evalf = eval_bs_system if spec.kind == "bs" else eval_wreath_system
            for _ in range(200):
                if spec.kind == "bs":
                    assignment = {v: _rand_bs(rng, spec.k, 3) for v in system.variables}
                else:
                    assignment = {v: _rand_wreath(rng, spec, 3) for v in system.variables}
                if evalf(spec, red, assignment) != verify_witness(system, assignment):
                    fails += 1
            done += 1
    dt = time.monotonic() - t0
    _line(5, fails == 0 and dt < 300,
          f"2,500 systems x 200 assignments across 5 families, {fails} disagreements, {dt:.0f}s")


def test_criterion_6_corpus_end_to_end():
    t0 = time.monotonic()
    entries = _manifest()
    problems = []
    verdicts = {}
    for e in entries:
        system = parse_system((CORPUS / e["file"]).read_text())
        v = decide(system)
        verdicts[e["name"]] = (system, v)
        if v.status != e["expected"]:
            problems.append(f"{e['name']}: got {v.status}")
            continue
        if v.status == "sat":
            if not verify_witness(system, v.witness):
                problems.append(f"{e['name']}: witness fails")
            hits = brute_force_group(system, system.spec, SearchBall(e["oracle_radius"]))
            if not hits:
                problems.append(f"{e['name']}: no oracle witness at r={e['oracle_radius']}")
        else:
            if not verify_certificate(v.certificate, system):
                problems.append(f"{e['name']}: certificate fails")
            hits = brute_force_group(system, system.spec, SearchBall(e["oracle_radius"]))
            if hits:
                problems.append(f"{e['name']}: oracle found witness at r={e['oracle_radius']}")

    # fixed reference checks
    sys3, v3 = verdicts["bs2_square_root"]
    if render_element(sys3.spec, v3.witness["X"]) != "3*2^-1 | 0":
        problems.append("bs2_square_root witness is not 3*2^-1 | 0")
    if verdicts["bs2_conj_pow3"][1].certificate.get("kind") != "modulus_obstruction":
        problems.append("bs2_conj_pow3 lacks a modulus certificate")
    if verdicts["bs2_square_ab"][1].certificate.get("kind") != "linear_infeasible":
        problems.append("bs2_square_ab not refuted at the linear stage")
    zcert = verdicts["zwr_square_root"][1].certificate
    if zcert.get("inner", {}).get("ring") != 2:
        problems.append("zwr_square_root lacks a prime-modulus certificate")
    dt = time.monotonic() - t0
    _line(6, not problems and len(entries) >= 30 and dt < 600,
          f"{len(entries)} instances decided, witnesses+certificates verified, "
          f"oracle cross-checked; {'; '.join(problems) or 'no problems'}; {dt:.0f}s")


_reports: dict = {}


def _cli_report(entry):
    name = entry["name"]
    if name not in _reports:
        r = subprocess.run(
            CLI + ["--format", "json", str(CORPUS / entry["file"])],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode in (0, 1), (name, r.stderr)
        _reports[name] = json.loads(r.stdout)
    return _reports[name]


def _verify_only(report_dict, tmp_path, tag):
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(report_dict))
    return subprocess.run(
        CLI + ["--verify-only", str(path)], capture_output=True, text=True, timeout=120
    ).returncode


def _cert_tampers(cert):
    out = []

    def mut(fn):
        c = copy.deepcopy(cert)
        fn(c)
        out.append(c)

    mut(lambda c: c.update(version=2))
    mut(lambda c: c.update(system_hash="0" * 64))
    if "path" in cert:
        mut(lambda c: c.update(path=c["path"] + "."))
    if "chain" in cert and cert["chain"]:
        mut(lambda c: c.update(chain=c["chain"][:-1]))
    if "witness_row" in cert:
        mut(lambda c: c.update(witness_row=[c["witness_row"][0], 2, 4]))
    if cert.get("kind") == "component_obstruction":
        mut(lambda c: c.update(component=c.get("component", 0) + 1))

        def chop(c):
            if c["inner"].get("chain"):
                c["inner"]["chain"] = c["inner"]["chain"][:-1]
            else:
                c["inner"]["params"] = list(c["inner"]["params"]) + ["extra"]

        mut(chop)
    if cert.get("kind") == "branch_refutation":
        mut(lambda c: c.update(branches=c["branches"][:-1]))
    if cert.get("kind") == "empty_disjunction":
        mut(lambda c: c.update(rows=list(c["rows"]) + ["0 = 0"]))
        mut(lambda c: c.update(params=list(c["params"]) + ["extra"]))
    return out


def test_criterion_7_certificate_audit(tmp_path):
    t0 = time.monotonic()
    entries = _manifest()
    problems = []
    reverified = 0
    tampered = 0
    for e in entries:
        rep = _cli_report(e)
        if _verify_only(rep, tmp_path, f"ok_{e['name']}") != 0:
            problems.append(f"{e['name']}: clean report did not re-verify")
        reverified += 1
        if rep["verdict"] != "unsat":
            continue
        for i, bad_cert in enumerate(_cert_tampers(rep["certificate"])):
            bad = copy.deepcopy(rep)
            bad["certificate"] = bad_cert
            if _verify_only(bad, tmp_path, f"bad_{e['name']}_{i}") != 1:
                problems.append(f"{e['name']} tamper {i} was accepted")
            tampered += 1
    dt = time.monotonic() - t0
    _line(7, not problems,
          f"{reverified} reports re-verified, {tampered} tampered certificates "
          f"all rejected; {'; '.join(problems) or 'no problems'}; {dt:.0f}s")


def test_criterion_8_determinism():
    t0 = time.monotonic()
    entries = _manifest()
    runs = []
    for _ in range(2):
        blob = {}
        for e in entries:
            r = subprocess.run(
                CLI + ["--format", "json", str(CORPUS / e["file"])],
                capture_output=True, text=True, timeout=120,
            )
            rep = json.loads(r.stdout)
            rep.pop("timing")
            blob[e["name"]] = rep
        runs.append(json.dumps(blob, sort_keys=True))
    dt = time.monotonic() - t0
    _line(8, runs[0] == runs[1],
          f"two corpus runs byte-identical modulo timing, {dt:.0f}s")
