#!/usr/bin/env python3
"""Refutation certificates: what they contain and how replay catches tampering.

An unsat verdict ships a certificate meant to be checked by someone who does
not trust the solver.  Replay re-runs the cheap part of the pipeline, matches
the recorded branch structure, and re-derives each obstruction: it replays
the search the record names over the recorded chain of moduli, and accepts
only when that search is refuted and writes the record again, field for
field.  Editing any field, or adding one, makes verification fail.
"""

import copy
import json

from groupeq.decide import Budget, decide, verify_certificate
from groupeq.frontend import parse_system

sys_ = parse_system("group BS 2\nX^-1 a X = a^3\n")
rep = decide(sys_, Budget())
assert rep.status == "unsat"
cert = rep.certificate

print("instance: X^-1 a X = a^3 over BS(1,2)")
print("certificate:")
print(json.dumps(cert, indent=2))
print()

# The chain lists moduli: the residual equation 2^r = 3 is refuted by
# lifting the exponent modulo ord(2 mod q) for each q in the chain and
# finding no residue class survives.
print("replay of the genuine certificate:",
      "ok" if verify_certificate(cert, sys_) else "FAILED")

mutations = {
    "wrong version": lambda c: c.update(version=99),
    "wrong system hash": lambda c: c.update(system_hash="0" * 64),
    "kind swapped": lambda c: c.update(kind="linear_infeasible"),
    "chain truncated": lambda c: c.update(chain=c["chain"][:-1]),
    "rows mangled": lambda c: c.update(rows=["0 = 0"]),
    "branch path moved": lambda c: c.update(path=c["path"] + "."),
    "extra field": lambda c: c.update(note="trust me"),
}
for label, mutate in mutations.items():
    bad = copy.deepcopy(cert)
    mutate(bad)
    verdict = "ok" if verify_certificate(bad, sys_) else "rejected"
    print(f"  {label}: {verdict}")

# A different obstruction class: shared linear part with no integer solution.
sys2 = parse_system("group BS 2\nX^2 = a b\n")
rep2 = decide(sys2, Budget())
print()
print("instance: X^2 = a b, certificate kind:", rep2.certificate["kind"])
print("  witness row:", rep2.certificate["witness_row"])
print("  replay:", "ok" if verify_certificate(rep2.certificate, sys2) else "FAILED")
