"""Print a digest of every report the solver writes for a fixed set of inputs.

One line per input, ``name report contract``, and one more per input whose
report carries a witness or a certificate (below).  ``report`` is the
sha256 of the ``--format json`` report without its ``timing`` field (stats
and key order included); ``contract`` is the sha256 of its verdict, witness
and certificate only.  The inputs are the corpus instances under the default
Budget, then the ``commute`` and ``powers`` systems of every seed given as
an argument, under that workload's Budget (``perfbench/workloads.py``,
imported and never modified).  Two solvers that differ only in speed print
the same lines, so comparing a change with its parent is a diff; a change
that moves only search counters differs in the ``report`` column alone.
After each input whose report carries a witness or a certificate (every
sat and every unsat one) a second line, ``name verify answer | tampered |
cut``, holds the ``--verify-only`` answer on its report, on a copy whose
system was tampered as the benchmark's audit workload does
(``perfbench/run.py`` ``_tamper``), and on a copy whose every modulus chain
lost its last modulus (``-`` when the certificate has no chain).  So the
diff also covers the verifier's accept and reject decisions: the
re-multiplication of each witness, the replay of each certificate, and the
replay's rejection of a chain that stops short of its refuting level (the
tampered system already fails at the hash).  The solver ends a chain at the
first empty level, so every cut answer other than ``-`` reads ``FAILED``.
The answer is the output lines of ``groupeq.cli.verify_lines``, the function
``--verify-only`` prints, joined by ``; ``:

    PYTHONPATH=src python tests/corpus/report_digest.py 1 2 3 > change.txt
    PYTHONPATH=../parent/src python tests/corpus/report_digest.py 1 2 3 > parent.txt
    diff parent.txt change.txt
    diff <(cut -d' ' -f1,3 parent.txt) <(cut -d' ' -f1,3 change.txt)

``--random FIRST-LAST`` appends the same lines for a random sample, named
``random:seed:i``: for each seed s in FIRST..LAST, one ``random.Random(s)``
draws systems with ``tests/test_acceptance.py`` ``_rand_group_system`` over
the families of ``RANDOM_FAMILIES`` in order, ``RANDOM_PER_FAMILY`` systems
with unknowns per family, each decided under ``RANDOM_BUDGET``.

The ``groupeq`` package is whichever one ``PYTHONPATH`` names; it needs
``groupeq.cli.verify_lines``, so a checkout older than that function is
digested with its own copy of this script.
"""

import argparse
import copy
import hashlib
import itertools
import json
import pathlib
import random
import sys

from groupeq.cli import verify_lines
from groupeq.decide import Budget, build_report, decide
from groupeq.frontend import parse_system, render_system

CORPUS = pathlib.Path(__file__).parent
sys.path.insert(0, str(CORPUS.parent.parent / "perfbench"))
import workloads  # noqa: E402
from run import _tamper  # noqa: E402

sys.path.insert(0, str(CORPUS.parent))
from test_acceptance import _rand_group_system  # noqa: E402

RANDOM_FAMILIES = [
    "group BS 2",
    "group BS 3",
    "group wreath Z^0 x Z_2",
    "group wreath Z^0 x Z_3",
    "group wreath Z^1",
    "group wreath Z^1 x Z_2",
    "group wreath Z^2",
]
RANDOM_PER_FAMILY = 60
RANDOM_BUDGET = {"steps": 4, "candidates_per_step": 500}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def _answer(report: dict) -> str:
    _, lines = verify_lines(report, parse_system(report["system"]))
    return "; ".join(lines)


def _chained(node) -> list:
    """The records under ``node`` (a certificate) that hold a modulus chain."""
    found = []
    if isinstance(node, dict):
        if "chain" in node:
            found.append(node)
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            found += _chained(item)
    return found


def _cut_answer(report: dict) -> str:
    """The answer on a copy of ``report`` whose every modulus chain lost its
    last modulus, or ``-`` when its certificate has no chain."""
    cut = copy.deepcopy(report)
    records = _chained(cut["certificate"])
    for rec in records:
        rec["chain"] = rec["chain"][:-1]
    return _answer(cut) if records else "-"


def digest(text: str, budget: Budget) -> tuple[str, str, str | None]:
    """The report and contract hashes, and the verifier line for a report
    with a witness or a certificate."""
    system = parse_system(text)
    report = build_report(system, decide(system, budget), budget, 0.0)
    verify = None
    if report["witness"] is not None or report["certificate"] is not None:
        verify = f"{_answer(report)} | {_answer(_tamper(report))} | {_cut_answer(report)}"
    del report["timing"]
    contract = {key: report[key] for key in ("verdict", "witness", "certificate")}
    return _sha(report), _sha(contract), verify


def inputs(seeds):
    with open(CORPUS / "manifest.json") as fh:
        for e in json.load(fh)["instances"]:
            yield e["name"], (CORPUS / e["file"]).read_text(), Budget()
    for seed in seeds:
        for workload, generate in workloads.GENERATORS.items():
            budget = Budget(**workloads.BUDGETS[workload])
            for i, item in enumerate(generate(seed)):
                yield f"{workload}:{seed}:{i}", item.text, budget


def random_inputs(first, last):
    budget = Budget(**RANDOM_BUDGET)
    for seed in range(first, last + 1):
        rng = random.Random(seed)
        i = 0
        for head in RANDOM_FAMILIES:
            spec = parse_system(head).spec
            drawn = 0
            while drawn < RANDOM_PER_FAMILY:
                system = _rand_group_system(rng, head, spec)
                if system.variables:
                    yield f"random:{seed}:{i}", render_system(system), budget
                    drawn += 1
                    i += 1


def _seed_range(text):
    first, _, last = text.partition("-")
    return int(first), int(last or first)


def main(argv) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, help="benchmark workload seeds")
    parser.add_argument("--random", type=_seed_range, metavar="FIRST-LAST",
                        help="append the random sample of these seeds")
    args = parser.parse_args(argv)
    items = inputs(args.seeds)
    if args.random is not None:
        items = itertools.chain(items, random_inputs(*args.random))
    for name, text, budget in items:
        report, contract, verify = digest(text, budget)
        print(name, report, contract, flush=True)
        if verify is not None:
            print(name, "verify", verify, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
