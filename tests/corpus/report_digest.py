"""Print a digest of every report the solver writes for a fixed set of inputs.

One line per input, ``name report contract``.  ``report`` is the sha256 of
the ``--format json`` report without its ``timing`` field (stats and key
order included); ``contract`` is the sha256 of its verdict, witness and
certificate only.  The inputs are the corpus instances under the default
Budget, then the ``commute`` and ``powers`` systems of every seed given as
an argument, under that workload's Budget (``perfbench/workloads.py``,
imported and never modified).  Two solvers that differ only in speed print
the same lines, so comparing a change with its parent is a diff; a change
that moves only search counters differs in the ``report`` column alone:

    PYTHONPATH=src python tests/corpus/report_digest.py 1 2 3 > change.txt
    PYTHONPATH=../parent/src python tests/corpus/report_digest.py 1 2 3 > parent.txt
    diff parent.txt change.txt
    diff <(cut -d' ' -f1,3 parent.txt) <(cut -d' ' -f1,3 change.txt)

The ``groupeq`` package is whichever one ``PYTHONPATH`` names.
"""

import hashlib
import json
import pathlib
import sys

from groupeq.decide import Budget, build_report, decide
from groupeq.frontend import parse_system

CORPUS = pathlib.Path(__file__).parent
sys.path.insert(0, str(CORPUS.parent.parent / "perfbench"))
import workloads  # noqa: E402


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def digest(text: str, budget: Budget) -> tuple[str, str]:
    system = parse_system(text)
    report = build_report(system, decide(system, budget), budget, 0.0)
    del report["timing"]
    contract = {key: report[key] for key in ("verdict", "witness", "certificate")}
    return _sha(report), _sha(contract)


def inputs(seeds):
    with open(CORPUS / "manifest.json") as fh:
        for e in json.load(fh)["instances"]:
            yield e["name"], (CORPUS / e["file"]).read_text(), Budget()
    for seed in seeds:
        for workload, generate in workloads.GENERATORS.items():
            budget = Budget(**workloads.BUDGETS[workload])
            for i, item in enumerate(generate(seed)):
                yield f"{workload}:{seed}:{i}", item.text, budget


def main(argv) -> None:
    for name, text, budget in inputs([int(a) for a in argv]):
        print(name, *digest(text, budget), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
