"""Write expected.json: each corpus instance's verdict, witness and certificate.

The fields are those of the ``--format json`` report under the default
Budget, without stats and timing, with their keys in report order.
``tests/test_corpus.py`` compares every decision with them, so a change
that alters a verdict, a witness or a certificate byte shows up as a test
failure.  Regenerate only when such a change is intended:

    PYTHONPATH=src python tests/corpus/make_expected.py
"""

import json
import pathlib

from groupeq.decide import Budget, build_report, decide
from groupeq.frontend import parse_system

CORPUS = pathlib.Path(__file__).parent
FIELDS = ("verdict", "witness", "certificate")


def expected_fields(text: str) -> dict:
    system = parse_system(text)
    budget = Budget()
    report = build_report(system, decide(system, budget), budget, 0.0)
    return {key: report[key] for key in FIELDS}


def main() -> None:
    with open(CORPUS / "manifest.json") as fh:
        instances = json.load(fh)["instances"]
    out = {
        e["name"]: expected_fields((CORPUS / e["file"]).read_text()) for e in instances
    }
    with open(CORPUS / "expected.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
