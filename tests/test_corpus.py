import json
import pathlib

import pytest

from groupeq.decide import Budget, build_report, decide, verify_certificate
from groupeq.frontend import parse_system
from groupeq.groups import verify_witness

CORPUS = pathlib.Path(__file__).parent / "corpus"


def load_manifest():
    with open(CORPUS / "manifest.json") as fh:
        return json.load(fh)["instances"]


INSTANCES = load_manifest()

# verdict, witness and certificate of each instance (tests/corpus/make_expected.py)
with open(CORPUS / "expected.json") as fh:
    EXPECTED = json.load(fh)


def test_manifest_hygiene():
    assert len(INSTANCES) >= 30
    names = [e["name"] for e in INSTANCES]
    assert len(names) == len(set(names))
    assert set(EXPECTED) == set(names)
    for e in INSTANCES:
        assert (CORPUS / e["file"]).is_file(), e["file"]
        assert e["expected"] in ("sat", "unsat")
        assert 1 <= e["oracle_radius"] <= 4
    # the fixed reference problems are all present
    assert {"bs2_conj_pow4", "bs2_conj_pow3", "bs2_square_root", "bs2_square_ab",
            "lamp2_square_root", "lamp2_commute", "zwr_square_root"} <= set(names)


@pytest.mark.parametrize("entry", INSTANCES, ids=lambda e: e["name"])
def test_instance_decides_as_expected(entry):
    system = parse_system((CORPUS / entry["file"]).read_text())
    v = decide(system)
    assert v.status == entry["expected"]
    if v.status == "sat":
        assert verify_witness(system, v.witness)
    else:
        assert verify_certificate(v.certificate, system)
    # compared as text, so that key order counts as it does in a report
    report = build_report(system, v, Budget(), 0.0)
    want = EXPECTED[entry["name"]]
    assert json.dumps({key: report[key] for key in want}) == json.dumps(want)
