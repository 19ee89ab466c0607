"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from groupeq.decide import Budget, build_report, decide  # noqa: E402
from groupeq.frontend import parse_system  # noqa: E402
from groupeq.oracle import SearchBall, brute_force_group  # noqa: E402


def _oracle_sample():
    """Inputs small enough for a radius-1 ball search."""
    out = []
    for item in workloads.commute_items(7, 30) + workloads.powers_items(7, 40):
        system = parse_system(item.text)
        head = item.text.splitlines()[0]
        one_var_wreath = head.startswith("group wreath") and len(system.variables) == 1
        small = head.startswith("group BS") or head in ("group wreath Z^0 x Z_2",
                                                        "group wreath Z^0 x Z_3",
                                                        "group wreath Z^1")
        if one_var_wreath or (small and len(system.variables) <= 2):
            out.append((item, system))
    return out


def test_references_agree_with_oracle():
    sample = _oracle_sample()
    assert len(sample) >= 30
    for item, system in sample:
        hits = brute_force_group(system, system.spec, SearchBall(1))
        if hits:
            assert item.expected == "sat", item
        # planted witnesses (identity, unit-lamp roots) lie inside the ball
        if item.source.startswith("planted"):
            assert hits, item
    assert any(item.expected == "unsat" for item, _ in sample)


def test_closed_forms_on_known_cases():
    z = workloads.FAMILIES[2]  # Z wr Z
    assert workloads.wreath_root_exists(z, 2, {0: (4,)}, 0)
    assert not workloads.wreath_root_exists(z, 2, {0: (3,)}, 0)
    assert not workloads.wreath_root_exists(z, 2, {0: (1,)}, 3)
    # X = a t gives X^2 = a (t a t^-1) t^2: lamps at 0 and 1, shift 2
    assert workloads.wreath_root_exists(z, 2, {0: (1,), 1: (1,)}, 2)
    assert not workloads.wreath_root_exists(z, 2, {0: (1,)}, 2)
    assert workloads.bs_roots_exist(2, 2, 5)      # 2 is a unit in Z[1/2]
    assert workloads.bs_roots_exist(2, 3, 7)      # (2^3 - 1) / (2 - 1) = 7
    assert not workloads.bs_roots_exist(2, 3, 5)
    assert not workloads.bs_roots_exist(3, 2, 3)  # needs 2 | m, and 4 | m for r = 1


def test_generators_are_seeded():
    for gen in workloads.GENERATORS.values():
        assert gen(3) == gen(3)
        assert gen(3) != gen(4)


def _snapshot():
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "groupeq" or name.startswith("groupeq."))
        for attr, val in vars(mod).items()
        if callable(val)
    }


def test_tracer_wraps_bindings_and_restores_them():
    import groupeq.cli  # noqa: F401

    decide_mod = sys.modules["groupeq.decide"]
    before = _snapshot()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert decide_mod.verify_witness is not before[("groupeq.decide", "verify_witness")]
        assert sys.modules["groupeq"].decide is not before[("groupeq", "decide")]
        system = parse_system(workloads.powers_items(2, 1)[0].text)
        decide_mod.decide(system, decide_mod.Budget(**workloads.BUDGETS["powers"]))
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    layers = tracer.summary()
    assert layers["decide.decide_calls"] == 1
    assert layers["groups.verify_witness_calls"] >= 1
    assert 0 <= layers["decide.self_s"] <= layers["decide.decide_s"]


def _solve_run(items, workload, trace):
    inputs = [it.text for it in items]
    result = run.run_worker("solve", workloads.BUDGETS[workload], inputs, 0, trace)
    failed, contradictions, _ = run.check_ops(result["outputs"], items)
    assert failed == 0 and contradictions == 0
    return result


def test_counters_and_certificates_repeat_for_one_seed():
    items = workloads.commute_items(9, 10) + workloads.powers_items(9, 20)[10:]
    runs = [_solve_run(items, "powers", 1) for _ in range(2)]
    counts = [{k: v for k, v in r["layers"].items()
               if not k.endswith("_s") and not k.startswith("trace.")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["decide.unsat"] > 0
    reports = [[run._check_key(out[1]) for out in r["outputs"]] for r in runs]
    assert reports[0] == reports[1]


def test_tiny_smoke_run():
    items = workloads.commute_items(1, 10)
    result = _solve_run(items, "commute", 0)
    assert result["ops"] == 10
    assert result["maxrss_kb"] > 0


def test_tampered_audit_reports_fail():
    items = workloads.commute_items(4, 3)
    texts, expected = [], []
    for item in items:
        system = parse_system(item.text)
        budget = Budget(**workloads.BUDGETS["commute"])
        verdict = decide(system, budget)
        if verdict.status == "sat":
            report = build_report(system, verdict, budget, 0.0)
            texts += [json.dumps(report), json.dumps(run._tamper(report))]
            expected += ["witness: ok", "witness: FAILED"]
    assert texts
    result = run.run_worker("audit", None, texts, 0, 0)
    assert run.check_ops(result["outputs"], None, expected)[0] == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.METRICS
    assert [w["name"] for w in spec["workloads"]] == ["commute", "powers", "audit"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_program_sources(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "commute",
                        "--seed", "1", "--seconds", "1", "--trace", trace],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
