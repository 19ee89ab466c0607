"""groupeq benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload commute --seed 1 --seconds 35 --trace 0

Run from the repository root (the solver is imported from ``src/``).  The
seed generates the systems (``workloads.py``); a fresh interpreter
(``worker.py``) serves them one at a time for ``--seconds``; every output is
then checked here, outside the timed region, against the reference verdict
of its input, by re-multiplying witnesses parsed from the report text and by
replaying certificates.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Exits 1 if any output fails its check, 2 if the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 11
AUDIT_SAT_STRIDE = 3  # audit keeps every unsat-reference report, one sat in three
WORKER_GRACE_S = 120  # a worker still running this long after --seconds is killed

# How one input's latencies over the run's passes become its one sample.  An
# audit replay takes a fraction of a millisecond and runs hundreds of times,
# so its minimum is steady: on a shared host the slower repeats measure bursts
# of other load, not the program (the rule of timeit).  A solve takes 2 to
# 600 ms and runs about six times, too few for a steady minimum, so solves
# take the median.
PER_INPUT = {"commute": statistics.median, "powers": statistics.median, "audit": min}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "decided_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from layertrace import METRICS as PER_LAYER  # noqa: E402


class BenchError(Exception):
    """The run cannot be made (missing program, crashed worker, ...)."""


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to import groupeq.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        try:
            r = subprocess.run([sys.executable, "-c", "import groupeq.cli"], env=env,
                               cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("import groupeq.cli took over 60 s") from None
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise BenchError(f"import groupeq.cli failed: {r.stderr.strip()}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Checks (outside the timed region)


def check_report(item, text) -> tuple[bool, bool, str]:
    """(passed, contradicts the reference, reason) for one solver report."""
    from groupeq.decide import verify_certificate
    from groupeq.frontend import parse_system, system_hash
    from groupeq.groups import parse_element, verify_witness

    system = parse_system(item.text)
    try:
        report = json.loads(text)
        verdict = report["verdict"]
        if report["system_hash"] != system_hash(system):
            return False, False, "report hash does not match the input system"
        if verdict == "sat":
            if item.expected == "unsat":
                return False, True, "sat, reference says unsat"
            witness = report["witness"]
            if set(witness) != set(system.variables):
                return False, False, "witness does not assign every unknown"
            assignment = {v: parse_element(system.spec, t) for v, t in witness.items()}
            if not verify_witness(system, assignment):
                return False, False, "witness does not satisfy the system"
        elif verdict == "unsat":
            if item.expected == "sat":
                return False, True, "unsat, reference says sat"
            if not verify_certificate(report["certificate"], system):
                return False, False, "certificate does not replay"
        elif verdict != "unknown":
            return False, False, f"unknown verdict {verdict!r}"
    except (KeyError, TypeError, ValueError) as e:
        return False, False, f"unreadable report: {type(e).__name__}: {e}"
    return True, False, verdict


def _check_key(text: str) -> str:
    # reports of one input differ only in their timing field
    try:
        report = json.loads(text)
    except ValueError:
        return text
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# Workload inputs


def _tamper(report: dict) -> dict:
    """Right-multiply the first equation's right side by a generator.

    The witness satisfied lhs = rhs, so it cannot satisfy lhs = rhs g.
    """
    from groupeq.frontend import parse_system, render_system, system_hash

    lines = report["system"].splitlines()
    lines[1] += " a" if lines[0].startswith("group BS") else " t"
    system = parse_system("\n".join(lines) + "\n")
    bad = dict(report)
    bad["system"] = render_system(system)
    bad["system_hash"] = system_hash(system)
    return bad


def audit_inputs(seed: int):
    """Reports made by solving the seed's commute and powers systems, checked
    here: every system whose reference is unsat, one sat system in
    AUDIT_SAT_STRIDE, and a tampered copy of every other sat report.
    Returns (report texts, expected --verify-only output of each)."""
    from groupeq.decide import Budget, build_report, decide
    from groupeq.frontend import parse_system

    texts, expected = [], []
    sat_seen = 0
    for workload, generate in workloads.GENERATORS.items():
        budget = Budget(**workloads.BUDGETS[workload])
        for i, item in enumerate(generate(seed)):
            if item.expected == "sat" and i % AUDIT_SAT_STRIDE:
                continue
            system = parse_system(item.text)
            t0 = time.monotonic()
            verdict = decide(system, budget)
            report = build_report(system, verdict, budget, time.monotonic() - t0)
            text = json.dumps(report, indent=2)
            passed, _, why = check_report(item, text)
            if not passed:
                raise BenchError(f"audit set-up: {why}: {item.text!r}")
            if verdict.status == "sat":
                texts.append(text)
                expected.append("witness: ok")
                sat_seen += 1
                if sat_seen % 2 == 0:
                    texts.append(json.dumps(_tamper(report), indent=2))
                    expected.append("witness: FAILED")
            elif verdict.status == "unsat":
                texts.append(text)
                expected.append("certificate: ok")
    return texts, expected


# ---------------------------------------------------------------------------
# Worker


def run_worker(mode, budget, inputs, seconds, trace, spans_path=None) -> dict:
    request = {
        "src": str(SRC),
        "mode": mode,
        "budget": budget,
        "inputs": inputs,
        "seconds": seconds,
        "trace": trace,
        "spans_path": spans_path,
    }
    try:
        r = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                           input=json.dumps(request), capture_output=True, text=True,
                           timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if r.returncode != 0:
        raise BenchError(f"worker failed: {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout)


def check_ops(outputs, items=None, expected=None):
    """Check every distinct output ``[input, output, error, count]``: solver
    reports against the reference verdicts of ``items``, audit outputs
    against ``expected``.  Returns (failed operations, operations that
    contradict a reference, {input: its first verdict or failure reason})."""
    failed = contradictions = 0
    verdicts: dict = {}
    cache: dict = {}
    for idx, out, err, count in outputs:
        if err is not None:
            passed, contra, why = False, False, err
        elif items is None:
            passed, contra, why = out == expected[idx], False, out
        else:
            key = (idx, _check_key(out))
            if key not in cache:
                cache[key] = check_report(items[idx], out)
            passed, contra, why = cache[key]
        verdicts.setdefault(idx, why)
        if not passed:
            failed += count
            contradictions += count * contra
            print(f"FAILED input {idx} ({count} operations): {why}", file=sys.stderr)
    return failed, contradictions, verdicts


def nearest_rank(sorted_vals, q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("commute", "powers", "audit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "groupeq" / "__init__.py").is_file():
        print(f"benchmark: no groupeq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        setup_s = None if args.trace else measure_setup_s()
        if args.workload == "audit":
            inputs, expected = audit_inputs(args.seed)
            items, budget, mode = None, None, "audit"
        else:
            items = workloads.GENERATORS[args.workload](args.seed)
            budget = workloads.BUDGETS[args.workload]
            inputs, expected, mode = [it.text for it in items], None, "solve"
        spans_path = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        result = run_worker(mode, budget, inputs, args.seconds, args.trace, spans_path)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2

    n_ops = result["ops"]
    failed, contradictions, verdicts = check_ops(result["outputs"], items, expected)
    n_inputs = len(inputs)
    if mode == "audit":
        decided = n_inputs  # every audited report carries a witness or certificate
    else:
        decided = sum(v in ("sat", "unsat") for v in verdicts.values())
    print(f"workload {args.workload}  seed {args.seed}  inputs {n_inputs}  "
          f"operations {n_ops}  wall {result['wall_s']:.2f}s  trace {args.trace}")
    print(f"error_share {failed / n_ops}  ({failed} of {n_ops} operations failed, "
          f"{contradictions} contradict the reference)")

    if args.trace:
        layers = result["layers"]
        metrics = {k: _metric(layers[k], unit) for k, unit in PER_LAYER.items()}
        print(f"traced passes {result['passes']}  counts repeat across passes: "
              f"{result['counts_repeat']}  spans: {spans_path}")
        for k, m in metrics.items():
            print(f"  {k:42s} {m['value']:.6g} {m['unit']}")
    else:
        # one sample per input (PER_INPUT), which keeps bursts of load on the
        # host out of the percentiles; one closed-loop client completes
        # 1 / mean of them per s
        per_input = PER_INPUT[args.workload]
        lat = sorted(per_input(v) for v in result["latencies"])
        p90 = nearest_rank(lat, 0.9)
        values = {
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "throughput_per_s": n_inputs / sum(lat),
            "decided_share": decided / n_inputs,
            "setup_s": setup_s,
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
        metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}
        beyond = sum(v > p90 for v in lat)
        print(f"latency samples {len(lat)} (per-input {per_input.__name__} over "
              f"{n_ops / n_inputs:.1f} passes), {beyond} beyond p90; "
              f"{n_ops / result['wall_s']:.6g} operations per wall second")
        for k, m in metrics.items():
            print(f"  {k:18s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": failed == 0, "attempted": n_ops, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
