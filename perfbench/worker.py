"""Closed-loop client that runs one workload inside a fresh interpreter.

Reads one JSON request on stdin, sends the next input only when the previous
output has returned, and writes one JSON result on stdout.  Untraced runs
cycle over the inputs until the time is up, always finishing the first
pass.  Traced runs alternate untraced and traced passes; the difference
between them is the tracing overhead.

Request: {"src", "mode": "solve" | "audit", "budget", "inputs", "seconds",
"trace", "spans_path"}.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from array import array


def _solve_op(budget):
    decide_mod = sys.modules["groupeq.decide"]
    frontend = sys.modules["groupeq.frontend"]

    def op(text: str) -> str:
        # as `groupeq --format json`: parse, decide, build the report, dump it
        system = frontend.parse_system(text)
        t0 = time.monotonic()
        verdict = decide_mod.decide(system, budget)
        seconds = time.monotonic() - t0
        report = decide_mod.build_report(system, verdict, budget, seconds)
        return json.dumps(report, indent=2)

    return op


def _audit_op():
    decide_mod = sys.modules["groupeq.decide"]
    frontend = sys.modules["groupeq.frontend"]
    groups = sys.modules["groupeq.groups"]

    def op(text: str) -> str:
        # the checks and output lines of `groupeq --verify-only`
        # (groupeq.cli._run_verify_only), on report text instead of a file
        report = json.loads(text)
        system = frontend.parse_system(report["system"])
        lines = []
        if report.get("system_hash") != frontend.system_hash(system):
            lines.append("system hash: MISMATCH")
        witness = report.get("witness")
        if witness is not None:
            try:
                assignment = {
                    v: groups.parse_element(system.spec, t) for v, t in witness.items()
                }
                good = groups.verify_witness(system, assignment)
            except (ValueError, KeyError):
                good = False
            lines.append(f"witness: {'ok' if good else 'FAILED'}")
        cert = report.get("certificate")
        if cert is not None:
            good = decide_mod.verify_certificate(cert, system)
            lines.append(f"certificate: {'ok' if good else 'FAILED'}")
        return "\n".join(lines)

    return op


class _Log:
    """Latencies per input, and each distinct output with its count.

    Outputs are kept once per distinct text, so the client's own memory does
    not grow with the number of operations a fast program completes.
    """

    def __init__(self, n_inputs: int):
        self.latencies = [array("d") for _ in range(n_inputs)]
        self.outputs: dict = {}
        self.ops = 0

    def call(self, op, i, text):
        t0 = time.perf_counter()
        try:
            out, err = op(text), None
        except Exception as e:  # a crash is a failed operation, not a crashed run
            out, err = None, f"{type(e).__name__}: {e}"
        self.latencies[i].append(time.perf_counter() - t0)
        key = (i, out, err)
        self.outputs[key] = self.outputs.get(key, 0) + 1
        self.ops += 1

    def result(self) -> dict:
        return {
            "ops": self.ops,
            "latencies": [list(a) for a in self.latencies],
            "outputs": [[i, out, err, n] for (i, out, err), n in self.outputs.items()],
        }


def _pass(op, inputs, log, tracer=None):
    start = time.perf_counter()
    for i, text in enumerate(inputs):
        if tracer is not None:
            tracer.op = log.ops
        log.call(op, i, text)
    return time.perf_counter() - start


def run_untraced(op, inputs, seconds):
    log = _Log(len(inputs))
    start = time.perf_counter()
    _pass(op, inputs, log)
    i = 0
    while time.perf_counter() - start < seconds:
        log.call(op, i, inputs[i])
        i = (i + 1) % len(inputs)
    return dict(log.result(), wall_s=time.perf_counter() - start)


def run_traced(op, inputs, seconds, spans_path):
    from layertrace import Tracer

    tracer = Tracer()
    log = _Log(len(inputs))
    plain, traced, layers = [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        plain.append(_pass(op, inputs, log))
        tracer.reset()
        tracer.install()
        try:
            traced.append(_pass(op, inputs, log, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.summary())
        if first_spans is None:
            first_spans = tracer.spans
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1] + traced[-1] > seconds:
            break
    tracer.spans = first_spans
    if spans_path:
        tracer.write_spans(spans_path)
    # counts repeat exactly from pass to pass; times are medians over passes
    metrics = dict(layers[0])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(layer[key] for layer in layers)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.pass_ops"] = len(inputs)
    metrics["trace.untraced_pass_s"] = plain_s
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    exact = [k for k in layers[0] if not k.endswith(("_s", "_share"))]
    counts_repeat = all(layer[k] == layers[0][k] for layer in layers for k in exact)
    return dict(log.result(), wall_s=time.perf_counter() - start, layers=metrics,
                passes=len(traced), counts_repeat=counts_repeat)


def main() -> int:
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])
    import groupeq.cli  # noqa: F401  (loads every module a CLI call loads)

    if req["mode"] == "solve":
        op = _solve_op(sys.modules["groupeq.decide"].Budget(**req["budget"]))
    else:
        op = _audit_op()
    if req["trace"]:
        result = run_traced(op, req["inputs"], req["seconds"], req.get("spans_path"))
    else:
        result = run_untraced(op, req["inputs"], req["seconds"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
