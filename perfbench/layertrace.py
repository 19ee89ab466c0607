"""Per-layer tracing from outside the program.

Each traced public function of ``groupeq`` is replaced by a wrapper in every
module that binds it (``groupeq.decide`` does ``from .groups import
verify_witness``, so that name is wrapped in ``sys.modules["groupeq.decide"]``
as well as in ``groupeq.groups``).  A wrapper appends one span
``(name, start, end, parent span, operation)`` to an in-memory list; counting
wrappers only bump a counter.  ``Tracer.uninstall`` puts every original
object back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# span name -> (defining module, public functions)
TIMED = {
    "frontend.parse": ("groupeq.frontend", ("parse_system",)),
    "reduce.reduce": ("groupeq.reduce", ("reduce_bs", "reduce_wreath")),
    "reduce.triangularize": ("groupeq.reduce", ("triangularize",)),
    "expsolve.semenov": ("groupeq.expsolve", ("semenov_solve",)),
    "expsolve.grouping": ("groupeq.expsolve", ("grouping_solve",)),
    "expsolve.solve_forms": ("groupeq.expsolve", ("solve_forms",)),
    "intlinalg.solve_linear": ("groupeq.intlinalg", ("solve_linear",)),
    "groups.verify_witness": ("groupeq.groups", ("verify_witness",)),
    "rings.t_period": ("groupeq.rings", ("t_period",)),
    "rings.mult_order": ("groupeq.rings", ("mult_order",)),
    "decide.decide": ("groupeq.decide", ("decide",)),
    "decide.verify_certificate": ("groupeq.decide", ("verify_certificate",)),
    "decide.build_report": ("groupeq.decide", ("build_report",)),
}
COUNTED = {
    "rings.poly_mul": ("groupeq.rings", "poly_mul"),
    "rings.poly_reduce": ("groupeq.rings", "poly_reduce"),
}
CERT_KINDS = (
    "linear_infeasible",
    "modulus_obstruction",
    "component_obstruction",
    "branch_refutation",
    "empty_disjunction",
)
STAT_KEYS = (
    "rounds",
    "p1_steps",
    "p2_levels",
    "candidates_checked",
    "branches",
    "final_branches",
    "refuted_at_build",
)

# every per-layer metric a traced run reports, with its unit
METRICS: dict[str, str] = {}
for _name in TIMED:
    METRICS[_name + "_s"] = "s"
    METRICS[_name + "_calls"] = "count"
for _name in COUNTED:
    METRICS[_name + "_calls"] = "count"
METRICS.update({
    "reduce.tri_branches": "count",
    "expsolve.empty_share": "ratio",
    "groups.witness_hit_share": "ratio",
    "decide.self_s": "s",
    "decide.cert_chain_len": "count",
    "decide.sat": "count",
    "decide.unsat": "count",
    "decide.unknown": "count",
})
for _key in STAT_KEYS:
    METRICS["decide." + _key] = "count"
for _kind in CERT_KINDS:
    METRICS["decide.cert_kind." + _kind] = "count"
METRICS.update({
    "trace.pass_ops": "count",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
})


def _groupeq_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "groupeq" or n.startswith("groupeq."))]


def _chain_len(cert) -> int:
    """Moduli recorded across every chain of a (possibly nested) certificate."""
    if isinstance(cert, dict):
        own = len(cert["chain"]) if isinstance(cert.get("chain"), list) else 0
        return own + sum(_chain_len(v) for k, v in cert.items() if k != "chain")
    if isinstance(cert, list):
        return sum(_chain_len(v) for v in cert)
    return 0


class Tracer:
    """Spans and counts of one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.op = 0
        self._patched: list = []
        self.reset()

    # -- installation --

    def install(self) -> None:
        hooks = {
            "reduce.triangularize": self._on_tri,
            "expsolve.semenov": self._on_exp,
            "expsolve.grouping": self._on_exp,
            "groups.verify_witness": self._on_witness,
            "decide.decide": self._on_decide,
            "decide.verify_certificate": self._on_verify_cert,
        }
        wrappers = {}
        for span, (modname, funcs) in TIMED.items():
            for fname in funcs:
                fn = getattr(sys.modules[modname], fname)
                wrappers[id(fn)] = (fn, self._timed(span, fn, hooks.get(span)))
        for span, (modname, fname) in COUNTED.items():
            fn = getattr(sys.modules[modname], fname)
            wrappers[id(fn)] = (fn, self._counted(span + "_calls", fn))
        for mod in _groupeq_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)

    def reset(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    # -- wrappers --

    def _timed(self, name, fn, hook):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks --

    def _on_tri(self, args, result):
        self.counts["reduce.tri_branches"] += len(result)

    def _on_exp(self, args, result):
        self.counts["expsolve.empty"] += not result

    def _on_witness(self, args, result):
        self.counts["groups.witness_hits"] += bool(result)

    def _count_cert(self, cert):
        if isinstance(cert, dict):
            kind = cert.get("kind")
            if kind in CERT_KINDS:
                self.counts["decide.cert_kind." + kind] += 1
            self.counts["decide.cert_chain_len"] += _chain_len(cert)

    def _on_decide(self, args, verdict):
        self.counts["decide." + verdict.status] += 1
        for key in STAT_KEYS:
            self.counts["decide." + key] += int(verdict.stats.get(key, 0))
        self._count_cert(verdict.certificate)

    def _on_verify_cert(self, args, result):
        self._count_cert(args[0] if args else None)

    # -- aggregation --

    def summary(self) -> dict:
        """Per-layer totals for the spans and counts recorded since reset()."""
        out = {k: 0 for k in METRICS if not k.startswith("trace.")}
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            out[name + "_s"] += t1 - t0
            out[name + "_calls"] += 1
            if parent >= 0:
                child_time[parent] += t1 - t0
        out["decide.self_s"] = sum(
            (t1 - t0) - child_time[i]
            for i, (name, t0, t1, _, _) in enumerate(self.spans)
            if name == "decide.decide"
        )
        for key, val in self.counts.items():
            if key in out:
                out[key] += val
        exp_calls = out["expsolve.semenov_calls"] + out["expsolve.grouping_calls"]
        out["expsolve.empty_share"] = self.counts["expsolve.empty"] / exp_calls if exp_calls else 0.0
        checks = out["groups.verify_witness_calls"]
        out["groups.witness_hit_share"] = self.counts["groups.witness_hits"] / checks if checks else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent, operation."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, round(t0, 7), round(t1, 7), parent, op]) + "\n")
