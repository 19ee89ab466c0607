"""Command-line entry point.

Reads a group header plus equations, runs the decision procedure under a
configurable budget, and prints either a human summary or a single JSON
report that embeds the witness or certificate.  Exit status encodes the
verdict: 0 sat, 1 unsat, 2 unknown, 64 usage error, 65 unreadable input,
70 internal error (an uncaught exception, reported as one line on stderr
rather than mistaken for a verdict).
"""

from __future__ import annotations

import json
import math
import sys
import time

from .decide import Budget, _base, _build, _render_rows, build_report, decide, verify_certificate
from .frontend import ParseError, parse_system, system_hash
from .groups import parse_element, verify_witness
from .reduce import BranchOverflow, reduce_system, triangularize

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

_STATUS_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "unknown": EXIT_UNKNOWN}


def _make_parser():
    # imported here, for ``main`` only: library users and the benchmark
    # worker never load argparse and gettext
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on bad usage, which collides with "unknown"
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    p = _Parser(
        prog="groupeq",
        description="Decide systems of word equations over BS(1,k) and "
        "wreath products A wr Z.",
    )
    p.add_argument(
        "input",
        nargs="?",
        help="file with a group line followed by equations ('-' for stdin)",
    )
    p.add_argument("--budget-steps", type=int, default=None, metavar="N")
    p.add_argument("--max-prime-power", type=int, default=None, metavar="Q")
    p.add_argument("--max-monic-degree", type=int, default=None, metavar="D")
    p.add_argument("--time-limit", type=float, default=None, metavar="S")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument(
        "--debug-stage",
        action="append",
        choices=("reduce", "tri", "exp", "decide"),
        default=[],
        help="print pipeline internals for a stage (repeatable)",
    )
    p.add_argument(
        "--verify-only",
        metavar="REPORT",
        help="re-check the witness or certificate in a prior JSON report "
        "instead of solving",
    )
    return p


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _budget(args) -> Budget:
    """The default Budget with the flags given; a value out of its flag's
    range exits 64 with one line on stderr naming the flag and the range."""
    fields = {}
    for flag, name, allowed, words in (
        ("--budget-steps", "steps", lambda v: v >= 1, "an integer of at least 1"),
        ("--max-prime-power", "max_prime_power", lambda v: v >= 2,
         "an integer of at least 2"),
        ("--max-monic-degree", "max_monic_degree", lambda v: v >= 1,
         "an integer of at least 1"),
        ("--time-limit", "time_limit", lambda v: 0 < v < math.inf,
         "a positive finite number of seconds"),
    ):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if not allowed(value):
            print(f"groupeq: {flag} must be {words}, got {value}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        fields[name] = value
    return Budget(**fields)


def _debug_reduce(system, out):
    base = _base(system.spec.kind)
    red = reduce_system(system)
    print("# stage reduce (rows per coefficient component)", file=out)
    for comp in red.components:
        ring = "Z" if comp.mod is None else f"Z_{comp.mod}"
        print(f"  component {comp.component} over {ring}[{base}, 1/{base}]:", file=out)
        for row in comp.rows:
            print(f"    {row.render(base)}", file=out)
    for f in red.linear:
        print(f"  linear: {f.render()} = 0", file=out)


def _debug_tri(system, out):
    base = _base(system.spec.kind)
    print("# stage tri (case-split triangular branches per component)", file=out)
    for comp in reduce_system(system).components:
        print(f"component {comp.component}:", file=out)
        try:
            branches = triangularize(comp.rows, comp.mod)
        except BranchOverflow:
            print("  (branch cap hit)", file=out)
            continue
        for br in branches:
            print(br.render(base), file=out)


def _debug_exp(system, out):
    print("# stage exp (branch construction)", file=out)
    if system.spec.kind == "bs" and system.spec.k == 1:
        print("  BS(1,1) is free abelian: no case split, one linear solve decides it",
              file=out)
        return
    build = _build(system)
    if build.linear_cert is not None:
        print("  shared linear stage infeasible", file=out)
        return
    for fb in build.finals:
        print(f"  open branch {fb.path}: params {fb.params}", file=out)
        for line in _render_rows(fb.parts, build.kind):
            print(f"    {line}", file=out)
    for rb in build.refuted:
        # a dead residual system is certified only for an unsat verdict
        what = "dead residuals" if rb.cert is None else rb.cert["kind"]
        print(f"  refuted branch {rb.path}: {what}", file=out)
    if build.overflow:
        print("  (branch cap hit: coverage incomplete)", file=out)


def _print_human(report: dict, out) -> None:
    print(report["group"].strip(), file=out)
    print(f"verdict: {report['verdict']}", file=out)
    if report["witness"] is not None:
        for name, text in report["witness"].items():
            print(f"  {name} = {text}", file=out)
    if report["certificate"] is not None:
        print(f"  certificate: {report['certificate']['kind']}", file=out)
        print(json.dumps(report["certificate"], indent=2), file=out)
    stats = report["stats"]
    print(
        f"branches: {stats.get('branches', 0)}"
        f"  rounds: {stats.get('rounds', 0)}"
        f"  candidates: {stats.get('candidates_checked', 0)}",
        file=out,
    )
    print(f"time: {report['timing']['seconds']}s", file=out)


def verify_lines(report: dict, system) -> tuple[bool, list[str]]:
    """The checks of ``--verify-only`` on a loaded report and its parsed system.

    Returns whether every check passed, and the lines ``--verify-only``
    prints: a system-hash mismatch, then the witness and certificate
    answers, or a note that the report carries neither.
    """
    ok = True
    lines = []
    if report.get("system_hash") != system_hash(system):
        lines.append("system hash: MISMATCH")
        ok = False
    witness = report.get("witness")
    if witness is not None:
        # a witness maps unknowns to element texts; any other shape fails
        good = isinstance(witness, dict) and all(isinstance(t, str) for t in witness.values())
        if good:
            try:
                assignment = {
                    v: parse_element(system.spec, text) for v, text in witness.items()
                }
                good = verify_witness(system, assignment)
            except (ValueError, KeyError):
                good = False
        lines.append(f"witness: {'ok' if good else 'FAILED'}")
        ok = ok and good
    cert = report.get("certificate")
    if cert is not None:
        good = verify_certificate(cert, system)
        lines.append(f"certificate: {'ok' if good else 'FAILED'}")
        ok = ok and good
    if witness is None and cert is None:
        lines.append("nothing to verify (no witness or certificate in report)")
    return ok, lines


def _run_verify_only(path: str) -> int:
    try:
        report = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as e:
        print(f"groupeq: cannot load report: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        text = report["system"]
        if not isinstance(text, str):
            raise TypeError(f"system is {type(text).__name__}, not text")
        system = parse_system(text)
    except (KeyError, TypeError, ParseError) as e:
        print(f"groupeq: report has no readable system: {e}", file=sys.stderr)
        return EXIT_DATA
    ok, lines = verify_lines(report, system)
    for line in lines:
        print(line)
    return EXIT_SAT if ok else EXIT_UNSAT


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as e:
        detail = " ".join(str(e).split())
        print(f"groupeq: internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_SOFTWARE


def _run(args) -> int:
    if (args.input is None) == (args.verify_only is None):
        print(
            "groupeq: need exactly one input (a system file or --verify-only)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.verify_only is not None:
        return _run_verify_only(args.verify_only)

    budget = _budget(args)
    try:
        text = _read_text(args.input)
    except OSError as e:
        print(f"groupeq: cannot read input: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        system = parse_system(text)
    except ParseError as e:
        print(
            f"groupeq: parse error at line {e.line}, column {e.col}: {e.message}",
            file=sys.stderr,
        )
        return EXIT_DATA

    for stage in args.debug_stage:
        if stage == "reduce":
            _debug_reduce(system, sys.stderr)
        elif stage == "tri":
            _debug_tri(system, sys.stderr)
        elif stage == "exp":
            _debug_exp(system, sys.stderr)

    t0 = time.monotonic()
    verdict = decide(system, budget)
    seconds = time.monotonic() - t0
    report = build_report(system, verdict, budget, seconds)

    if "decide" in args.debug_stage:
        print("# stage decide (scheduler stats)", file=sys.stderr)
        print(json.dumps(verdict.stats, indent=2, default=str), file=sys.stderr)

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_human(report, sys.stdout)
    return _STATUS_EXIT[verdict.status]


if __name__ == "__main__":
    sys.exit(main())
