import json
import pathlib
import subprocess
import sys

CLI = [sys.executable, "-m", "groupeq.cli"]

SAT = "group BS 2\nX^2 = a^3\n"
UNSAT = "group BS 2\nX^-1 a X = a^3\n"


def run(args, stdin=None):
    return subprocess.run(
        CLI + args, input=stdin, capture_output=True, text=True, timeout=120
    )


def test_exit_code_sat(tmp_path):
    f = tmp_path / "sat.eq"
    f.write_text(SAT)
    r = run([str(f)])
    assert r.returncode == 0
    assert "sat" in r.stdout


def test_exit_code_unsat(tmp_path):
    f = tmp_path / "unsat.eq"
    f.write_text(UNSAT)
    r = run([str(f)])
    assert r.returncode == 1


def test_exit_code_unknown(tmp_path):
    f = tmp_path / "hard.eq"
    f.write_text("group wreath Z^1\nX^3 = a^2\n")
    r = run(["--budget-steps", "1", "--max-prime-power", "2",
             "--max-monic-degree", "1", str(f)])
    assert r.returncode == 2


def test_exit_code_parse_error(tmp_path):
    f = tmp_path / "bad.eq"
    f.write_text("group BS 2\nX = q\n")
    r = run([str(f)])
    assert r.returncode == 65
    assert "line 2" in r.stderr


def test_oversized_equation_is_a_parse_error(tmp_path):
    f = tmp_path / "huge.eq"
    f.write_text("group BS 2\nX^2 = a^1000000000001\n")
    r = run(["--format", "json", str(f)])
    assert r.returncode == 65
    assert "line 2" in r.stderr and "unit letters" in r.stderr
    assert r.stdout == ""


def test_exit_code_usage():
    assert run([]).returncode == 64
    assert run(["a.eq", "b.eq"]).returncode == 64
    assert run(["--no-such-flag", "-"], stdin=SAT).returncode == 64
    # a budget value out of range: one line naming the flag and its range
    for flag, value, allowed in [
        ("--budget-steps", "0", "at least 1"),
        ("--max-prime-power", "1", "at least 2"),
        ("--max-monic-degree", "0", "at least 1"),
        ("--time-limit", "0", "positive finite"),
        ("--time-limit", "-1", "positive finite"),
        ("--time-limit", "nan", "positive finite"),
        ("--time-limit", "inf", "positive finite"),
    ]:
        r = run(["--format", "json", flag, value, "-"], stdin=SAT)
        assert r.returncode == 64, (flag, value)
        assert r.stdout == ""
        (line,) = r.stderr.splitlines()
        assert flag in line and allowed in line, (flag, value, line)
    r = run(["--format", "json", "--time-limit", "30", "-"], stdin=SAT)
    assert r.returncode == 0
    assert json.loads(r.stdout)["budget"]["time_limit"] == 30.0


def test_stdin_input():
    r = run(["-"], stdin=SAT)
    assert r.returncode == 0


def test_json_report_schema():
    r = run(["--format", "json", "-"], stdin=SAT)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "sat"
    assert rep["group"] == "group BS 2"
    assert rep["witness"] == {"X": "3*2^-1 | 0"}
    assert set(rep) >= {"format", "tool", "system", "system_hash", "budget",
                        "stats", "timing"}


def test_verify_only_round_trip(tmp_path):
    rep = tmp_path / "report.json"
    r = run(["--format", "json", "-"], stdin=UNSAT)
    assert r.returncode == 1
    rep.write_text(r.stdout)
    v = run(["--verify-only", str(rep)])
    assert v.returncode == 0
    assert "certificate: ok" in v.stdout


def test_verify_only_rejects_tampering(tmp_path):
    r = run(["--format", "json", "-"], stdin=UNSAT)
    data = json.loads(r.stdout)
    data["certificate"]["chain"] = []
    rep = tmp_path / "tampered.json"
    rep.write_text(json.dumps(data))
    v = run(["--verify-only", str(rep)])
    assert v.returncode == 1
    assert "FAILED" in v.stdout


def test_verify_only_fails_a_witness_missing_an_unknown(tmp_path):
    r = run(["--format", "json", "-"], stdin="group wreath Z^1\nX a = a X\n")
    data = json.loads(r.stdout)
    assert data["verdict"] == "sat"
    data["witness"] = {}
    rep = tmp_path / "partial.json"
    rep.write_text(json.dumps(data))
    v = run(["--verify-only", str(rep)])
    assert v.returncode == 1
    assert v.stdout == "witness: FAILED\n"


def _sat_report_with_witness(tmp_path, witness):
    data = json.loads(run(["--format", "json", "-"], stdin=SAT).stdout)
    data["witness"] = witness
    rep = tmp_path / "forged.json"
    rep.write_text(json.dumps(data))
    return run(["--verify-only", str(rep)])


def test_verify_only_fails_a_witness_that_is_a_list(tmp_path):
    v = _sat_report_with_witness(tmp_path, ["X"])
    assert (v.returncode, v.stdout, v.stderr) == (1, "witness: FAILED\n", "")


def test_verify_only_fails_a_witness_whose_element_is_a_number(tmp_path):
    v = _sat_report_with_witness(tmp_path, {"X": 5})
    assert (v.returncode, v.stdout, v.stderr) == (1, "witness: FAILED\n", "")


def test_verify_only_fails_a_witness_that_rebinds_a_generator(tmp_path):
    # X^2 = a^3 holds with X = a = identity, but a is not the witness's to assign
    v = _sat_report_with_witness(tmp_path, {"X": "0 | 0", "a": "0 | 0"})
    assert (v.returncode, v.stdout) == (1, "witness: FAILED\n")
    assert _sat_report_with_witness(tmp_path, {"X": "3*2^-1 | 0"}).returncode == 0


def test_verify_only_fails_a_witness_with_a_huge_shift_at_once(tmp_path):
    # multiplying X = (1, 10^10) would build 2^(10^10); the shift check fails it first
    v = _sat_report_with_witness(tmp_path, {"X": "1 | 10000000000"})
    assert (v.returncode, v.stdout) == (1, "witness: FAILED\n")


def test_verify_lines_are_what_verify_only_prints(tmp_path):
    from groupeq.cli import verify_lines
    from groupeq.frontend import parse_system

    reports = [json.loads(run(["--format", "json", "-"], stdin=t).stdout) for t in (SAT, UNSAT)]
    moved = dict(reports[0], system=SAT.replace("a^3", "a^5"))  # hash mismatch, witness fails
    bare = dict(reports[1], certificate=None)  # nothing to verify
    for i, report in enumerate(reports + [moved, bare]):
        rep = tmp_path / f"r{i}.json"
        rep.write_text(json.dumps(report))
        v = run(["--verify-only", str(rep)])
        ok, lines = verify_lines(report, parse_system(report["system"]))
        assert (v.returncode, v.stdout) == (0 if ok else 1, "".join(f"{x}\n" for x in lines))


def test_verify_only_rejects_garbage(tmp_path):
    rep = tmp_path / "junk.json"
    rep.write_text("{not json")
    assert run(["--verify-only", str(rep)]).returncode == 65


def test_verify_only_excludes_input(tmp_path):
    rep = tmp_path / "r.json"
    rep.write_text("{}")
    assert run(["--verify-only", str(rep), "-"], stdin=SAT).returncode == 64


def test_verify_only_rejects_a_system_that_is_not_text(tmp_path):
    rep = tmp_path / "r.json"
    for system in (5, None):
        rep.write_text(json.dumps({"system": system}))
        r = run(["--verify-only", str(rep)])
        assert r.returncode == 65, r.stderr
        assert r.stderr.startswith("groupeq: report has no readable system")


STAGES = ("reduce", "tri", "exp", "decide")


def test_debug_stages_emit_to_stderr(capsys):
    from groupeq import cli

    flags = [arg for stage in STAGES for arg in ("--debug-stage", stage)]
    corpus = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.eq"))
    assert len(corpus) > 40
    for path in corpus:
        code = cli.main(flags + ["--budget-steps", "2", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (path.name, err)
        for stage in STAGES:
            assert f"# stage {stage} (" in err, (path.name, stage)


def test_debug_tri_reports_the_branch_cap(tmp_path, capsys):
    from groupeq import cli

    # seven commutations split into more than BRANCH_CAP branches
    pairs = ["X Y", "X Z", "Y Z", "X W", "Y W", "Z W", "X V"]
    f = tmp_path / "wide.eq"
    f.write_text("group wreath Z^1\n" + "".join(f"{p} = {p[::-1]}\n" for p in pairs))
    assert cli.main(["--debug-stage", "tri", "--budget-steps", "1", str(f)]) == 2
    assert "component 0:\n  (branch cap hit)\n" in capsys.readouterr().err


def test_debug_exp_on_bs1_names_the_linear_solve():
    r = run(["--debug-stage", "exp", "-"], stdin="group BS 1\nX^2 = a^3\n")
    assert r.returncode == 1
    assert "no case split, one linear solve decides it" in r.stderr
    assert "open branch" not in r.stderr


def test_debug_exp_lists_dead_residual_branch():
    r = run(["--debug-stage", "exp", "-"], stdin=UNSAT)
    assert r.returncode == 1
    assert "refuted branch /t-: dead residuals" in r.stderr


def test_reports_reproducible_modulo_timing():
    outs = []
    for _ in range(2):
        r = run(["--format", "json", "-"], stdin=UNSAT)
        rep = json.loads(r.stdout)
        rep.pop("timing")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_internal_error_exits_70(tmp_path, monkeypatch, capsys):
    from groupeq import cli

    def boom(system, budget):
        raise RuntimeError("solver fault\nsecond line")

    monkeypatch.setattr(cli, "decide", boom)
    f = tmp_path / "sat.eq"
    f.write_text(SAT)
    assert cli.main([str(f)]) == cli.EXIT_SOFTWARE == 70
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "internal error" in err and "RuntimeError" in err


def test_import_loads_neither_openssl_nor_argparse():
    """``import groupeq.cli`` is what a library user or the benchmark worker
    pays: ``system_hash`` needs no OpenSSL, and only ``main`` parses flags."""
    code = (
        "import sys, groupeq.cli\n"
        "print(sorted({'_hashlib', 'argparse', 'gettext'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
