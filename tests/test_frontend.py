import random

import pytest

from groupeq.frontend import (
    ParseError,
    parse_spec,
    parse_system,
    render_system,
    render_word,
    system_hash,
)


def test_parse_spec_bs():
    spec = parse_spec("group BS 2")
    assert spec.kind == "bs" and spec.k == 2


def test_parse_spec_lamplighter():
    spec = parse_spec("group wreath Z^0 x Z_2")
    assert spec.kind == "wreath"
    assert spec.free_rank == 0 and spec.torsion == (2,)


def test_parse_spec_rejects_bad_k():
    with pytest.raises(ParseError):
        parse_spec("group BS 0")


def test_parse_system_single_variable():
    s = parse_system("group BS 2\nX^-1 a X = a^3")
    assert len(s.equations) == 1
    assert s.variables == ("X",)


def test_parse_system_two_variables():
    s = parse_system("group BS 2\nX Y = Y X")
    assert len(s.equations) == 1
    assert s.variables == ("X", "Y")


def test_parse_system_unknown_generator():
    with pytest.raises(ParseError) as exc:
        parse_system("group BS 2\nX = q")
    assert exc.value.line == 2
    assert "q" in exc.value.message


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_system("group BS 2\na = a\nX ^ = a")
    assert exc.value.line == 3
    assert exc.value.col == 3
    assert exc.value.message == "unexpected character '^'"


@pytest.mark.parametrize("text, message, line, col", [
    # header errors point at the header line, column 1
    ("group", "expected 'group BS <k>' or 'group wreath ...'", 1, 1),
    ("# c\ngroup BS two", "expected 'group BS <k>' with integer k", 2, 1),
    ("group BS 0", "k must be >= 1", 1, 1),
    ("group wreath", "expected 'group wreath Z^<m> [x Z_<n> ...]'", 1, 1),
    ("group wreath Q", "bad free part 'Q'; expected Z^<m>", 1, 1),
    ("group wreath Z^-1", "free rank must be >= 0", 1, 1),
    ("group wreath Z x Z_1", "bad torsion part 'Z_1'; expected Z_<n> with n >= 2", 1, 1),
    ("group free 2", "unknown group family 'free'", 1, 1),
    ("\n# only a comment\n", "missing 'group ...' header", 1, 1),
    # '=' errors point at the first '=', or column 1 when there is none
    ("group BS 2\nX = a = b", "an equation needs exactly one '='", 2, 3),
    ("group BS 2\nX a", "an equation needs exactly one '='", 2, 1),
    ("group BS 2\nX^2 = a^99999", "equation has 100001 unit letters, more than 100000", 2, 1),
    # letter errors point at the letter, on either side of the '='
    ("group BS 2\nX = 1a", "'1' must stand alone as the empty word", 2, 5),
    ("group BS 2\nX = a 1^2", "'1' must stand alone as the empty word", 2, 7),
    ("group BS 2\nX = a * b", "unexpected character '*'", 2, 7),
    ("group BS 2\nX^12 = a^-3 $", "unexpected character '$'", 2, 13),
    ("group BS 2\nX = a^12 b^x", "expected an integer exponent after '^'", 2, 12),
    ("group BS 2\nX^+ = a", "expected an integer exponent after '^'", 2, 3),
    ("group BS 2\nX = q", "unknown generator 'q'", 2, 5),
    ("group BS 2\nX = a^12 q", "unknown generator 'q'", 2, 10),
    ("group BS 2\nX^12 = a^-3 q^2", "unknown generator 'q'", 2, 13),
    ("group wreath Z^0 x Z_2\nX t^-10 = c1^10 b", "unknown generator 'b'", 2, 17),
    ("group wreath Z^0 x Z_2\nX t^-10 = c1^10 t^x", "expected an integer exponent after '^'", 2, 19),
    ("group wreath Z^2\n  X a1^3 = a2^-12 a X", "unknown generator 'a'", 2, 19),
])
def test_parse_error_message_line_and_col(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


def test_parse_rejects_missing_group_line():
    with pytest.raises(ParseError):
        parse_system("X = a")


def test_parse_rejects_garbled_exponent():
    with pytest.raises(ParseError):
        parse_system("group BS 2\nX^a = a")


def test_render_parse_round_trip_fixed():
    texts = [
        "group BS 2\nX^-1 a X = a^3\n",
        "group BS 3\nX^2 = a b\nX Y = Y X\n",
        "group wreath Z^0 x Z_2\nX a = a X\n",
        "group wreath Z^2\nX^2 = a1 a2^-3\n",
        "group wreath Z^1 x Z_2 x Z_4\nX = t c1 c2\n",
    ]
    for text in texts:
        s = parse_system(text)
        again = parse_system(render_system(s))
        assert again.equations == s.equations
        assert again.spec == s.spec
        assert system_hash(again) == system_hash(s)


def _random_word(rng, names, maxlen):
    return [
        (rng.choice(names), rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(1, maxlen))
    ]


def test_render_parse_round_trip_random():
    rng = random.Random(59)
    groups = [
        "group BS 2",
        "group BS 5",
        "group wreath Z^0 x Z_2",
        "group wreath Z^1",
        "group wreath Z^1 x Z_3",
    ]
    for _ in range(200):
        head = rng.choice(groups)
        spec = parse_spec(head)
        names = spec.generator_names() + ["X", "Y", "Zv"]
        lines = [head]
        for _ in range(rng.randint(1, 3)):
            lhs = render_word(_random_word(rng, names, 4))
            rhs = render_word(_random_word(rng, names, 4))
            lines.append(f"{lhs} = {rhs}")
        s = parse_system("\n".join(lines))
        again = parse_system(render_system(s))
        assert again.equations == s.equations and again.spec == s.spec


def test_parse_collects_variables_sorted():
    s = parse_system("group BS 2\nY X = X Y\nW = a")
    assert s.variables == ("W", "X", "Y")


def test_comments_and_blank_lines_are_skipped():
    s = parse_system(
        "# system under test\ngroup BS 2\n\n# conjugation\nX^-1 a X = a^3\n"
    )
    assert len(s.equations) == 1


def test_parse_exponent_zero_collapses_to_empty_word():
    s = parse_system("group BS 2\nX^0 = a")
    lhs, rhs = s.equations[0]
    assert lhs == ()
    assert rhs == (("a", 1),)


def test_parse_bounds_unit_letters_per_equation():
    # |exponents| summed over both sides: 2 + 99998 is the bound itself
    at_bound = parse_system("group BS 2\nX^2 = a^99998\nX = a^-99998 b")
    assert at_bound.equations[0][1] == (("a", 99998),)
    for text in ("group BS 2\nX^2 = a^99999",
                 "group BS 2\nX^2 = a^1000000000001",
                 "group wreath Z^1\nX = a^60000 t^-40001"):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert exc.value.line == 2
        assert "unit letters" in exc.value.message


def test_system_hash_is_sha256_of_the_rendered_system():
    """Certificates pin ``system_hash``: the builtin SHA-256 it uses gives
    ``hashlib.sha256``'s digest on every corpus system and every ``commute``
    and ``powers`` system of benchmark seed 1."""
    import hashlib
    import json
    import pathlib
    import sys

    root = pathlib.Path(__file__).resolve().parent
    if str(root.parent / "perfbench") not in sys.path:
        sys.path.insert(0, str(root.parent / "perfbench"))
    import workloads  # the benchmark's generators, never modified

    manifest = json.loads((root / "corpus" / "manifest.json").read_text())
    texts = [(root / "corpus" / e["file"]).read_text() for e in manifest["instances"]]
    texts += [item.text for name in ("commute", "powers")
              for item in workloads.GENERATORS[name](1)]
    assert len(texts) > 200
    for text in texts:
        system = parse_system(text)
        want = hashlib.sha256(render_system(system).encode("utf-8")).hexdigest()
        assert system_hash(system) == want, text
