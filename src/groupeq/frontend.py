"""Input grammar: group spec header plus word equations.

    # solve a conjugation instance
    group BS 2
    X^-1 a X = a^4

    group wreath Z^0 x Z_2
    X a = a X

One equation per line, letters separated by spaces.  A letter is a name with
an optional integer exponent after ``^``.  Names starting with an uppercase
letter are unknowns; lowercase names must be generators of the declared
group.  ``1`` denotes the empty word.  ``#`` starts a comment.

An equation may hold at most ``MAX_EQUATION_LETTERS`` unit letters, counted
as the sum of |exponent| over the letters of both sides, so
``X^2 = a^1000000000001`` is a parse error.  The reduction reads a generator
run as one term or one shift, but an unknown's power ``X^e`` still gives e
terms, and a long t-shift still gives a long Laurent division when a wreath
root is lifted.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .groups import GroupSpec

# CPython's builtin SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): the
# same digest as ``hashlib.sha256``, without loading OpenSSL's libcrypto
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

Letter = tuple[str, int]
Word = tuple[Letter, ...]

MAX_EQUATION_LETTERS = 100_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class EquationSystem(NamedTuple):
    spec: GroupSpec
    equations: tuple[tuple[Word, Word], ...]
    variables: tuple[str, ...]


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?\d+")


def parse_spec(text: str, line_no: int = 1) -> GroupSpec:
    """Parse a single ``group ...`` header line."""
    toks = text.split()
    if len(toks) < 2 or toks[0] != "group":
        raise ParseError("expected 'group BS <k>' or 'group wreath ...'", line_no, 1)
    if toks[1] == "BS":
        if len(toks) != 3 or not _is_int(toks[2]):
            raise ParseError("expected 'group BS <k>' with integer k", line_no, 1)
        k = int(toks[2])
        if k < 1:
            raise ParseError("k must be >= 1", line_no, 1)
        return GroupSpec.bs(k)
    if toks[1] == "wreath":
        body = " ".join(toks[2:])
        parts = [p.strip() for p in body.split("x")]
        if not parts or not parts[0]:
            raise ParseError("expected 'group wreath Z^<m> [x Z_<n> ...]'", line_no, 1)
        m = None
        torsion = []
        for idx, part in enumerate(parts):
            if idx == 0:
                if part == "Z":
                    m = 1
                elif part.startswith("Z^") and _is_int(part[2:]):
                    m = int(part[2:])
                else:
                    raise ParseError(f"bad free part {part!r}; expected Z^<m>", line_no, 1)
                if m < 0:
                    raise ParseError("free rank must be >= 0", line_no, 1)
            else:
                if part.startswith("Z_") and _is_int(part[2:]) and int(part[2:]) >= 2:
                    torsion.append(int(part[2:]))
                else:
                    raise ParseError(f"bad torsion part {part!r}; expected Z_<n> with n >= 2", line_no, 1)
        return GroupSpec.wreath(m, torsion)
    raise ParseError(f"unknown group family {toks[1]!r}", line_no, 1)


def parse_system(text: str) -> EquationSystem:
    """Parse a ``group ...`` header and one equation per following line.

    The set of generator names is built once, from the header, and every
    word of the system is checked against it.  A ParseError carries the
    1-based line and column of the offending text.
    """
    spec: GroupSpec | None = None
    gens: frozenset[str] = frozenset()
    equations: list[tuple[Word, Word]] = []
    variables: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if spec is None:
            spec = parse_spec(line, line_no)
            gens = frozenset(spec.generator_names())
            continue
        equations.append(_parse_equation(line, line_no, gens, variables))
    if spec is None:
        raise ParseError("missing 'group ...' header", 1, 1)
    return EquationSystem(spec=spec, equations=tuple(equations), variables=tuple(sorted(variables)))


def _parse_equation(line: str, line_no: int, gens: frozenset[str], variables: set[str]):
    if line.count("=") != 1:
        raise ParseError("an equation needs exactly one '='", line_no, line.find("=") + 1 or 1)
    lhs_text, rhs_text = line.split("=")
    lhs = _parse_word(lhs_text, line_no, 1, gens, variables)
    rhs = _parse_word(rhs_text, line_no, len(lhs_text) + 2, gens, variables)
    size = sum(abs(e) for _, e in lhs + rhs)
    if size > MAX_EQUATION_LETTERS:
        raise ParseError(
            f"equation has {size} unit letters, more than {MAX_EQUATION_LETTERS}", line_no, 1
        )
    return (lhs, rhs)


def _parse_word(text: str, line_no: int, col0: int, gens: frozenset[str], variables: set[str]) -> Word:
    """The letters of one side of an equation, zero exponents dropped.

    text starts at column col0 of its line.  Lowercase names must be in
    gens, the generator names of the system's group; uppercase names are
    added to variables.  Exponents are matched in place, without slicing.
    """
    letters: list[Letter] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        col = col0 + pos
        if text[pos] == "1":
            nxt = pos + 1
            if nxt < len(text) and not text[nxt].isspace():
                raise ParseError("'1' must stand alone as the empty word", line_no, col)
            pos = nxt
            continue
        m = _NAME_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, col)
        name = m.group(0)
        pos = m.end()
        exp = 1
        if pos < len(text) and text[pos] == "^":
            pos += 1
            em = _INT_RE.match(text, pos)
            if not em:
                raise ParseError("expected an integer exponent after '^'", line_no, col0 + pos)
            exp = int(em.group(0))
            pos = em.end()
        if name[0].isupper():
            variables.add(name)
        elif name not in gens:
            raise ParseError(f"unknown generator {name!r}", line_no, col)
        if exp != 0:
            letters.append((name, exp))
    return tuple(letters)


def _is_int(s: str) -> bool:
    return _INT_RE.fullmatch(s) is not None


# ---------------------------------------------------------------------------
# Canonical rendering (stable across runs; feeds the system hash)


def render_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    for name, exp in word:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def render_system(system: EquationSystem) -> str:
    lines = [system.spec.render()]
    for lhs, rhs in system.equations:
        lines.append(f"{render_word(lhs)} = {render_word(rhs)}")
    return "\n".join(lines) + "\n"


def system_hash(system: EquationSystem) -> str:
    return _sha256(render_system(system).encode("utf-8")).hexdigest()
