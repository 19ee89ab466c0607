"""Word-equation solving over BS(1,k) and wreath products A wr Z.

The public surface: parse a system with parse_system, run decide to get a
verdict carrying a verified witness or an independently checkable
refutation certificate, and audit results with verify_witness /
verify_certificate.  The oracle module provides brute-force ground truth
for bounded searches.
"""

from .decide import (
    Budget,
    Verdict,
    build_report,
    decide,
    verify_certificate,
)
from .frontend import EquationSystem, ParseError, parse_system, render_system, system_hash
from .groups import (
    BsElement,
    GroupSpec,
    WreathElement,
    eval_word,
    parse_element,
    render_element,
    verify_witness,
)
from .oracle import SearchBall, ball_elements, brute_force_exp, brute_force_group

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "Verdict",
    "decide",
    "build_report",
    "verify_certificate",
    "EquationSystem",
    "ParseError",
    "parse_system",
    "render_system",
    "system_hash",
    "GroupSpec",
    "BsElement",
    "WreathElement",
    "eval_word",
    "parse_element",
    "render_element",
    "verify_witness",
    "SearchBall",
    "ball_elements",
    "brute_force_exp",
    "brute_force_group",
    "__version__",
]
