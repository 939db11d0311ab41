"""Bundled example rules shipped with the package."""

from __future__ import annotations

from importlib import resources

from .core import FusionRule
from .dsl import parse_rule

# (name, one-line description), in bundle order.
BUILTIN_RULES: tuple[tuple[str, str], ...] = (
    ("thue_morse", "Two-letter 1D rule: S1 = S1 S2 and S2 = S2 S1 at every level."),
    ("fibonacci", "Golden-ratio 1D rule A = A B, B = A; frequencies converge to 1/phi."),
    ("fiblike", "Fibonacci-like 1D rule with a third tile T entering at levels 3^m."),
    ("ten_pow_n", "1D rule with level-dependent repeats A = A^(10^n) B; frequencies stay non-unique."),
    ("chair", "Four L-tromino orientations fusing 4-to-1 into larger chair supertiles."),
    ("fib2d", "Product of two golden-ratio components on a 2D grid of four labels."),
)


def builtin_names() -> tuple[str, ...]:
    return tuple(name for name, _ in BUILTIN_RULES)


def builtin_text(name: str) -> str:
    """Canonical rule-file text of a bundled rule."""
    if name not in builtin_names():
        raise KeyError(name)
    return (resources.files(__package__) / "rules" / f"{name}.fusion").read_text("utf-8")


def load_builtin(name: str) -> FusionRule:
    """A freshly parsed bundled rule; its level table is freed with it."""
    return parse_rule(builtin_text(name))
