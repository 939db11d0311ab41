"""Exception hierarchy shared by all fusionlab modules, and the decimal
text of exact numbers that their messages, the parser and the CLI share."""

from __future__ import annotations

from fractions import Fraction


def _decimal(v: int) -> str:
    """v in decimal, at any size.

    str() refuses an int of more digits than sys.get_int_max_str_digits(),
    which is 4300 by default and never below 640 unless 0 (no limit). So a
    long v is split at a power of ten near half its digits, and each half is
    written on its own; the process-wide limit is left as it is.
    """
    if v < 0:
        return "-" + _decimal(-v)
    if v.bit_length() <= 2000:  # at most 603 digits
        return str(v)
    k = v.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(v, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _integer(digits: str) -> int:
    """The int that a string of decimal digits writes, at any length: the
    inverse of _decimal, split at a power of ten the same way."""
    if len(digits) <= 600:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def _frac_str(v: Fraction) -> str:
    """A rational as "p/q", or as "p" when the denominator is 1, at any size."""
    if v.denominator == 1:
        return _decimal(v.numerator)
    return f"{_decimal(v.numerator)}/{_decimal(v.denominator)}"


class FusionError(Exception):
    """Base class for every domain error raised by this package."""


class NegativeExponentError(FusionError):
    def __init__(self, exponent: int):
        super().__init__(f"exponent evaluates to {_decimal(exponent)}, must be >= 0")
        self.exponent = exponent


class UnknownDimensionError(FusionError):
    def __init__(self, label: str):
        super().__init__(f"no dimensions available for label {label!r}")
        self.label = label


class EmptyLevelError(FusionError):
    def __init__(self, level: int):
        super().__init__(f"no definition fires at level {level}")
        self.level = level


class UndefinedLabelError(FusionError):
    def __init__(self, label: str, level: int):
        super().__init__(f"child label {label!r} is not defined at level {level - 1}")
        self.label = label
        self.level = level


class UnknownLabelError(FusionError, KeyError):
    """A supertile label that the level does not define.

    A KeyError, as the bare lookup it replaces, but one whose message names
    the label, the level and the labels defined there.
    """

    def __init__(self, label: str, level: int, labels: tuple[str, ...]):
        super().__init__(
            f"no supertile {label!r} at level {level}; labels there: {', '.join(labels)}"
        )
        self.label = label
        self.level = level
        self.labels = labels

    def __str__(self) -> str:
        return self.args[0]


class InvalidRepeatError(FusionError):
    def __init__(self, label: str, level: int, value: int):
        super().__init__(
            f"repeat for a placement in {label!r} at level {level} "
            f"evaluates to {_decimal(value)}, must be >= 1"
        )
        self.label = label
        self.level = level
        self.value = value


class InvalidRangeError(FusionError):
    """Levels from n to m that a call cannot take; need is the condition
    that the call checks, and got, when given, replaces "from=n to=m"."""

    def __init__(self, n: int, m: int, need: str = "0 <= from <= to", got: str = ""):
        super().__init__(f"invalid level range: need {need}, got {got or f'from={n} to={m}'}")
        self.from_level = n
        self.to_level = m


class ExpansionTooLargeError(FusionError):
    def __init__(self, predicted: int, cap: int):
        super().__init__(f"expansion needs {_decimal(predicted)} cells, budget allows {cap}")
        self.predicted = predicted
        self.cap = cap


class OverlapError(FusionError):
    """Two placed children claim the same cell."""

    def __init__(self, first_child: int, second_child: int, cell: tuple[int, int]):
        super().__init__(
            f"children #{first_child} and #{second_child} overlap at cell {cell}"
        )
        self.first_child = first_child
        self.second_child = second_child
        self.cell = cell


class DisconnectedError(FusionError):
    """An expanded patch splits into several edge-connected components."""

    def __init__(self, component_sizes: tuple[int, ...]):
        super().__init__(
            "patch is not edge-connected; component sizes "
            + ", ".join(str(s) for s in component_sizes)
        )
        self.component_sizes = component_sizes


class ParseError(FusionError):
    """Raised by the rule parser; carries ParseDiagnostic objects."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        super().__init__(str(first) if first else "parse failed")


class ValidationError(FusionError):
    """Raised when a syntactically valid rule fails semantic validation."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        msg = "; ".join(str(d) for d in self.diagnostics) or "validation failed"
        super().__init__(msg)
