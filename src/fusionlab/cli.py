"""Command-line front end.

Subcommands delegate 1:1 to the library modules. Each handler returns its
result as library values, with a function that renders its text, and a run
builds only the output it prints: text mode never encodes the result, and
--json never renders the text. With --json, every run - success or
failure - emits exactly one envelope:

    {"schema": "fusionlab/1", "command": [...], "result": ..., "diagnostics": [...]}

printed deterministically (sorted keys, fixed indentation). One encoder,
_exact, writes every exact number as a string: integers in decimal,
rationals as "p/q" (plain decimal string when the denominator is 1), at
any size; convenience floats live in keys suffixed _approx. No option may
be abbreviated, so --json is the one spelling of JSON mode. Exit codes: 0
success, 1 domain error or internal fault, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import analysis, dsl, expand, transition
from .builtins import BUILTIN_RULES, builtin_names, builtin_text, load_builtin
from .core import FusionRule, resolve_level
from .errors import FusionError, ParseError, ValidationError, _decimal, _frac_str

SCHEMA = "fusionlab/1"


class _UsageError(Exception):
    pass


class _HelpExit(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so failures still emit an
    envelope, and that takes no abbreviated option: --json is the one
    spelling of JSON mode."""

    def __init__(self, *args, **kwargs):
        kwargs["allow_abbrev"] = False
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if status:
            raise _UsageError(message or "")
        raise _HelpExit()


def _exact(value):
    """value as the envelope writes it: an int in decimal and a Fraction as
    "p/q" ("p" when the denominator is 1), both at any size; a tuple or
    list as a list and a dict value by value; a bool, float, str or None
    as itself."""
    if isinstance(value, bool):  # an int too, but written as true/false
        return value
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {key: _exact(v) for key, v in value.items()}
    return value


def _dump(argv: Sequence[str], result, diagnostics) -> str:
    envelope = {"schema": SCHEMA, "command": argv, "result": result, "diagnostics": diagnostics}
    return json.dumps(_exact(envelope), sort_keys=True, indent=2) + "\n"


def _fail(argv: Sequence[str], want_json: bool, code: int, diagnostics: list, text: str) -> int:
    """Report a failure as one envelope on stdout or one line on stderr."""
    if want_json:
        sys.stdout.write(_dump(argv, None, diagnostics))
    else:
        sys.stderr.write(text + "\n")
    return code


def _error_diagnostics(exc: Exception) -> list[dict]:
    if isinstance(exc, ParseError):
        return [
            {"severity": d.severity, "message": d.message, "line": d.span.line, "column": d.span.column}
            for d in exc.diagnostics
        ]
    if isinstance(exc, ValidationError):
        out = []
        for d in exc.diagnostics:
            entry = {"severity": "error", "code": d.code, "message": d.message}
            if d.level is not None:
                entry["level"] = d.level
            if d.label is not None:
                entry["label"] = d.label
            out.append(entry)
        return out
    return [{"severity": "error", "message": str(exc)}]


def _load_rule(args) -> FusionRule:
    name = getattr(args, "rule_flag", None) or getattr(args, "rule", None)
    if not name:
        raise _UsageError("a rule (file path or bundled name) is required")
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as f:
            return dsl.parse_rule(f.read())
    if name in builtin_names():
        return load_builtin(name)
    raise FusionError(
        f"unknown rule {name!r}: not a file and not one of {', '.join(builtin_names())}"
    )


def _needle(rule, args):
    """(needle, description) from --word, or from the 2D patch --patch
    LABEL expanded at --patch-level L (default 0)."""
    if args.word:
        return args.word, args.word
    if args.patch:
        level = args.patch_level or 0
        return expand.expand_supertile(rule, level, args.patch, args.max_cells), f"{args.patch}@{level}"
    raise _UsageError(f"{args.subcommand} needs --word (1D) or --patch (2D)")


def _positive_int(text: str) -> int:
    """argparse type: an int of at least 1, with int's own message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_fraction(text: str) -> Fraction:
    """argparse type: an exact Fraction of at least 0 from "p/q" or a decimal
    such as 0.001."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers: return (result payload of library values, a function
# that renders the text); main encodes the one or calls the other
# ---------------------------------------------------------------------------


def _cmd_parse(args):
    rule = _load_rule(args)
    protos = []
    for p in rule.prototiles:
        entry = {"name": p.name, "volume": p.volume}
        if p.cells is not None:
            entry["cells"] = p.cells
        protos.append(entry)
    canonical = dsl.format_rule(rule)
    result = {
        "name": rule.name,
        "dimension": rule.dimension,
        "prototiles": protos,
        "definition_count": len(rule.definitions),
        "canonical": canonical,
    }
    return result, lambda: canonical.rstrip("\n")


def _cmd_expand(args):
    rule = _load_rule(args)
    level = args.level
    labels = [args.supertile] if args.supertile else resolve_level(rule, level).labels
    entries = []
    for lab in labels:
        patch = expand.expand_supertile(rule, level, lab, args.max_cells)
        entries.append(
            {
                "label": lab,
                "level": level,
                "tiles": len(patch.labels) if patch.dimension == 1 else len(patch.tiles),
                "cells": patch.cell_count(),
                "text": expand.render_text(patch, rule),
            }
        )
        # dropped before the next label's expansion, so one patch is alive at a time
        del patch

    def text():
        if args.supertile:
            return entries[0]["text"]
        sep = " " if rule.dimension == 1 else "\n"
        return "\n".join(f"{e['label']}:{sep}{e['text']}" for e in entries)

    return {"level": level, "supertiles": entries}, text


def _cmd_matrix(args):
    rule = _load_rule(args)
    m = transition.transition_matrix(rule, args.from_level, args.to_level)
    result = {
        "from_level": m.from_level,
        "to_level": m.to_level,
        "row_labels": m.row_labels,
        "col_labels": m.col_labels,
        "entries": m.entries,
    }

    def text():
        entries = [[_decimal(e) for e in row] for row in m.entries]
        width = max(len(e) for row in entries for e in row)
        lines = [f"M[{m.from_level} -> {m.to_level}]  columns: {' '.join(m.col_labels)}"]
        for lab, row in zip(m.row_labels, entries):
            lines.append(f"  {lab}: " + " ".join(e.rjust(width) for e in row))
        return "\n".join(lines)

    return result, text


def _cmd_primitivity(args):
    rule = _load_rule(args)
    res = analysis.primitivity_check(rule, args.level, args.max_offset)
    result = {
        "level": res.level,
        "max_offset": res.max_offset,
        "minimal_offset": res.minimal_offset,
        "witness_zero": None
        if res.witness_zero is None
        else {"row": res.witness_zero[0], "col": res.witness_zero[1], "horizon": res.witness_zero[2]},
    }

    def text():
        if res.minimal_offset is not None:
            return (
                f"level {res.level}: positive at offset {res.minimal_offset} "
                f"(M[{res.level} -> {res.level + res.minimal_offset}] entrywise > 0)"
            )
        r, c, N = res.witness_zero
        return (
            f"level {res.level}: no positive horizon up to offset {res.max_offset}; "
            f"M[{res.level} -> {N}] has a zero at ({r}, {c})"
        )

    return result, text


def _cmd_vanhove(args):
    rule = _load_rule(args)
    rep = analysis.van_hove_diagnostic(rule, args.depth, args.radius, args.max_cells)
    result = {
        "depth": rep.depth,
        "r": rep.r,
        "levels": rep.levels,
        "ratios": rep.ratios,
        "ratios_approx": [float(x) for x in rep.ratios],
        "max_labels": rep.max_labels,
        "verdict": rep.verdict,
    }

    def text():
        lines = [f"boundary ratios (r={rep.r}):"]
        for lv, ratio, lab in zip(rep.levels, rep.ratios, rep.max_labels):
            lines.append(f"  level {lv}: {_frac_str(ratio)} ({float(ratio):.6g}, worst: {lab})")
        lines.append(f"verdict: {rep.verdict}")
        return "\n".join(lines)

    return result, text


def _cmd_freq(args):
    rule = _load_rule(args)
    rep = analysis.ergodicity_report(rule, args.level, args.horizon, args.tol)
    hull = rep.hull
    result = {
        "level": hull.level,
        "horizon": hull.horizon,
        "labels": hull.labels,
        "vertex_labels": hull.vertex_labels,
        "vertices": hull.vertices,
        "diameter": hull.diameter,
        "diameter_approx": float(hull.diameter),
        "centroid": hull.centroid,
        "centroid_approx": [float(x) for x in hull.centroid],
        "ergodicity": {
            "horizons": rep.horizons,
            "diameters": rep.diameters,
            "diameters_approx": [float(d) for d in rep.diameters],
            "tol": rep.tol,
            "verdict": rep.verdict,
            "trajectories": None
            if rep.trajectories is None
            else [[{"label": lab, "vertex": vertex} for lab, vertex in traj] for traj in rep.trajectories],
        },
    }

    def text():
        lines = [
            f"hull at level {hull.level}, horizon {hull.horizon}: "
            f"{len(hull.vertices)} vertices, diameter {float(hull.diameter):.6g}"
        ]
        for lab, v in zip(hull.vertex_labels, hull.vertices):
            lines.append(f"  via {lab}: ({', '.join(map(_frac_str, v))})")
        lines.append(f"ergodicity verdict: {rep.verdict}")
        return "\n".join(lines)

    return result, text


def _cmd_patchfreq(args):
    rule = _load_rule(args)
    patch, description = _needle(rule, args)
    iv = analysis.patch_frequency_estimate(rule, patch, args.level, args.horizon, args.max_cells)
    result = {
        "description": description,
        "level": iv.level,
        "horizon": iv.horizon,
        "lo": iv.lo,
        "hi": iv.hi,
        "lo_approx": float(iv.lo),
        "hi_approx": float(iv.hi),
        "width": iv.width,
        "width_approx": float(iv.width),
    }
    return result, lambda: (
        f"freq({description}) at level {iv.level}, horizon {iv.horizon}: "
        f"[{_frac_str(iv.lo)}, {_frac_str(iv.hi)}] "
        f"~ [{float(iv.lo):.8g}, {float(iv.hi):.8g}], width {float(iv.width):.3g}"
    )


def _cmd_admissible(args):
    rule = _load_rule(args)
    needle, description = _needle(rule, args)
    res = expand.is_admissible(rule, needle, args.max_level, args.max_cells)
    result = {
        "description": description,
        "max_level": args.max_level,
        "found": res.found,
        "level": res.level,
        "label": res.label,
        "position": res.position,
    }

    def text():
        if res.found:
            pos = ", ".join(map(str, res.position))
            return f"{description}: found in {res.label} at level {res.level} (position {pos})"
        return f"{description}: not found up to level {args.max_level}"

    return result, text


def _cmd_render(args):
    rule = _load_rule(args)
    patch = expand.expand_supertile(rule, args.level, args.supertile, args.max_cells)
    out = args.out or "txt"
    if out == "svg" or (out not in ("svg", "txt") and out.lower().endswith(".svg")):
        fmt = "svg"
        content = expand.render_svg(patch, args.cell_size, rule)
    else:
        fmt = "txt"
        content = expand.render_text(patch, rule) + "\n"
    path = None
    if out not in ("svg", "txt"):
        path = out
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
    result = {
        "format": fmt,
        "level": args.level,
        "label": args.supertile,
        "path": path,
        "content": None if path else content,
    }
    return result, lambda: f"wrote {path}" if path else content.rstrip("\n")


def _cmd_examples(args):
    if args.show:
        if args.show not in builtin_names():
            raise FusionError(f"unknown bundled rule {args.show!r}")
        text = builtin_text(args.show)
        return {"name": args.show, "text": text}, lambda: text.rstrip("\n")
    rules = [{"name": name, "description": desc} for name, desc in BUILTIN_RULES]
    width = max(len(name) for name, _ in BUILTIN_RULES)
    return {"rules": rules}, lambda: "\n".join(f"{name.ljust(width)}  {desc}" for name, desc in BUILTIN_RULES)


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


_CELLS_HELP = "cap on the cells of one supertile expansion (default 10^7)"
_PATCH_CELLS_HELP = _CELLS_HELP + "; applies to --patch only, a --word is never expanded"
_VANHOVE_CELLS_HELP = _CELLS_HELP + "; applies only to the expansion that names the tiles of an overlap"


def _add_rule_arguments(sp, cells_help: Optional[str] = None):
    """The rule and --json arguments, plus --max-cells for subcommands that
    expand supertiles."""
    sp.add_argument("rule", nargs="?", help="rule file path or bundled rule name")
    sp.add_argument("--rule", dest="rule_flag", help="alternative to the positional rule")
    sp.add_argument("--json", action="store_true", help="emit the JSON envelope")
    if cells_help:
        sp.add_argument("--max-cells", type=_positive_int, dest="max_cells", help=cells_help)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="fusion", description="Fusion rules: expand and analyze hierarchical tilings.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    sp = sub.add_parser("parse", help="parse and validate a rule; print its canonical form")
    _add_rule_arguments(sp)
    sp.set_defaults(handler=_cmd_parse)

    sp = sub.add_parser("expand", help="expand supertiles at a level")
    _add_rule_arguments(sp, _CELLS_HELP)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--supertile", help="one supertile label (default: all at the level)")
    sp.set_defaults(handler=_cmd_expand)

    sp = sub.add_parser("matrix", help="exact transition matrix between two levels")
    _add_rule_arguments(sp)
    sp.add_argument("--from", dest="from_level", type=int, required=True)
    sp.add_argument("--to", dest="to_level", type=int, required=True)
    sp.set_defaults(handler=_cmd_matrix)

    sp = sub.add_parser("primitivity", help="smallest horizon with an entrywise-positive matrix")
    _add_rule_arguments(sp)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--max-offset", dest="max_offset", type=int, default=8)
    sp.set_defaults(handler=_cmd_primitivity)

    sp = sub.add_parser("vanhove", help="boundary-to-volume ratios per level")
    _add_rule_arguments(sp, _VANHOVE_CELLS_HELP)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--radius", type=int, default=1)
    sp.set_defaults(handler=_cmd_vanhove)

    sp = sub.add_parser("freq", help="frequency hull and ergodicity verdict")
    _add_rule_arguments(sp)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--tol", type=_nonnegative_fraction, default=Fraction(1, 10**6), help="uniqueness tolerance, e.g. 1/1000000")
    sp.set_defaults(handler=_cmd_freq)

    sp = sub.add_parser("patchfreq", help="frequency interval of a word or patch")
    _add_rule_arguments(sp, _PATCH_CELLS_HELP)
    sp.add_argument("--word", help="1D word over the rule's characters")
    sp.add_argument("--patch", help="2D: supertile label to use as the patch")
    sp.add_argument("--patch-level", dest="patch_level", type=int, help="level of --patch (default 0)")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.set_defaults(handler=_cmd_patchfreq)

    sp = sub.add_parser("admissible", help="search supertiles for a word or patch")
    _add_rule_arguments(sp, _PATCH_CELLS_HELP)
    sp.add_argument("--word")
    sp.add_argument("--patch", help="2D: supertile label to use as the patch")
    sp.add_argument("--patch-level", dest="patch_level", type=int)
    sp.add_argument("--max-level", dest="max_level", type=int, default=8)
    sp.set_defaults(handler=_cmd_admissible)

    sp = sub.add_parser("render", help="render one supertile as text or SVG")
    _add_rule_arguments(sp, _CELLS_HELP)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--supertile", required=True)
    sp.add_argument("--out", help="svg | txt (stdout) or an output file path")
    sp.add_argument("--cell-size", dest="cell_size", type=_positive_int, default=16)
    sp.set_defaults(handler=_cmd_render)

    sp = sub.add_parser("examples", help="list bundled rules")
    sp.add_argument("--show", help="print one bundled rule file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = None
    try:
        args = build_parser().parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required (see --help)")
        result, text = args.handler(args)
        out = _dump(argv, result, []) if args.json else text() + "\n"
    except _HelpExit:
        return 0
    except _UsageError as e:
        message = str(e) or "usage error"
        # argv is read only when parsing failed and left no args.json
        want_json = "--json" in argv if args is None else getattr(args, "json", False)
        return _fail(argv, want_json, 2, [{"severity": "error", "message": message}], f"usage error: {message}")
    except (FusionError, ValueError, KeyError, OSError) as e:
        return _fail(argv, getattr(args, "json", False), 1, _error_diagnostics(e), f"error: {e}")
    except Exception as e:  # a fault inside a handler, its encoding or its text still ends in one envelope
        message = type(e).__name__ + (f": {e}" if str(e) else "")
        diagnostic = {"severity": "error", "code": "internal-error", "message": message}
        return _fail(argv, getattr(args, "json", False), 1, [diagnostic], f"internal error: {message}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
