"""Command-line front end.

Subcommands delegate 1:1 to the library modules. With --json, every run -
success or failure - emits exactly one envelope:

    {"schema": "fusionlab/1", "command": [...], "result": ..., "diagnostics": [...]}

printed deterministically (sorted keys, fixed indentation). Exact numbers
are strings: integers in decimal, rationals as "p/q" (plain decimal string
when the denominator is 1); convenience floats live in keys suffixed
_approx. Exit codes: 0 success, 1 domain error or internal fault, 2 usage
error.
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
from .core import FusionRule, resolve_level, validate_rule
from .errors import FusionError, ParseError, ValidationError

SCHEMA = "fusionlab/1"


class _UsageError(Exception):
    pass


class _HelpExit(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so failures still emit an
    envelope."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if status:
            raise _UsageError(message or "")
        raise _HelpExit()


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _envelope(argv: Sequence[str], result, diagnostics) -> dict:
    return {
        "schema": SCHEMA,
        "command": list(argv),
        "result": result,
        "diagnostics": diagnostics,
    }


def _error_diagnostics(exc: Exception) -> list[dict]:
    if isinstance(exc, ParseError):
        return [
            {
                "severity": d.severity,
                "message": d.message,
                "line": str(d.span.line),
                "column": str(d.span.column),
            }
            for d in exc.diagnostics
        ]
    if isinstance(exc, ValidationError):
        out = []
        for d in exc.diagnostics:
            entry = {"severity": "error", "code": d.code, "message": d.message}
            if d.level is not None:
                entry["level"] = str(d.level)
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


def _budget(args) -> Optional[expand.ExpansionBudget]:
    return None if args.max_cells is None else expand.ExpansionBudget(args.max_cells)


def _positive_int(text: str) -> int:
    """argparse type: an int of at least 1, with int's own message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers: return (result payload, text rendering)
# ---------------------------------------------------------------------------


def _cmd_parse(args):
    rule = _load_rule(args)
    protos = []
    for p in rule.prototiles:
        entry = {"name": p.name, "volume": _frac_str(p.volume)}
        if p.cells is not None:
            entry["cells"] = [[str(x), str(y)] for x, y in p.cells]
        protos.append(entry)
    canonical = dsl.format_rule(rule)
    result = {
        "name": rule.name,
        "dimension": str(rule.dimension),
        "prototiles": protos,
        "definition_count": str(len(rule.definitions)),
        "canonical": canonical,
    }
    return result, canonical.rstrip("\n")


def _cmd_expand(args):
    rule = _load_rule(args)
    level = args.level
    labels = [args.supertile] if args.supertile else list(resolve_level(rule, level).labels)
    budget = _budget(args)
    entries = []
    texts = []
    for lab in labels:
        patch = expand.expand_supertile(rule, level, lab, budget)
        text = expand.render_text(patch, rule)
        entries.append(
            {
                "label": lab,
                "level": str(level),
                "tiles": str(len(patch.labels) if patch.dimension == 1 else len(patch.tiles)),
                "cells": str(patch.cell_count()),
                "text": text,
            }
        )
        if args.supertile:
            texts.append(text)
        elif rule.dimension == 1:
            texts.append(f"{lab}: {text}")
        else:
            texts.append(f"{lab}:\n{text}")
    return {"level": str(level), "supertiles": entries}, "\n".join(texts)


def _cmd_matrix(args):
    rule = _load_rule(args)
    m = transition.transition_matrix(rule, args.from_level, args.to_level)
    result = {
        "from_level": str(m.from_level),
        "to_level": str(m.to_level),
        "row_labels": list(m.row_labels),
        "col_labels": list(m.col_labels),
        "entries": [[str(e) for e in row] for row in m.entries],
    }
    width = max(len(str(e)) for row in m.entries for e in row)
    lines = [f"M[{m.from_level} -> {m.to_level}]  columns: {' '.join(m.col_labels)}"]
    for lab, row in zip(m.row_labels, m.entries):
        lines.append(f"  {lab}: " + " ".join(str(e).rjust(width) for e in row))
    return result, "\n".join(lines)


def _cmd_primitivity(args):
    rule = _load_rule(args)
    res = analysis.primitivity_check(rule, args.level, args.max_offset)
    result = {
        "level": str(res.level),
        "max_offset": str(res.max_offset),
        "minimal_offset": None if res.minimal_offset is None else str(res.minimal_offset),
        "witness_zero": None
        if res.witness_zero is None
        else {
            "row": res.witness_zero[0],
            "col": res.witness_zero[1],
            "horizon": str(res.witness_zero[2]),
        },
    }
    if res.minimal_offset is not None:
        text = (
            f"level {res.level}: positive at offset {res.minimal_offset} "
            f"(M[{res.level} -> {res.level + res.minimal_offset}] entrywise > 0)"
        )
    else:
        r, c, N = res.witness_zero
        text = (
            f"level {res.level}: no positive horizon up to offset {res.max_offset}; "
            f"M[{res.level} -> {N}] has a zero at ({r}, {c})"
        )
    return result, text


def _cmd_vanhove(args):
    rule = _load_rule(args)
    rep = analysis.van_hove_diagnostic(rule, args.depth, args.radius, _budget(args))
    result = {
        "depth": str(rep.depth),
        "r": str(rep.r),
        "levels": [str(x) for x in rep.levels],
        "ratios": [_frac_str(x) for x in rep.ratios],
        "ratios_approx": [float(x) for x in rep.ratios],
        "max_labels": list(rep.max_labels),
        "verdict": rep.verdict,
    }
    lines = [f"boundary ratios (r={rep.r}):"]
    for lv, ratio, lab in zip(rep.levels, rep.ratios, rep.max_labels):
        lines.append(f"  level {lv}: {_frac_str(ratio)} ({float(ratio):.6g}, worst: {lab})")
    lines.append(f"verdict: {rep.verdict}")
    return result, "\n".join(lines)


def _trajectory_payload(traj) -> list:
    return [
        {"label": lab, "vertex": [_frac_str(x) for x in vertex]}
        for lab, vertex in traj
    ]


def _cmd_freq(args):
    rule = _load_rule(args)
    tol = Fraction(args.tol) if args.tol else Fraction(1, 10**6)
    rep = analysis.ergodicity_report(rule, args.level, args.horizon, tol)
    hull = rep.hull
    result = {
        "level": str(hull.level),
        "horizon": str(hull.horizon),
        "labels": list(hull.labels),
        "vertex_labels": list(hull.vertex_labels),
        "vertices": [[_frac_str(x) for x in v] for v in hull.vertices],
        "diameter": _frac_str(hull.diameter),
        "diameter_approx": float(hull.diameter),
        "centroid": [_frac_str(x) for x in hull.centroid],
        "centroid_approx": [float(x) for x in hull.centroid],
        "ergodicity": {
            "horizons": [str(N) for N in rep.horizons],
            "diameters": [_frac_str(d) for d in rep.diameters],
            "diameters_approx": [float(d) for d in rep.diameters],
            "tol": _frac_str(rep.tol),
            "verdict": rep.verdict,
            "trajectories": None
            if rep.trajectories is None
            else [
                _trajectory_payload(rep.trajectories[0]),
                _trajectory_payload(rep.trajectories[1]),
            ],
        },
    }
    lines = [
        f"hull at level {hull.level}, horizon {hull.horizon}: "
        f"{len(hull.vertices)} vertices, diameter {float(hull.diameter):.6g}"
    ]
    for lab, v in zip(hull.vertex_labels, hull.vertices):
        coords = ", ".join(_frac_str(x) for x in v)
        lines.append(f"  via {lab}: ({coords})")
    lines.append(f"ergodicity verdict: {rep.verdict}")
    return result, "\n".join(lines)


def _patch_argument(rule, args) -> expand.CellPatch:
    """2D patch from --patch LABEL at --patch-level L (default 0)."""
    level = args.patch_level if args.patch_level is not None else 0
    return expand.expand_supertile(rule, level, args.patch, _budget(args))


def _cmd_patchfreq(args):
    rule = _load_rule(args)
    if args.word:
        patch = args.word
        description = args.word
    elif args.patch:
        patch = _patch_argument(rule, args)
        description = f"{args.patch}@{args.patch_level or 0}"
    else:
        raise _UsageError("patchfreq needs --word (1D) or --patch (2D)")
    iv = analysis.patch_frequency_estimate(rule, patch, args.level, args.horizon, _budget(args))
    result = {
        "description": description,
        "level": str(iv.level),
        "horizon": str(iv.horizon),
        "lo": _frac_str(iv.lo),
        "hi": _frac_str(iv.hi),
        "lo_approx": float(iv.lo),
        "hi_approx": float(iv.hi),
        "width": _frac_str(iv.width),
        "width_approx": float(iv.width),
    }
    text = (
        f"freq({description}) at level {iv.level}, horizon {iv.horizon}: "
        f"[{_frac_str(iv.lo)}, {_frac_str(iv.hi)}] "
        f"~ [{float(iv.lo):.8g}, {float(iv.hi):.8g}], width {float(iv.width):.3g}"
    )
    return result, text


def _cmd_admissible(args):
    rule = _load_rule(args)
    if args.word:
        needle = args.word
        description = args.word
    elif args.patch:
        needle = _patch_argument(rule, args)
        description = f"{args.patch}@{args.patch_level or 0}"
    else:
        raise _UsageError("admissible needs --word (1D) or --patch (2D)")
    res = expand.is_admissible(rule, needle, args.max_level, _budget(args))
    result = {
        "description": description,
        "max_level": str(args.max_level),
        "found": res.found,
        "level": None if res.level is None else str(res.level),
        "label": res.label,
        "position": None if res.position is None else [str(x) for x in res.position],
    }
    if res.found:
        pos = ", ".join(str(x) for x in res.position)
        text = f"{description}: found in {res.label} at level {res.level} (position {pos})"
    else:
        text = f"{description}: not found up to level {args.max_level}"
    return result, text


def _cmd_render(args):
    rule = _load_rule(args)
    patch = expand.expand_supertile(rule, args.level, args.supertile, _budget(args))
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
        "level": str(args.level),
        "label": args.supertile,
        "path": path,
        "content": None if path else content,
    }
    text = f"wrote {path}" if path else content.rstrip("\n")
    return result, text


def _cmd_examples(args):
    if args.show:
        if args.show not in builtin_names():
            raise FusionError(f"unknown bundled rule {args.show!r}")
        text = builtin_text(args.show)
        return {"name": args.show, "text": text}, text.rstrip("\n")
    rules = [{"name": name, "description": desc} for name, desc in BUILTIN_RULES]
    width = max(len(name) for name, _ in BUILTIN_RULES)
    lines = [f"{name.ljust(width)}  {desc}" for name, desc in BUILTIN_RULES]
    return {"rules": rules}, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


_CELLS_HELP = "cap on the cells of one supertile expansion (default 10^7)"
_PATCH_CELLS_HELP = _CELLS_HELP + "; applies to --patch only, a --word is never expanded"


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
    _add_rule_arguments(sp, _CELLS_HELP)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--radius", type=int, default=1)
    sp.set_defaults(handler=_cmd_vanhove)

    sp = sub.add_parser("freq", help="frequency hull and ergodicity verdict")
    _add_rule_arguments(sp)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--tol", help="uniqueness tolerance, e.g. 1/1000000")
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
    want_json = "--json" in argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required (see --help)")
        result, text = args.handler(args)
    except _HelpExit:
        return 0
    except _UsageError as e:
        message = str(e) or "usage error"
        if want_json:
            sys.stdout.write(
                _dump(_envelope(argv, None, [{"severity": "error", "message": message}]))
            )
        else:
            sys.stderr.write(f"usage error: {message}\n")
        return 2
    except (FusionError, ValueError, KeyError, OSError) as e:
        if want_json:
            sys.stdout.write(_dump(_envelope(argv, None, _error_diagnostics(e))))
        else:
            sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # a fault inside a handler still ends in one envelope
        message = type(e).__name__ + (f": {e}" if str(e) else "")
        if want_json:
            diagnostic = {"severity": "error", "code": "internal-error", "message": message}
            sys.stdout.write(_dump(_envelope(argv, None, [diagnostic])))
        else:
            sys.stderr.write(f"internal error: {message}\n")
        return 1
    if getattr(args, "json", False):
        sys.stdout.write(_dump(_envelope(argv, result, [])))
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
