"""Spans around calls into fusionlab's modules, and the per-layer metrics
built from them.

A function is wrapped under every name a module holds it by, so a call
records a span wherever its caller looks it up. While the call runs, the
function's own module name points back at the bare function: its recursive
self-calls add no frames and no spans, and a traced run reaches the same
recursion depth and results as an untraced one. Helpers missing from the
package are skipped and report zero calls.
"""

from __future__ import annotations

import json
import time

# (module, function, span name); expand_supertile is named by dimension
TARGETS = (
    ("dsl", "parse_rule", "dsl.parse_rule"),
    ("core", "validate_rule", "core.validate_rule"),
    ("core", "resolve_level", "core.resolve_level"),
    ("core", "level_sizes", "core.level_sizes"),
    ("transition", "transition_matrix", "transition.transition_matrix"),
    ("transition", "step_matrix", "transition.step_matrix"),
    ("transition", "compose", "transition.compose"),
    ("transition", "volumes", "transition.volumes"),
    ("analysis", "frequency_hull", "analysis.frequency_hull"),
    ("analysis", "ergodicity_report", "analysis.ergodicity_report"),
    ("analysis", "primitivity_check", "analysis.primitivity_check"),
    ("analysis", "van_hove_diagnostic", "analysis.van_hove"),
    ("analysis", "_boundary_band_2d", "analysis.van_hove.band"),
    ("analysis", "word_count", "analysis.word_count"),
    ("analysis", "patch_frequency_estimate", "analysis.patch_frequency_estimate"),
    ("analysis", "patch_universality", "analysis.patch_universality"),
    ("expand", "expand_supertile", None),
    ("expand", "_paint_cells", "expand.expand_2d.paint"),
    ("expand", "_check_connected", "expand.expand_2d.connect"),
    ("expand", "occurrences_2d", "expand.occurrences_2d"),
    ("expand", "render_svg", "expand.render"),
    ("expand", "render_text", "expand.render"),
    ("expand", "is_admissible", "expand.is_admissible"),
    ("expand", "prefix_suffix", "expand.prefix_suffix"),
    ("expand", "_prefix_labels", "expand.prefix_suffix"),
    ("expand", "_suffix_labels", "expand.prefix_suffix"),
    ("expand", "tile_count", "expand.counts"),
    ("expand", "cell_count", "expand.counts"),
    ("cli", "main", "cli.main"),
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "dsl.parse_rule.self_s": "dsl.parse_rule",
    "core.validate_rule.self_s": "core.validate_rule",
    "core.resolve_level.self_s": "core.resolve_level",
    "core.level_sizes.self_s": "core.level_sizes",
    "transition.transition_matrix.self_s": "transition.transition_matrix",
    "transition.step_matrix.self_s": "transition.step_matrix",
    "transition.compose.self_s": "transition.compose",
    "transition.volumes.self_s": "transition.volumes",
    "analysis.frequency_hull.self_s": "analysis.frequency_hull",
    "analysis.ergodicity_report.self_s": "analysis.ergodicity_report",
    "analysis.primitivity_check.self_s": "analysis.primitivity_check",
    "expand.expand_2d.walk_s": "expand.expand_2d",
    "expand.expand_2d.paint_s": "expand.expand_2d.paint",
    "expand.expand_2d.connect_s": "expand.expand_2d.connect",
    "analysis.van_hove.self_s": "analysis.van_hove",
    "analysis.van_hove.band_s": "analysis.van_hove.band",
    "expand.occurrences_2d.self_s": "expand.occurrences_2d",
    "expand.render.self_s": "expand.render",
    "expand.expand_1d.self_s": "expand.expand_1d",
    "expand.is_admissible.self_s": "expand.is_admissible",
    "expand.prefix_suffix.self_s": "expand.prefix_suffix",
    "expand.counts.self_s": "expand.counts",
    "analysis.word_count.self_s": "analysis.word_count",
    "analysis.patch_frequency_estimate.self_s": "analysis.patch_frequency_estimate",
    "analysis.patch_universality.self_s": "analysis.patch_universality",
    "cli.main.self_s": "cli.main",
}


def lru_functions(modules) -> list:
    """Every functools.lru_cache function the modules hold, once each."""
    seen = {}
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Records a span per wrapped call and sums self time per span name."""

    def __init__(self, modules, skip=()):
        self.spans: list = []  # (name, parent index, start, end)
        self.stack: list = []  # open frames: [span index, name, child time, child names]
        self.self_s: dict[str, float] = {}
        self.counts = {
            "expand.expand_2d.cells": 0,
            "expand.expand_1d.cells": 0,
            "transition.compose.calls": 0,
            "transition.max_entry_bits": 0,
            "analysis.word_count.calls": 0,
            "analysis.word_count.expanding_calls": 0,
        }
        self.modules = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for home, attr, name in TARGETS:
            module = self.modules.get(home)
            if module is None or (home, attr) in skip or not hasattr(module, attr):
                continue
            self._wrap(module, attr, name)

    def _wrap(self, home, attr, name):
        original = getattr(home, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = name or (
                "expand.expand_2d" if args[0].dimension == 2 else "expand.expand_1d"
            )
            saved = home.__dict__[attr]
            home.__dict__[attr] = original
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [index, span, 0.0, set()]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                home.__dict__[attr] = saved
                tracer.stack.pop()
                tracer._close(frame, parent, start, end)
            tracer._observe(span, frame, result)
            return result

        for module in self.modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def _close(self, frame, parent, start, end):
        index, span, child_time, _ = frame
        self.spans[index] = (span, parent, start, end)
        self.self_s[span] = self.self_s.get(span, 0.0) + (end - start) - child_time
        if self.stack:
            self.stack[-1][2] += end - start
            self.stack[-1][3].add(span)

    def _observe(self, span, frame, result):
        c = self.counts
        if span in ("expand.expand_2d", "expand.expand_1d"):
            c[span + ".cells"] += result.cell_count()
        elif span == "transition.compose":
            c["transition.compose.calls"] += 1
        elif span == "transition.transition_matrix":
            bits = max((abs(e).bit_length() for row in result.entries for e in row), default=0)
            c["transition.max_entry_bits"] = max(c["transition.max_entry_bits"], bits)
        elif span == "analysis.word_count":
            c["analysis.word_count.calls"] += 1
            if "expand.expand_1d" in frame[3]:
                c["analysis.word_count.expanding_calls"] += 1

    def totals(self, caches) -> dict:
        """Additive per-layer totals of this process; caches are the bare
        lru_cache functions, read through cache_info()."""
        out = {metric: self.self_s.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update(self.counts)
        infos = {f.__qualname__: f.cache_info() for f in caches}
        level = infos.get("resolve_level")
        out["core.resolve_level.hits"] = level.hits if level else 0
        out["core.resolve_level.misses"] = level.misses if level else 0
        out["cache.entries"] = sum(i.currsize for i in infos.values())
        out["cache.hits"] = sum(i.hits for i in infos.values())
        out["cache.lookups"] = out["cache.hits"] + sum(i.misses for i in infos.values())
        out["trace.self_sum_s"] = sum(self.self_s.values())
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([list(s) for s in self.spans if s is not None], f)


def combine(totals: list) -> dict:
    """Per-layer metrics of one pass from the totals of its sessions."""
    out = {k: sum(t[k] for t in totals) for k in totals[0]}
    out["transition.max_entry_bits"] = max(t["transition.max_entry_bits"] for t in totals)
    calls = out["analysis.word_count.calls"]
    out["analysis.word_count.junction_ratio"] = (
        (calls - out["analysis.word_count.expanding_calls"]) / calls if calls else 0.0
    )
    hits, lookups = out.pop("cache.hits"), out.pop("cache.lookups")
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out
