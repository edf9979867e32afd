"""Spans around calls into multiforge's public functions, recorded from the
benchmark's side: the program itself is not edited.

A traced child process installs a `Tracer`, which replaces each function
listed in `WRAPPED` by a wrapper in every loaded multiforge module that
holds a reference to it (so `from .x import f` call sites are covered).
Spans are kept in memory and written once, when the child ends.  run.py
turns the span records of each operation into per-layer metrics
with `layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def _total_cells(x) -> int:
    return sum(len(cells) for cells in x.cells.values())


def _json_mib(args, result) -> float:
    text = result if isinstance(result, str) else args[0]
    return len(text) / 2**20


# (module, function, counters derived from (args, result)).  The layer of a
# span is the module's short name; only the listed functions are wrapped.
WRAPPED: list[tuple[str, str, dict]] = [
    ("cli", "cmd_random", {}),
    ("cli", "cmd_build", {}),
    ("cli", "cmd_analyze", {}),
    ("cli", "cmd_lcc", {}),
    ("cli", "cmd_spectra", {}),
    ("permrep", "random_rep_retry", {}),
    ("permrep", "random_rep", {}),
    ("permrep", "format_rep", {}),
    ("permrep", "parse_rep", {}),
    ("permrep", "validate", {}),
    ("quotient", "build_quotient",
     {"quotient.cells": lambda a, r: _total_cells(r.complex)}),
    ("quotient", "complex_is_simplicial", {}),
    ("quotient", "complex_is_upper_regular", {}),
    ("quotient", "complex_has_complete_skeleton", {}),
    ("quotient", "quotient_map", {}),
    ("complexes", "to_json", {"complexes.json_mb": _json_mib}),
    ("complexes", "from_json", {"complexes.json_mb": _json_mib}),
    ("complexes", "validate_structure", {}),
    ("complexes", "is_link_connected", {}),
    ("complexes", "is_lower_path_connected", {}),
    ("complexes", "find_isomorphism", {}),
    ("universal", "build_ball", {"universal.tops": lambda a, r: len(r.cell_words)}),
    ("universal", "ball_from_cosets", {"universal.tops": lambda a, r: len(r.cell_words)}),
    ("lcc", "link_connected_cover",
     {"lcc.splits": lambda a, r: _total_cells(r[0]) - _total_cells(a[0])}),
    ("lcc", "verify_universality", {}),
    ("spectral", "boundary_matrix",
     {"spectral.dense_mb": lambda a, r: r.matrix.nbytes / 2**20}),
    ("spectral", "up_laplacian", {
        "spectral.forms": lambda a, r: r.shape[0],
        "spectral.dense_mb": lambda a, r: r.nbytes / 2**20,
    }),
    ("spectral", "coboundary_rank", {}),
    ("spectral", "spectral_gap", {}),
]

# The word functions `universal` calls, wrapped only in `universal`'s
# namespace.  The generator `enumerate_reduced_words` is left unwrapped: a
# span around a generator would close before its items are produced.
WORD_FUNCTIONS = ["generator", "multiply", "reduce_word", "strip_left", "word_length"]

# Per-layer metric -> the span names whose inclusive times it sums.
TIMED: dict[str, list[str]] = {
    "permrep.random_rep_retry_s": ["permrep.random_rep_retry"],
    "permrep.format_rep_s": ["permrep.format_rep"],
    "permrep.parse_rep_s": ["permrep.parse_rep"],
    "permrep.validate_s": ["permrep.validate"],
    "quotient.build_quotient_s": ["quotient.build_quotient"],
    "quotient.predicates_s": [
        "quotient.complex_is_simplicial",
        "quotient.complex_is_upper_regular",
        "quotient.complex_has_complete_skeleton",
    ],
    "quotient.quotient_map_s": ["quotient.quotient_map"],
    "complexes.to_json_s": ["complexes.to_json"],
    "complexes.from_json_s": ["complexes.from_json"],
    "complexes.validate_structure_s": ["complexes.validate_structure"],
    "complexes.is_link_connected_s": ["complexes.is_link_connected"],
    "complexes.is_lower_path_connected_s": ["complexes.is_lower_path_connected"],
    "complexes.find_isomorphism_s": ["complexes.find_isomorphism"],
    "universal.build_ball_s": ["universal.build_ball"],
    "universal.ball_from_cosets_s": ["universal.ball_from_cosets"],
    "lcc.cover_s": ["lcc.link_connected_cover"],
    "lcc.verify_universality_s": ["lcc.verify_universality"],
    "spectral.boundary_matrix_s": ["spectral.boundary_matrix"],
    "spectral.coboundary_rank_s": ["spectral.coboundary_rank"],
    "spectral.spectral_gap_s": ["spectral.spectral_gap"],
}
LAYERS = ["cli", "permrep", "quotient", "complexes", "universal", "words", "lcc", "spectral"]


class Tracer:
    """Records one span per outermost call of each wrapped function while
    `enabled` is true.  A span is [name, parent span index, start, end];
    all spans of one child belong to the operation id given to `dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, fn, name: str, counters: dict):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or name in tracer._open:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, parent, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            tracer._open.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
                tracer._open.discard(name)
            for key, count in counters.items():
                tracer.counts[key] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of WRAPPED and WORD_FUNCTIONS.  Call after
        `multiforge.cli` is imported, so every module holding a reference
        is loaded.  A function the program no longer has is skipped, and
        its metrics read 0."""
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("multiforge")]
        for short, fname, counters in WRAPPED:
            orig = getattr(sys.modules.get(f"multiforge.{short}"), fname, None)
            if orig is None:
                continue
            traced = self.wrap(orig, f"{short}.{fname}", counters)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
        universal = sys.modules.get("multiforge.universal")
        for fname in WORD_FUNCTIONS:
            if hasattr(universal, fname):
                setattr(universal, fname,
                        self.wrap(getattr(universal, fname), f"words.{fname}", {}))

    def dump(self, path: str, op: int, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op, "spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def op_totals(records: list[dict]) -> dict[str, float]:
    """Per-layer totals of one operation from the span records of its
    child processes: inclusive time per TIMED metric, self time per layer,
    counts, and the number of word-function calls and sampler draws."""
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_time: dict[str, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, parent, start, end), child_time in zip(spans, covered):
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child_time
        for key, value in rec["counts"].items():
            out[key] += value
    for metric, names in TIMED.items():
        out[metric] = sum(inclusive[n] for n in names)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["words.calls"] = sum(c for n, c in calls.items() if n.startswith("words."))
    out["spectral.boundary_matrix_calls"] = calls["spectral.boundary_matrix"]
    retries = calls["permrep.random_rep_retry"]
    out["permrep.draws_per_rep"] = calls["permrep.random_rep"] / retries if retries else 0.0
    out["trace.spans"] = sum(calls.values())
    return dict(out)


def layer_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced operations of each per-operation total."""
    keys = sorted({k for totals in per_op for k in totals})
    return {k: statistics.median(t.get(k, 0.0) for t in per_op) for k in keys}
