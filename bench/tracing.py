"""Spans around the calls into each cycaut layer, recorded from outside.

The tracer replaces public functions, constructors and methods of the
cycaut modules with wrappers that record a span per call: name, start,
end, parent span and the item (claim, query or value of n) being
worked on.  Spans stay in memory until `write` is called once at the
end of a run; the per-layer table is derived from them afterwards.

Nothing inside the program is instrumented: chain-internal counts
(sifts, Schreier generators, orbit sizes) are not visible from here.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute path).  A path naming a class wraps its
# constructor; "Permutation.__mul__" is reported as Permutation.mul.
LAYERS = [
    ("cli.main", "cli", "main"),
    ("manifest.load_manifest", "manifest", "load_manifest"),
    ("manifest.expand_constructions", "manifest", "expand_constructions"),
    ("manifest.run_entry", "manifest", "run_entry"),
    ("construct.multiplier_subgroup", "construct", "multiplier_subgroup"),
    ("construct.block_row_generators", "construct", "block_row_generators"),
    ("construct.lifted_column_perm", "construct", "lifted_column_perm"),
    ("verify.verify_claim", "verify", "verify_claim"),
    ("verify.is_automorphism", "verify", "is_automorphism"),
    ("verify.brute_force_aut", "verify", "brute_force_aut"),
    ("verify.sample_outside", "verify", "sample_outside"),
    ("group.PermGroup", "group", "PermGroup"),
    ("group.PermGroup.contains", "group", "PermGroup.contains"),
    ("group.PermGroup.random_element", "group", "PermGroup.random_element"),
    ("group.filter_generators", "group", "filter_generators"),
    ("perm.Permutation", "perm", "Permutation"),
    ("perm.Permutation.mul", "perm", "Permutation.__mul__"),
    ("perm.parse_cycles", "perm", "parse_cycles"),
    ("code.CyclicCode", "code", "CyclicCode"),
    ("gf2poly.factor_xn_minus_1", "gf2poly", "factor_xn_minus_1"),
    ("gf2poly.parse_poly_product", "gf2poly", "parse_poly_product"),
]

# Layers whose boolean result is counted, reported as <layer>.true_ratio.
TRUE_RATIO = ("group.PermGroup.contains", "verify.is_automorphism")

SETUP_PASS = -1  # pass index that marks spans recorded during set-up


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.append(("group.base_len", "count", "lower"))
    out += [(f"{name}.true_ratio", "ratio", "higher") for name in TRUE_RATIO]
    out.append(("group.filter_generators.kept_ratio", "ratio", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Span recorder that wraps the layers of one imported cycaut."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.item: tuple[int, int] = (SETUP_PASS, 0)  # (pass, item in pass)
        self.true_counts: dict[str, int] = defaultdict(int)
        self.offered = 0  # permutations passed to filter_generators
        self.kept = 0  # permutations it kept
        self.base_len = 0  # longest base of any group built
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, mods: dict) -> None:
        """Wrap every layer in `mods` (module name -> module object).

        A module-level function is replaced in every cycaut module that
        imported it by name, so calls through any alias are recorded.
        """
        for name, module, path in LAYERS:
            owner = mods[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            target = getattr(owner, parts[-1])
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(name, target.__init__))
            elif len(parts) > 1:
                wrapped = self._wrap(name, target)
                self._patch(owner, parts[-1], wrapped)
                if name == "group.PermGroup.contains" and owner.__contains__ is target:
                    self._patch(owner, "__contains__", wrapped)
            else:
                wrapped = self._wrap(name, target)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_true = name in TRUE_RATIO
        filtering = name == "group.filter_generators"
        building = name == "group.PermGroup"

        def traced(*args, **kwargs):
            if filtering:
                args = (list(args[0]),) + args[1:]
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if counts_true and result:
                self.true_counts[name] += 1
            elif filtering:
                self.offered += len(args[0])
                self.kept += len(result)
            elif building:  # args[0] is the group just built
                self.base_len = max(self.base_len, len(args[0].base_points()))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived table ------------------------------------------------

    def per_layer(self, passes: int) -> dict[str, float]:
        """Calls and self time per layer for one set-up plus one pass.

        Spans recorded during the traced set-up count once; spans of the
        traced passes are averaged over `passes`.  Self time is a span's
        duration minus the durations of its direct children, which are
        disjoint because calls nest on one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        raw_calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, item) in enumerate(self.spans):
            weight = 1.0 if item[0] == SETUP_PASS else 1.0 / passes
            calls[name] += weight
            self_s[name] += (end - start - child[i]) * weight
            raw_calls[name] += 1
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["group.base_len"] = self.base_len
        for name in TRUE_RATIO:
            n = raw_calls[name]
            out[f"{name}.true_ratio"] = self.true_counts[name] / n if n else 0.0
        out["group.filter_generators.kept_ratio"] = self.kept / self.offered if self.offered else 0.0
        return out

    def write(self, path) -> None:
        """Write every span once, times in seconds from tracer creation."""
        rows = [
            [name, start - self.t0, end - self.t0, parent, f"{item[0]}.{item[1]}"]
            for name, start, end, parent, item in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"], "spans": rows}, fh)
