"""In-memory spans around the public entry points of coxkl.

The tracer wraps each entry point at the place where its caller looks it
up (a module attribute or a class attribute), so internal calls inside a
layer stay untraced and count toward that layer's self time.  Spans are
kept in a list and written out only when the run ends.
"""
from __future__ import annotations

import json
import os
from time import perf_counter

import coxkl.blocks
import coxkl.cli
import coxkl.lefschetz
from coxkl import CoxeterSystem, HeckeAlgebra

# Per-layer time metric -> the span names whose self time it sums.
LAYER_TIMES = {
    "coxeter.from_type_s": ("coxeter.from_type",),
    "coxeter.make_block_s": ("coxeter.make_block",),
    "hecke.kl_table_s": ("hecke.kl_table",),
    "hecke.load_cache_s": ("hecke.load_cache",),
    "hecke.save_cache_s": ("hecke.save_cache",),
    "blocks.andersen_table_s": ("blocks.andersen_table",),
    "blocks.equivariant_s": ("blocks.equivariant",),
    "lefschetz.audit_s": ("lefschetz.audit", "lefschetz.local", "lefschetz.ih"),
    "cli.self_s": ("cli.main",),
}
COUNTS = ("hecke.kl_computed", "blocks.cells", "lefschetz.pairs", "lefschetz.ih")


# Each algebra in the workloads either fills its table through kl_table()
# or, in the CLI, is saved once after the command has computed everything
# it needed; either way its counter is complete when the hook runs.
def _count_computed(tr, args, result):
    tr.counts["hecke.kl_computed"] += args[0].computed_count


def _count_save(tr, args, result):
    _count_computed(tr, args, result)
    tr.cache_bytes = os.path.getsize(args[1])


def _count_load(tr, args, result):
    tr.loads_attempted += 1
    tr.loads_accepted += bool(result)


def _count_table(tr, args, result):
    tr.counts["blocks.cells"] += len(result.cells)


def _count_audit(tr, args, result):
    tr.counts["lefschetz.pairs"] += len(result.reports)
    tr.counts["lefschetz.ih"] += len(result.ih_reports)


def _count_local(tr, args, result):
    tr.counts["lefschetz.pairs"] += 1


def _count_ih(tr, args, result):
    tr.counts["lefschetz.ih"] += 1


# (owner, attribute, span name, count hook).  The benchmark calls blocks,
# lefschetz and cli through their module attributes; the CLI looks its
# helpers up in its own module namespace.
PATCH_POINTS = (
    (CoxeterSystem, "from_type", "coxeter.from_type", None),
    (HeckeAlgebra, "kl_table", "hecke.kl_table", _count_computed),
    (HeckeAlgebra, "load_cache", "hecke.load_cache", _count_load),
    (HeckeAlgebra, "save_cache", "hecke.save_cache", _count_save),
    (coxkl.blocks, "make_block", "coxeter.make_block", None),
    (coxkl.blocks, "andersen_table", "blocks.andersen_table", _count_table),
    (coxkl.blocks, "equivariant_hom_series", "blocks.equivariant", None),
    (coxkl.lefschetz, "lefschetz_audit", "lefschetz.audit", _count_audit),
    (coxkl.cli, "main", "cli.main", None),
    (coxkl.cli, "make_block", "coxeter.make_block", None),
    (coxkl.cli, "andersen_table", "blocks.andersen_table", _count_table),
    (coxkl.cli, "equivariant_hom_series", "blocks.equivariant", None),
    (coxkl.cli, "local_lefschetz_poly", "lefschetz.local", _count_local),
    (coxkl.cli, "ih_poincare", "lefschetz.ih", _count_ih),
)


class Tracer:
    """Records [name, start, end, parent index] for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.loads_attempted = 0
        self.loads_accepted = 0
        self.cache_bytes = 0

    def _wrap(self, name, fn, count):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if count:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in PATCH_POINTS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, self._wrap(name, raw, count))

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time of direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Self times and counts per round, the spans holding ``rounds`` equal rounds."""
        by_name = self.self_times()
        out = {m: sum(by_name.get(n, 0.0) for n in names) / rounds for m, names in LAYER_TIMES.items()}
        out.update((name, n / rounds) for name, n in self.counts.items())
        out["hecke.cache_accepted"] = (
            self.loads_accepted / self.loads_attempted if self.loads_attempted else 0.0
        )
        out["hecke.cache_bytes"] = self.cache_bytes
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
