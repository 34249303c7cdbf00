"""Spans recorded from outside kdfree.

While a `Tracer` is installed, the public functions of kdfree's layers are
replaced, wherever a kdfree module holds a reference to them, by wrappers that
record (name, start, end, parent).  `uninstall` puts the originals back, so
an untraced round runs kdfree exactly as imported.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import kdfree.bounds as bounds
import kdfree.graphs as graphs
import kdfree.intervals as intervals
import kdfree.lp as lp
import kdfree.pipeline as pipeline
import kdfree.sampling as sampling
import kdfree.structure as structure

# (module, attribute) -> span name; every kdfree module binding the same
# function object is patched, so calls between layers are seen too.
FUNCTIONS = [
    (graphs, "clique_structure"),
    (lp, "chi_f"),
    (lp, "chi_f_weighted"),
    (lp, "max_weight_stable_set"),
    (intervals, "verify_certificate"),
    (intervals, "hall_extend"),
    (sampling, "estimate"),
    (pipeline, "end_to_end"),
    (pipeline, "initial_colouring"),
    (structure, "pipeline_eligibility"),
    (structure, "find_bump"),
    (structure, "find_near_clique"),
    (bounds, "main_bound"),
]
SAMPLER_METHODS = ["pool", "extend", "enumerate_exact"]
BENCH_SPANS = ("round", "op")  # the benchmark's own spans; the rest are kdfree layers


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, int] = {}  # span -> count read from its result
        self.samplers: list = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # ── recording ─────────────────────────────────────────────────────────

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note is not None:
                self.notes[i] = note(out)
            return out

        return traced

    # ── patching ──────────────────────────────────────────────────────────

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "kdfree" or k.startswith("kdfree.")]
        notes = {
            "chi_f_weighted": lambda r: r.columns_generated,
            "initial_colouring": lambda r: len(r[0].iterations),
        }
        for home, attr in FUNCTIONS:
            original = getattr(home, attr)
            traced = self._wrap(f"{home.__name__.split('.')[-1]}.{attr}", original, notes.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, value))
                        setattr(m, key, traced)
        cls = sampling.StableSetSampler
        for attr in SAMPLER_METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"sampling.{attr}", original))
        init = cls.__dict__["__init__"]
        self._saved.append((cls, "__init__", init))

        def captured_init(sampler, *args, **kwargs):
            init(sampler, *args, **kwargs)
            self.samplers.append(sampler)

        cls.__init__ = captured_init

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ── analysis ──────────────────────────────────────────────────────────

    def _durations(self, first: int, last: int):
        """Duration, self time and child-span names of spans first..last-1."""
        dur = {i: self.ends[i] - self.starts[i] for i in range(first, last)}
        own = dict(dur)
        kids: dict[int, set[str]] = {}
        for i in dur:
            p = self.parents[i]
            if p in own:
                own[p] -= dur[i]
                kids.setdefault(p, set()).add(self.names[i])
        return dur, own, kids

    def layer_metrics(self, first: int, last: int, rounds: int) -> dict[str, float]:
        """Per-round layer figures from spans first..last-1."""
        names, parents = self.names, self.parents
        dur, own, kids = self._durations(first, last)
        by_name: dict[str, list[int]] = {}
        for i in dur:
            by_name.setdefault(names[i], []).append(i)

        def spans(name, parent=None):
            return [
                i for i in by_name.get(name, ())
                if parent is None or (parents[i] >= 0 and names[parents[i]] == parent)
            ]

        def total(ids, table=dur):
            return sum(table[i] for i in ids) / rounds

        def count(ids):
            return len(ids) / rounds

        cfw = spans("lp.chi_f_weighted")
        pools = spans("sampling.pool")
        solved = [i for i in pools if "lp.chi_f_weighted" in kids.get(i, ())]
        enum = spans("sampling.enumerate_exact")
        m = {
            "graphs.clique_structure_s": total(spans("graphs.clique_structure")),
            "graphs.clique_structure_calls": count(spans("graphs.clique_structure")),
            "lp.solve_s": total(cfw),
            "lp.solves": count(cfw),
            "lp.rounds": count(spans("lp.max_weight_stable_set", "lp.chi_f_weighted")),
            "lp.columns": sum(self.notes.get(i, 0) for i in cfw) / rounds,
            "lp.simplex_s": total(cfw, own),
            "lp.pricing_s": total(spans("lp.max_weight_stable_set", "lp.chi_f_weighted")),
            "lp.certify_s": total(spans("intervals.verify_certificate", "lp.chi_f_weighted")),
            "sampling.pool_calls": count(pools),
            "sampling.pool_solves": count(solved),
            "sampling.pool_hit_ratio": (len(pools) - len(solved)) / len(pools) if pools else 0.0,
            "sampling.pool_hit_base": count(pools),
            "sampling.pool_solve_s": total(solved),
            "sampling.extend_s": total(spans("sampling.extend")),
            "sampling.extend_calls": count(spans("sampling.extend")),
            "sampling.enumerate_exact_s": total(enum),
            "sampling.enumerate_self_s": total(enum, own),
            "pipeline.end_to_end_s": total(spans("pipeline.end_to_end")),
            "pipeline.initial_colouring_s": total(spans("pipeline.initial_colouring")),
            "pipeline.iterations": sum(self.notes.get(i, 0) for i in spans("pipeline.initial_colouring")) / rounds,
            "pipeline.finish_lp_s": total(spans("lp.chi_f_weighted", "pipeline.end_to_end")),
            "intervals.verify_certificate_s": total(spans("intervals.verify_certificate")),
            "intervals.verify_certificate_calls": count(spans("intervals.verify_certificate")),
            "intervals.hall_extend_s": total(spans("intervals.hall_extend")),
            "intervals.hall_extend_calls": count(spans("intervals.hall_extend")),
            "structure.eligibility_s": total(spans("structure.pipeline_eligibility")),
            "structure.near_clique_s": total(spans("structure.find_near_clique")),
            "bounds.main_bound_s": total(spans("bounds.main_bound")),
            "bounds.main_bound_calls": count(spans("bounds.main_bound")),
        }
        layer_self = sum(own[i] for i in dur if names[i] not in BENCH_SPANS)
        m["trace.layer_self_s"] = layer_self / rounds
        m["trace.spans"] = len(dur) / rounds
        return m

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Total self time per span name."""
        _, own, _ = self._durations(first, last)
        out: dict[str, float] = {}
        for i, t in own.items():
            out[self.names[i]] = out.get(self.names[i], 0.0) + t
        return out

    def write(self, path: str, extra: dict) -> None:
        index = {name: k for k, name in enumerate(dict.fromkeys(self.names))}
        payload = {
            **extra,
            "names": list(index),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], round(s, 7), round(e, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
