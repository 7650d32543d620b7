"""Outside-in tracer: spans and counters recorded by wrapping, from the
benchmark's side, the module attributes through which one polyfactor layer
calls the next.  Nothing in the package is edited; the wrappers exist only
while a traced pass runs.

A span has a name, start, end, parent span and operation id.  Spans are kept
in compact in-memory columns and written out once, when the run ends.  A
layer's self time is its spans' durations minus the time of wrapped child
spans.
"""

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

import polyfactor.basefactor as basefactor
import polyfactor.divisibility as divisibility
import polyfactor.engine as engine
import polyfactor.isolation as isolation
import polyfactor.oracles as oracles
from polyfactor.dense import DensePoly3
from polyfactor.factors import FactorList
from polyfactor.sparse import SparsePoly


class HookMissing(RuntimeError):
    """A hooked attribute no longer exists: the layer map is out of date."""


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # open spans: [index, child time]
        self.self_s = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self.op = -1
        self.pending_entry = None
        self._restore = []

    # -- spans -----------------------------------------------------------

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append([index, 0.0])
        self.span_start.append(perf_counter())
        return index

    def close(self):
        end = perf_counter()
        index, child = self.stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def call(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- hooks -----------------------------------------------------------

    def _replace(self, owner, attr, make):
        if not hasattr(owner, attr):
            raise HookMissing(
                "%s.%s is gone; update the hook table in perfbench/tracer.py"
                % (getattr(owner, "__name__", owner), attr)
            )
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr, name, ok=None):
        """Span around every call; ok(result) counts the useful outcomes."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close()
                if ok is not None and ok(result):
                    tracer.counters[name + ".ok"] += 1
                return result

            return wrapper

        self._replace(owner, attr, make)

    def _count(self, owner, attr, counter):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer.counters[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def install(self):
        """Wrap every layer boundary; raise HookMissing if one is gone."""
        tracer = self
        self._count(engine, "monicize", "engine.monicize.calls")
        self._count(engine, "projected_factoring", "engine.ladder_rungs")
        # a module that imported a layer's function by name calls it through
        # its own global, so each such import is hooked under one span name
        self._span(engine, "find_nonzero_point", "pit.find_nonzero_point")
        self._span(divisibility, "find_nonzero_point", "pit.find_nonzero_point")
        # interpolation and inversion signal failure by raising
        self._span(engine, "sparse_interpolate", "pit.sparse_interpolate",
                   ok=lambda r: True)
        self._span(engine, "psi_map", "isolation.psi_map")
        self._span(isolation, "psi_map", "isolation.psi_map")  # from psi_invert
        self._span(engine, "psi_invert", "isolation.psi_invert", ok=lambda r: True)
        self._span(engine, "to_dense", "dense")
        self._span(DensePoly3, "to_sparse", "dense")
        self._span(DensePoly3, "true_degrees", "dense")
        self._span(engine, "constant_degree_divides", "divisibility.divides",
                   ok=lambda r: r is True)
        self._span(basefactor, "_factor_univariate_pairs", "basefactor.univariate")
        self._span(basefactor, "factor_lowvar", "basefactor.lowvar")
        self._span(oracles, "su_decide_irreducible", "oracles.decide_irreducible")
        self._span(SparsePoly, "substitute", "sparse.substitute")
        self._span(SparsePoly, "exact_divide", "sparse.exact_divide",
                   ok=lambda r: r is not None)
        self._span(SparsePoly, "integer_root", "sparse.integer_root")
        self._span(FactorList, "recompose", "factors.recompose")

        # The public factor_monic (engine -> basefactor) and the recursive
        # _factor_monic_sparse share one span name per variable count; the
        # entry's own call into _factor_monic_sparse is not counted twice.
        def make_entry(original):
            def entry(f, *args, **kwargs):
                tracer.pending_entry = f
                try:
                    return tracer.call(
                        "basefactor.factor_monic.n%d" % f.n, original, f, *args, **kwargs
                    )
                finally:
                    tracer.pending_entry = None

            return entry

        def make_inner(original):
            def inner(f, *args, **kwargs):
                if tracer.pending_entry is f:
                    tracer.pending_entry = None
                    return original(f, *args, **kwargs)
                if f.n < 2:  # delegates straight to the univariate span
                    return original(f, *args, **kwargs)
                return tracer.call(
                    "basefactor.factor_monic.n%d" % f.n, original, f, *args, **kwargs
                )

            return inner

        self._replace(engine, "factor_monic", make_entry)
        self._replace(basefactor, "_factor_monic_sparse", make_inner)

        def make_pairs(original):
            def pairs(oracle, alpha):
                for pair in original(oracle, alpha):
                    tracer.counters["oracles.pairs"] += 1
                    yield pair

            return pairs

        self._replace(oracles.IrredProjOracle, "pairs", make_pairs)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self, factors_emitted):
        """Per-layer metrics, named as in BENCHMARK.json."""
        c, s, k = self.calls, self.self_s, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "parse.self_s": (s["parse"], "s"),
            "engine.self_s": (s["engine"], "s"),
            "engine.monicize.calls": (k["engine.monicize.calls"], "count"),
            "engine.ladder_rungs": (k["engine.ladder_rungs"], "count"),
            "dense.self_s": (s["dense"], "s"),
            "pit.find_nonzero_point.self_s": (s["pit.find_nonzero_point"], "s"),
            "oracles.pairs": (k["oracles.pairs"], "count"),
            "oracles.pairs_per_factor": (ratio(k["oracles.pairs"], factors_emitted), "ratio"),
            "oracles.decide_irreducible.self_s": (s["oracles.decide_irreducible"], "s"),
        }
        for name in (
            "isolation.psi_map",
            "basefactor.factor_monic.n2",
            "basefactor.factor_monic.n3",
            "basefactor.univariate",
            "basefactor.lowvar",
            "sparse.substitute",
            "sparse.integer_root",
            "factors.recompose",
        ):
            out[name + ".calls"] = (c[name], "count")
            out[name + ".self_s"] = (s[name], "s")
        for name, ratio_name in (
            ("isolation.psi_invert", "ok_ratio"),
            ("pit.sparse_interpolate", "ok_ratio"),
            ("divisibility.divides", "true_ratio"),
            ("sparse.exact_divide", "ok_ratio"),
        ):
            out[name + ".calls"] = (c[name], "count")
            out[name + ".self_s"] = (s[name], "s")
            out[name + "." + ratio_name] = (ratio(k[name + ".ok"], c[name]), "ratio")
        return out

    def write(self, path):
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.span_name[i]],
                            "op": self.span_op[i],
                            "parent": self.span_parent[i],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                        }
                    )
                    + "\n"
                )
