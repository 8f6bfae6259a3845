"""Layer spans and counters for the traced run, recorded from outside the
program.

`Tracer.install()` replaces public functions and methods of the dendrokit
layers with timing wrappers.  A function that other modules imported by
name (``from .trees import automorphisms``) is replaced in every dendrokit
module that holds it, so calls made from inside another layer are seen too.
Nested calls become child spans; a span's self time is its duration minus
the time its child spans cover.  Everything stays in memory until
`summary()` is called when the round ends.
"""

import itertools
import json
import sys
import threading
import time
import weakref
from contextlib import contextmanager

PER_CALL = {"morphisms.factorize", "cli.command"}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.agg = None


class NullTracer:
    """Stands in for `Tracer` in untraced rounds: spans cost one call."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._aggs = []  # one dict per thread: name -> [calls, total, self]
        self._per_call = {name: [] for name in PER_CALL}
        self._counters = {}
        self._ticks = {}  # name -> itertools.count, for wrappers that only count
        self._restore = []
        self._nerve_held = weakref.WeakKeyDictionary()
        self.root_s = 0.0
        self.missing = []  # entry points this version of the program lacks

    # -- recording ------------------------------------------------------------

    def _agg(self):
        st = self._state
        if st.agg is None:
            st.agg = {}
            with self._lock:
                self._aggs.append(st.agg)
        return st.agg

    def _enter(self):
        st = self._state
        st.stack.append(0.0)  # child time covered so far
        return time.perf_counter()

    def _exit(self, name, start):
        dur = time.perf_counter() - start
        st = self._state
        child = st.stack.pop()
        if st.stack:
            st.stack[-1] += dur
        elif threading.current_thread() is threading.main_thread():
            self.root_s += dur
        rec = self._agg().setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if name in self._per_call:
            self._per_call[name].append(dur)

    @contextmanager
    def span(self, name):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def count(self, name, n=1):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def peak(self, name, n):
        with self._lock:
            self._counters[name] = max(self._counters.get(name, 0), n)

    # -- wrappers -----------------------------------------------------------------

    def timed(self, name, after=None, before=None):
        """Wrapper factory: a span around each call; `before(args)` runs
        first and its result is passed to `after(result, args, token)`,
        both outside the span."""

        def factory(orig):
            def wrapper(*args, **kwargs):
                token = before(args) if before else None
                start = self._enter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._exit(name, start)
                if after:
                    after(result, args, token)
                return result

            return wrapper

        return factory

    def counted(self, name):
        """Wrapper factory for hot calls: a call count and no span."""
        tick = self._ticks.setdefault(name, itertools.count())

        def factory(orig):
            def wrapper(*args, **kwargs):
                next(tick)
                return orig(*args, **kwargs)

            return wrapper

        return factory

    def _patch_function(self, module, name, factory):
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapped = factory(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dendrokit" and not mod_name.startswith("dendrokit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))

    def _patch_method(self, cls, name, factory):
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        if isinstance(orig, classmethod):
            setattr(cls, name, classmethod(factory(orig.__func__)))
        else:
            setattr(cls, name, factory(orig))
        self._restore.append((cls, name, orig))

    def install(self):
        """Wrap the layers' public entry points; `uninstall` undoes it."""
        import dendrokit.cli as cli
        from dendrokit import dendroidal, morphisms, operads, strata, trees

        fn, meth = self._patch_function, self._patch_method

        def add_len(counter):
            return lambda result, args, token: self.count(counter, len(result))

        fn(trees, "enumerate_trees", self.timed("trees.enumerate", add_len("trees.trees_enumerated")))
        fn(trees, "enumerate_trees_by_vertices",
           self.timed("trees.enumerate", add_len("trees.trees_enumerated")))
        fn(trees, "automorphisms", self.timed("trees.automorphisms"))
        fn(trees, "aut_order", self.timed("trees.aut_order"))

        fn(morphisms, "hom_set", self.timed("morphisms.hom_set", add_len("morphisms.maps_enumerated")))

        def faces_hit(args):
            return args[0] in getattr(morphisms, "_FACES_CACHE", ())

        fn(morphisms, "elementary_faces", self.timed(
            "morphisms.elementary_faces",
            before=faces_hit,
            after=lambda result, args, hit: self.count("morphisms.faces_cache_hits", int(hit)),
        ))
        fn(morphisms, "factorize", self.timed("morphisms.factorize"))
        fn(morphisms, "subtrees", self.timed("morphisms.subtrees", add_len("morphisms.subtrees_found")))

        fn(operads, "check_operad_axioms", self.timed(
            "operads.check_axioms",
            after=lambda report, args, token: self.count("operads.axiom_instances", report.checked),
        ))
        for cls in (operads.ComOperad, operads.AssOperad, operads.EndOperad,
                    operads.TreeOperad, operads.FreeOperad, operads.TableOperad):
            meth(cls, "compose", self.timed("operads.compose"))
        meth(operads.EndOperad, "evaluate", self.counted("operads.end_evaluate_calls"))

        def values_before(args):
            nerve_set, tree = args
            cache = getattr(nerve_set, "_cache", None)
            return cache is not None and tree in cache

        def values_after(result, args, hit):
            if hit:
                return
            nerve_set, tree = args
            self.count("dendroidal.values_built", len(result))
            if tree in getattr(nerve_set, "_cache", ()):
                held = self._nerve_held.get(nerve_set, 0) + len(result)
                self._nerve_held[nerve_set] = held
                self.peak("dendroidal.nerve_cache_values", held)

        meth(dendroidal.NerveDendroidalSet, "values",
             self.timed("dendroidal.values", before=values_before, after=values_after))
        fn(dendroidal, "is_strict_segal", self.timed(
            "dendroidal.segal",
            after=lambda report, args, token: self.count("dendroidal.segal_trees_checked",
                                                         len(report.checked)),
        ))
        fn(dendroidal, "nerve_round_trip", self.timed(
            "dendroidal.round_trip",
            after=lambda witness, args, token: self.count("dendroidal.iso_instances", witness.checks),
        ))
        meth(dendroidal.ReconstructedOperad, "compose",
             self.counted("dendroidal.reconstruct_compose_calls"))
        fn(dendroidal, "materialize", self.timed("dendroidal.materialize"))
        meth(dendroidal.TableDendroidalSet, "to_json", self.timed("dendroidal.table_json"))
        meth(dendroidal.TableDendroidalSet, "from_json", self.timed("dendroidal.table_json"))

        def export_size(result, args, token):
            text = result if isinstance(result, str) else json.dumps(result)
            self.count("strata.export_bytes", len(text))

        fn(strata, "enumerate_psi", self.timed("strata.psi", add_len("strata.strata_built")))
        meth(strata.StratPoset, "covers", self.timed("strata.covers"))
        meth(strata.StratPoset, "to_json", self.timed("strata.export", export_size))
        meth(strata.StratPoset, "to_dot", self.timed("strata.export", export_size))
        meth(strata.CoboundIndex, "to_json", self.timed("strata.export", export_size))
        fn(strata, "fm_embed", self.timed(
            "strata.fm", after=lambda r, args, token: self.count("strata.fm_configurations")))
        fn(strata, "fm_selftest", self.timed("strata.fm"))

        fn(cli, "emit", self.timed("cli.emit"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive and self seconds; the counters;
        and per-call durations for the spans in PER_CALL."""
        spans = {}
        with self._lock:
            for agg in self._aggs:
                for name, (calls, total, own) in agg.items():
                    rec = spans.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += own
            counters = dict(self._counters)
        for name, tick in self._ticks.items():
            counters[name] = next(tick)
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in spans.items()},
            "counters": counters,
            "per_call_s": {k: list(v) for k, v in self._per_call.items()},
            "root_s": self.root_s,
            "missing": list(self.missing),
        }
