"""The four workloads.

Each workload has three parts, run by `worker.py` in a fresh process:

- `setup(seed)` imports the dendrokit modules it needs and builds its inputs;
  its wall time is `setup_s` (`uses_numpy` workloads import numpy first,
  outside that time);
- `solve(inputs, ops, tracer)` runs the measured operations through `ops`,
  which counts them and records those that raise; its wall time is `solve_s`;
- `check(inputs, output, seed, full)` returns the problems found in the
  output and a digest of it.  The comparisons rest on computations made here
  or in `tests/oracles.py`, never on stored output.  `full` adds the slower
  brute-force oracles; the worker passes it for the first round of a run,
  and the later rounds must produce the same digest.

Module-level code imports nothing from dendrokit, so that `setup_s`
includes the import.  Functions of the program are looked up on their
module at call time, so that the traced run sees the wrapped versions.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Seed of the FM configurations given to `fm-embed --points` and of the
#: `fm-embed --selftest` run; fixed, so the cli session is the same for
#: every --seed.
FM_SEED = 2026
#: Budget given to `psi 7 --count`, which the default budget refuses.
PSI7_BUDGET = str(10**24)


class Ops:
    """Counts attempted operations; an operation that raises is failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *label):
        """`fn()`, or None when it raises; `label` names the operation in
        the error record and is formatted only then."""
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # any exception is a failed operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(map(str, label))}: {type(err).__name__}: {err}")
            return None


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles as mod

    return mod


def vertex_arities(term):
    """Input counts of the vertices of a tree term, read off the term."""
    out, stack = [], []
    for ch in term:
        if ch == "(":
            if stack:
                stack[-1] += 1
            stack.append(0)
        elif ch == "*":
            if stack:
                stack[-1] += 1
        elif ch == ")":
            out.append(stack.pop())
    return out


def schroeder(n):
    """Leaf-labelled series-reduced rooted trees on n leaves (OEIS A000311):
    a(n) sums, over the set partitions of the leaves into at least two
    blocks, the product of a(block size)."""
    a, f = {1: 1}, {0: 1, 1: 1}  # f(m): all set partitions, weighted
    for m in range(2, n + 1):
        a[m] = sum(math.comb(m - 1, j - 1) * a[j] * f[m - j] for j in range(1, m))
        f[m] = 2 * a[m]
    return a[n]


# -- tree_maps -------------------------------------------------------------------


class TreeMaps:
    """Every map among the 73 trees with at most 3 vertices and 3 inputs,
    factorized with a cold faces cache; subtrees and automorphism orders."""

    uses_numpy = False

    def setup(self, seed):
        from dendrokit import morphisms, trees

        carrier = trees.enumerate_trees_by_vertices(3, 3)
        shapes = list(carrier) + [trees.reduced_corolla(n) for n in range(1, 6)]
        pairs = list(itertools.product(carrier, repeat=2))
        random.Random(seed).shuffle(pairs)
        return {"tr": trees, "mor": morphisms, "carrier": carrier, "shapes": shapes, "pairs": pairs}

    def solve(self, inp, ops, tracer):
        tr, mor = inp["tr"], inp["mor"]
        homs = {}
        for s, t in inp["pairs"]:
            homs[s, t] = ops.run(lambda: mor.hom_set(s, t), "hom", s, t)
        maps = [m for ms in homs.values() if ms for m in ms]
        facts = [ops.run(lambda: mor.factorize(m), "factorize", m) for m in maps]
        subs = {t: ops.run(lambda: mor.subtrees(t), "subtrees", t) for t in inp["shapes"]}
        auts = {t: ops.run(lambda: tr.aut_order(t), "aut_order", t) for t in inp["shapes"]}
        return {"homs": homs, "maps": maps, "facts": facts, "subs": subs, "auts": auts}

    def check(self, inp, out, seed, full):
        problems = []
        shapes_of_facts = []
        for m, fact in zip(out["maps"], out["facts"]):
            if fact is None:
                continue
            if fact.composite() != m:
                problems.append(f"composite differs from the map {m!r}")
            for face in fact.faces:
                fm = face.morphism
                if len(fm.source.vertices) != len(fm.target.vertices) - 1 or not fm.is_injective():
                    problems.append(f"bad face in the chain of {m!r}")
            shapes_of_facts.append((len(fact.degeneracies), len(fact.faces)))
        homs = {f"{s.key}>{t.key}": len(ms) for (s, t), ms in out["homs"].items() if ms is not None}
        subs = {t.key: len(v) for t, v in out["subs"].items() if v is not None}
        auts = {t.key: v for t, v in out["auts"].items() if v is not None}
        if full:
            problems += self._oracle_checks(inp, out, seed)
        return problems, digest([sorted(homs.items()), sorted(subs.items()), sorted(auts.items()),
                                 sorted(shapes_of_facts)])

    def _oracle_checks(self, inp, out, seed):
        orc = oracles()
        tr = inp["tr"]
        problems = []
        # brute force is |E(T)|^|E(S)| edge maps against the target's
        # operation closure, which is slow for targets above 7 edges
        pool = [(s, t) for s, t in itertools.product(inp["carrier"], repeat=2)
                if len(t.edges) <= 7 and len(t.edges) ** len(s.edges) <= 4096]
        for s, t in random.Random(seed).sample(pool, 120):
            got = {frozenset(m.map.items()) for m in out["homs"][s, t] or ()}
            want = {frozenset(d.items()) for d in orc.brute_force_morphisms(s, t)}
            if got != want:
                problems.append(f"hom {s.key} -> {t.key}: {len(got)} maps, oracle {len(want)}")
        for t, subs in out["subs"].items():
            want = {e for e in orc.connected_edge_subsets(t) if orc.subtree_subset_is_valid(t, e)}
            if subs is None or {s.edge_subset for s in subs} != want:
                problems.append(f"subtrees of {t.key} differ from the oracle")
        for n in range(1, 6):
            subs = out["subs"][tr.reduced_corolla(n)] or ()
            for k in range(1, n + 1):
                got = sum(1 for s in subs if s.contains_root and s.induced == tr.reduced_corolla(k))
                if got != math.comb(n, k):
                    problems.append(f"corolla {n}: {got} root subtrees of size {k}")
        for t, order in out["auts"].items():
            if len(t.edges) <= 7 and order != orc.brute_force_aut_order(t):
                problems.append(f"aut_order of {t.key} is {order}")
        return problems


# -- operad_laws -----------------------------------------------------------------


class OperadLaws:
    """`check_operad_axioms` on computed operads and on their bundled tables,
    and on one corrupted table."""

    uses_numpy = True  # through dendrokit.fixtures

    def setup(self, seed):
        from dendrokit import operads
        from dendrokit.fixtures import load_operad

        ass_table = load_operad("ass.operad.json")
        return {
            "ops": operads,
            "computed": [
                ("com", operads.com_operad(), 4),
                ("ass", operads.ass_operad(4), 3),
                ("free-binary", operads.free_operad(operads.one_binary_generator(), 4), 4),
                ("end01", operads.end_operad((0, 1), 2), 2),
            ],
            "tables": [
                ("com", load_operad("com.operad.json"), 3),
                ("ass", ass_table, 3),
                ("end01", load_operad("end01.operad.json"), 2),
            ],
            "corrupted": self._corrupt(operads, ass_table),
        }

    @staticmethod
    def _corrupt(operads, table):
        """The table with its first composition entry that has another
        possible value replaced by that value."""
        for key in table.composition_keys():
            parent, (p_in, p_out), children, child_sigs = key
            sigs = [operads.Signature(i, o) for i, o in child_sigs]
            value = table.compose(parent, operads.Signature(p_in, p_out), list(children), sigs)
            others = [e for e in table.hom(tuple(c for s in sigs for c in s.inputs), p_out)
                      if e != value]
            if others:
                return table.corrupt(key, others[0])
        raise RuntimeError("no composition entry can be corrupted")

    def solve(self, inp, ops, tracer):
        P = inp["ops"]
        reports = {}
        for kind in ("computed", "tables"):
            for name, op, bound in inp[kind]:
                reports[kind, name] = ops.run(lambda: P.check_operad_axioms(op, bound),
                                              "axioms", kind, name)
        reports["corrupted", "ass"] = ops.run(
            lambda: P.check_operad_axioms(inp["corrupted"], 3), "axioms corrupted ass")
        return reports

    def check(self, inp, reports, seed, full):
        problems = []
        for (kind, name), rep in reports.items():
            if rep is None:
                continue
            if rep.passed != (kind != "corrupted"):
                problems.append(f"{kind} {name}: passed={rep.passed}")
        for name in ("ass", "end01"):
            a, b = reports["computed", name], reports["tables", name]
            if a and b and a.checked != b.checked:
                problems.append(f"{name}: {a.checked} instances computed, {b.checked} from the table")
        problems += self._end_sample(inp, seed)
        return problems, digest(sorted(
            (f"{k}/{n}", r.checked, len(r.violations)) for (k, n), r in reports.items() if r))

    def _end_sample(self, inp, seed):
        """Seeded End({0,1}) compositions against direct evaluation."""
        P = inp["ops"]
        end = inp["computed"][3][1]
        table = inp["tables"][2][1]
        rng = random.Random(seed)
        problems = []

        def apply(fn, args):  # fn lists its values over {0,1}^n in lexicographic order
            return fn[int(word(args), 2)] if args else fn[0]

        def word(values):
            return "".join(map(str, values))

        for _ in range(200):
            n = rng.randint(1, 2)
            arities = [rng.randint(0, 2) for _ in range(n)]
            while sum(arities) > 2:
                arities = [rng.randint(0, 2) for _ in range(n)]
            f = tuple(rng.randint(0, 1) for _ in range(2**n))
            gs = [tuple(rng.randint(0, 1) for _ in range(2**k)) for k in arities]
            sigs = [P.Signature(("x",) * k, "x") for k in arities]
            want = []
            for args in itertools.product((0, 1), repeat=sum(arities)):
                mids, pos = [], 0
                for g, k in zip(gs, arities):
                    mids.append(apply(g, args[pos:pos + k]))
                    pos += k
                want.append(apply(f, mids))
            fsig = P.Signature(("x",) * n, "x")
            got = end.compose(f, fsig, gs, sigs)
            # the table names each function by the string of its values
            got_table = table.compose(word(f), fsig, [word(g) for g in gs], sigs)
            if tuple(got) != tuple(want) or got_table != word(want):
                problems.append(f"End composition of {f} with {gs}: {got}, table {got_table}, "
                                f"direct {tuple(want)}")
        return problems


# -- nerves ----------------------------------------------------------------------


class Nerves:
    """Nerve values, the strict-Segal battery, round trips, and the write
    path (materialize, JSON out and back, Segal check of the table)."""

    uses_numpy = True

    def setup(self, seed):
        from dendrokit import dendroidal, operads, trees
        from dendrokit.fixtures import load_dendroidal

        c44 = trees.enumerate_trees_by_vertices(4, 4)
        c42 = trees.enumerate_trees_by_vertices(4, 2)
        c33 = trees.enumerate_trees_by_vertices(3, 3)
        com, ass = operads.com_operad(), operads.ass_operad(4)
        free4 = operads.free_operad(operads.one_binary_generator(), 4)
        end01 = operads.end_operad((0, 1), 2)
        rng = random.Random(seed)
        battery = [("com", com, c44), ("ass", ass, c44), ("free-binary", free4, c44),
                   ("end01", end01, c42)]
        return {
            "dnd": dendroidal,
            "battery": battery,
            "value_order": {name: rng.sample(list(c), len(c)) for name, _, c in battery},
            "round_trips": [
                ("com", operads.com_operad(), 5),
                ("ass", operads.ass_operad(4), 4),
                ("free-binary", operads.free_operad(operads.one_binary_generator(), 5), 5),
                ("end01", operads.end_operad((0, 1), 2), 2),
            ],
            "corrupted": load_dendroidal("corrupted.dendroidal.json"),
            "write_operad": ass,
            "write_carrier": c33,
        }

    def solve(self, inp, ops, tracer):
        dnd = inp["dnd"]
        counts = {}
        for name, P, _ in inp["battery"]:
            X = dnd.nerve(P)
            counts[name] = {}
            for t in inp["value_order"][name]:
                vals = ops.run(lambda: X.values(t), "values", name, t)
                counts[name][t.key] = None if vals is None else len(vals)
            del X  # the nerve and its cached values go here
        segal = {name: ops.run(lambda: dnd.is_strict_segal(dnd.nerve(P), carrier), "segal", name)
                 for name, P, carrier in inp["battery"]}
        segal["corrupted"] = ops.run(lambda: dnd.is_strict_segal(inp["corrupted"]), "segal corrupted")
        trips = {name: ops.run(lambda: dnd.nerve_round_trip(P, bound), "round trip", name)
                 for name, P, bound in inp["round_trips"]}
        carrier = inp["write_carrier"]
        table = ops.run(lambda: dnd.materialize(dnd.nerve(inp["write_operad"]), carrier), "materialize")
        with tracer.span("dendroidal.table_json"):
            text = ops.run(lambda: json.dumps(table.to_json()), "table to json")
            back = ops.run(lambda: dnd.TableDendroidalSet.from_json(json.loads(text)),
                           "table from json")
        tracer.count("dendroidal.table_json_bytes", len(text or ""))
        back_segal = ops.run(lambda: dnd.is_strict_segal(back), "segal of the read-back table")
        back_counts = ops.run(lambda: {t.key: len(back.values(t)) for t in carrier}, "read-back values")
        return {"counts": counts, "segal": segal, "trips": trips, "json_bytes": len(text or ""),
                "back_segal": back_segal, "back_counts": back_counts}

    def check(self, inp, out, seed, full):
        orc = oracles()
        per_arity = {
            "com": lambda k: 1,
            "ass": math.factorial,
            "end01": lambda k: 2 ** (2**k),
            "free-binary": lambda k: orc.leaf_labelled_tree_count(k, {2}),
        }
        problems = []

        def expected(name, term):
            return math.prod(per_arity[name](k) for k in vertex_arities(term))

        for name, counts in out["counts"].items():
            for term, n in counts.items():
                if n is not None and n != expected(name, term):
                    problems.append(f"nerve of {name} at {term}: {n} values, expected {expected(name, term)}")
        for name, _, carrier in inp["battery"]:
            rep = out["segal"][name]
            if rep and (not rep.passed or len(rep.checked) != len(carrier)):
                problems.append(f"segal {name}: passed={rep.passed}, {len(rep.checked)} trees checked")
        rep = out["segal"]["corrupted"]
        if rep and (rep.passed or rep.failures[0]["tree"] != "(*(**))"):
            problems.append("the corrupted fixture did not fail at (*(**))")
        for name, w in out["trips"].items():
            if w and (not w.ok or w.checks <= 0):
                problems.append(f"round trip {name}: ok={w.ok}, {w.checks} instances")
        rep, back = out["back_segal"], out["back_counts"]
        if rep and (not rep.passed or len(rep.checked) != len(inp["write_carrier"])):
            problems.append("the read-back table fails the Segal check")
        if back and any(n != expected("ass", term) for term, n in back.items()):
            problems.append("the read-back table has other value counts")
        summary = {name: sum(n or 0 for n in c.values()) for name, c in out["counts"].items()}
        summary["segal"] = {k: len(r.checked) for k, r in out["segal"].items() if r}
        summary["trips"] = {k: w.checks for k, w in out["trips"].items() if w}
        summary["json_bytes"] = out["json_bytes"]
        return problems, digest(summary)


# -- cli ---------------------------------------------------------------------------


def cli_session(points_files):
    """The fixed `dendro` session: (arguments, extra environment, expected
    exit code)."""
    factorize_input = json.dumps({"source_key": "*", "target_key": "(**)", "edge_map": {"": "0"}})
    acceptance = [  # acceptance criteria 1 and 12
        ("psi", "3", "--count"),
        ("psi", "4", "--count"),
        ("enum-trees", "--max-edges", "5", "--max-inputs", "3", "--json"),
        ("hom", "(**)", "(*(**))", "--json"),
        ("faces", "((**)*)", "--json"),
        ("subtrees", "(()())", "--json"),
        ("classify", "(()()(()))", "--json"),
        ("operad", "check", "ass", "--arity-bound", "3"),
        ("operad", "show", "com", "--arity-bound", "2"),
        ("operad", "build-free", "--level", "2=1", "--arity-bound", "5", "--json"),
        ("nerve", "ass", "--max-vertices", "2", "--max-inputs", "3"),
        ("segal-check", "--operad", "ass", "--max-vertices", "2", "--max-inputs", "3"),
        ("reconstruct", "--operad", "ass", "--arity-bound", "2", "--round-trip"),
        ("psi", "4", "--json", "--ambient", "2"),
        ("psi", "3", "--dot"),
        ("boundary-index", "3", "--json"),
        ("cobound-index", "4"),
        ("fm-embed", "--selftest", "--trials", "40", "--seed", "11"),
        ("connectivity", "--n", "2", "--d", "4", "--table", "8", "--json"),
        ("factorize", factorize_input),
    ]
    heavier = [
        ("psi", "6", "--json"),
        ("psi", "6", "--dot"),
        ("boundary-index", "6", "--json"),
        ("cobound-index", "8"),
        ("fm-embed", "--selftest", "--seed", str(FM_SEED)),
    ] + [("fm-embed", "--points", str(p)) for p in points_files] + [
        ("nerve", "ass", "--max-vertices", "4", "--max-inputs", "4", "--counts"),
        ("--workers", "2", "segal-check", "--operad", "ass", "--max-vertices", "4", "--max-inputs", "4"),
    ]
    session = [(args, {}, 0) for args in acceptance + heavier]
    session.append((("psi", "7", "--count"), {"DENDRO_BUDGET": PSI7_BUDGET}, 0))
    session.append((("segal-check", "--dendroidal", "corrupted.dendroidal.json"), {}, 1))
    return session


def fm_configurations():
    """Three FM configurations of 4, 5 and 6 points in R^3 from FM_SEED."""
    rng = random.Random(FM_SEED)
    return [[[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(k)] for k in (4, 5, 6)]


def run_dendro(args, extra_env=None):
    """One `dendro` command as a subprocess: (exit code, stdout, stderr, s).
    It inherits PYTHONPATH and PYTHONHASHSEED from the worker."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dendrokit.cli", *args], capture_output=True,
                          text=True, env={**os.environ, **(extra_env or {})}, cwd=ROOT, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class Cli:
    """A fixed session of `dendro` commands, one subprocess at a time."""

    uses_numpy = False  # its set-up time is a whole `dendro` process

    def setup(self, seed):
        OUT.mkdir(exist_ok=True)
        points = []
        for i, pts in enumerate(fm_configurations()):
            path = OUT / f"fm-points-{i}.json"
            path.write_text(json.dumps({"points": pts}))
            points.append(path)
        return {"points": fm_configurations(), "session": cli_session(points)}

    @staticmethod
    def probe():
        """Set-up time of the cli: one command that does no work."""
        rc, _, err, wall = run_dendro(["--help"])
        if rc != 0:
            raise RuntimeError(f"dendro --help failed: {err[-300:]}")
        return wall

    def solve(self, inp, ops, tracer):
        results = []
        for args, extra, _ in inp["session"]:
            results.append(ops.run(lambda: run_dendro(args, extra), *args))
        return results

    def solve_in_process(self, inp, ops, tracer):
        """The same session through the click entry point, in this process."""
        import contextlib
        import io

        from dendrokit import cli

        results = []
        for args, extra, _ in inp["session"]:
            def command():
                out, err = io.StringIO(), io.StringIO()
                saved = {k: os.environ.get(k) for k in extra}
                os.environ.update(extra)
                start = time.perf_counter()
                try:
                    with tracer.span("cli.command"), contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        try:
                            rc = cli.main.main(args=list(args), prog_name="dendro",
                                               standalone_mode=False) or 0
                        except SystemExit as exc:
                            rc = exc.code if isinstance(exc.code, int) else 1
                finally:
                    for k, v in saved.items():
                        if v is None:
                            os.environ.pop(k, None)
                        else:
                            os.environ[k] = v
                tracer.count("cli.commands_run")
                tracer.count("cli.stdout_bytes", len(out.getvalue().encode()))
                return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start

            results.append(ops.run(command, *args))
        return results

    def check(self, inp, results, seed, full):
        orc = oracles()
        from dendrokit import trees

        problems = []
        outputs = {}
        for (args, _, want_rc), res in zip(inp["session"], results):
            if res is None:
                continue
            rc, out, err, _ = res
            key = " ".join(args)
            if rc != want_rc:
                problems.append(f"{key}: exit {rc}, expected {want_rc}: {err[-200:]}")
                continue
            text = out if want_rc == 0 else err
            try:
                outputs[key] = json.loads(text)
            except ValueError:
                if "--json" in args:
                    problems.append(f"{key}: stdout is not JSON")
                outputs[key] = text.strip()

        def expect(key, ok, what):
            if key not in outputs:
                return
            try:
                good = ok(outputs[key])
            except (KeyError, IndexError, TypeError, AttributeError):
                good = False
                what = "output has another shape"
            if not good:
                problems.append(f"{key}: {what}")

        a = schroeder
        expect("psi 3 --count", lambda o: o == a(3) == 4, f"count is not {a(3)}")
        expect("psi 4 --count", lambda o: o == a(4) == 26, f"count is not {a(4)}")
        expect("psi 4 --json --ambient 2", lambda o: o["count"] == len(o["elements"]) == a(4), "count")
        expect("psi 6 --json", lambda o: o["count"] == len(o["elements"]) == a(6) == 2752, "count")
        expect("psi 6 --dot", lambda o: o.count("[label=") == a(6), "node count")
        expect("psi 7 --count", lambda o: o == a(7) == 39208, f"count is not {a(7)}")
        expect("boundary-index 6 --json", lambda o: o["count"] == a(6) - 1, "count")
        expect("boundary-index 3 --json", lambda o: o["count"] == a(3) - 1, "count")
        for n in (4, 8):
            expect(f"cobound-index {n}", lambda o, n=n: len(o["elements"]) == 2**n - 1
                   and o["order_isomorphic_to_proper_subsets"], f"is not a punctured {n}-cube")
        expect("connectivity --n 2 --d 4 --table 8 --json",
               lambda o: [r["layer"] for r in o["rows"]] == [(k - 1) * (4 - 2) + 1 for k in range(2, 9)],
               "rows differ from (k-1)(d-2)+1")
        expect(f"fm-embed --selftest --seed {FM_SEED}", lambda o: o["passed"] and o["trials"] == 1000,
               "self-test did not pass")
        expect("fm-embed --selftest --trials 40 --seed 11", lambda o: o["passed"], "self-test did not pass")
        for i, pts in enumerate(inp["points"]):
            expect(f"fm-embed --points {OUT / f'fm-points-{i}.json'}",
                   lambda o, pts=pts: _fm_matches(o, pts), "coordinates differ from direct evaluation")
        expect("enum-trees --max-edges 5 --max-inputs 3 --json",
               lambda o: o["count"] == len(set(o["trees"])), "count")
        hom_want = len(orc.brute_force_morphisms(trees.parse_tree("(**)"), trees.parse_tree("(*(**))")))
        expect("hom (**) (*(**)) --json", lambda o: o["count"] == len(o["morphisms"]) == hom_want,
               f"not {hom_want} maps")
        sub_tree = trees.parse_tree("(()())")
        sub_want = sum(1 for e in orc.connected_edge_subsets(sub_tree)
                       if orc.subtree_subset_is_valid(sub_tree, e))
        expect("subtrees (()()) --json", lambda o: o["count"] == len(o["subtrees"]) == sub_want,
               f"not {sub_want} subtrees")
        expect("operad check ass --arity-bound 3", lambda o: o["passed"], "axioms fail")
        expect("operad build-free --level 2=1 --arity-bound 5 --json",
               lambda o: [o["level_sizes"][str(n)] for n in (2, 3, 4, 5)]
               == [orc.leaf_labelled_tree_count(n, {2}) for n in (2, 3, 4, 5)], "level sizes")
        expect("segal-check --operad ass --max-vertices 2 --max-inputs 3", lambda o: o["passed"], "fails")
        expect("reconstruct --operad ass --arity-bound 2 --round-trip", lambda o: o["ok"], "not ok")
        nerve_key = "nerve ass --max-vertices 4 --max-inputs 4 --counts"
        expect(nerve_key, lambda o: all(n == math.prod(map(math.factorial, vertex_arities(t)))
                                        for t, n in o["values"].items()), "counts differ from k!")
        segal_key = "--workers 2 segal-check --operad ass --max-vertices 4 --max-inputs 4"
        expect(segal_key, lambda o: o["passed"]
               and o["trees_checked"] == len(outputs[nerve_key]["values"]), "fails or checks other trees")
        expect("segal-check --dendroidal corrupted.dendroidal.json",
               lambda o: o["error"] == "strict Segal check failed"
               and o["detail"]["failures"][0]["tree"] == "(*(**))", "did not fail at (*(**))")
        return problems, digest([r[:3] if r else None for r in results])


def _fm_matches(out, pts, tol=1e-12):
    """Direction vectors and distance ratios computed here, against the
    command's output."""
    k = len(pts)

    def dist(i, j):
        return math.dist(pts[i], pts[j])

    for i, j in itertools.permutations(range(k), 2):
        want = [(p - q) / dist(i, j) for p, q in zip(pts[i], pts[j])]
        got = out["a"][f"{i + 1},{j + 1}"]
        if any(abs(g - w) > tol for g, w in zip(got, want)):
            return False
    for i, j, m in itertools.permutations(range(k), 3):
        want = dist(i, j) / dist(i, m)
        if abs(out["b"][f"{i + 1},{j + 1},{m + 1}"] - want) > tol * max(1.0, want):
            return False
    return len(out["a"]) == k * (k - 1) and len(out["b"]) == k * (k - 1) * (k - 2)


WORKLOADS = {"tree_maps": TreeMaps, "operad_laws": OperadLaws, "nerves": Nerves, "cli": Cli}
