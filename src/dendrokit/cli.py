"""Command-line front door.

One subcommand per capability; every command writes deterministic output to
stdout and machine-readable errors ``{"error": ..., "detail": ...}`` to
stderr.  Exit codes: 0 success, 1 domain or budget error (including reported
check failures), 2 usage error.  The DENDRO_BUDGET environment variable
overrides enumeration budgets globally; ``--workers`` distributes independent
work items over a thread pool without changing any output byte.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import update_wrapper

import click

from . import connectivity as conn
from . import dendroidal as dnd
from . import morphisms as mor
from . import strata
from . import trees as tr
from .errors import DendroError
from .fixtures import bundled_trees, load_dendroidal, load_operad
from .operads import Collection, TableOperad, check_operad_axioms, free_operad


def emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def emit_json(payload):
    emit(json.dumps(payload, indent=2, sort_keys=True))


def pmap(fn, items, workers):
    """Order-preserving map, optionally on a thread pool; the output is
    byte-identical for any worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def handle_domain_errors(fn):
    @click.pass_context
    def wrapper(ctx, *args, **kwargs):
        try:
            return ctx.invoke(fn, *args, **kwargs)
        except DendroError as err:
            sys.stderr.write(json.dumps(err.payload(), sort_keys=True) + "\n")
            ctx.exit(1)

    return update_wrapper(wrapper, fn)


def parse_tree_arg(text):
    named = bundled_trees()
    if text in named:
        text = named[text]
    return tr.parse_tree(text)


@click.group()
@click.option("--workers", default=1, show_default=True, help="Thread pool size.")
@click.pass_context
def main(ctx, workers):
    """Exact tree, operad and stratification combinatorics."""
    ctx.obj = {"workers": max(1, workers)}


# -- trees ---------------------------------------------------------------------


@main.command("enum-trees")
@click.option("--max-edges", type=int, help="Bound the number of edges.")
@click.option("--max-vertices", type=int, help="Bound the number of vertices.")
@click.option("--max-inputs", default=3, show_default=True, type=int)
@click.option("--reduced", is_flag=True, help="Only trees without leaves.")
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@handle_domain_errors
def enum_trees(ctx, max_edges, max_vertices, max_inputs, reduced, count_only, as_json):
    """Enumerate canonical trees, one per isomorphism class."""
    if (max_edges is None) == (max_vertices is None):
        raise click.UsageError("give exactly one of --max-edges / --max-vertices")
    if max_edges is not None:
        trees = tr.enumerate_trees(max_edges, max_inputs, reduced_only=reduced)
    else:
        trees = tr.enumerate_trees_by_vertices(max_vertices, max_inputs, reduced_only=reduced)
    if count_only:
        emit(str(len(trees)))
        return
    terms = pmap(lambda t: t.key, trees, ctx.obj["workers"])
    if as_json:
        emit_json({"count": len(terms), "trees": terms})
    else:
        emit("\n".join(terms))


@main.command()
@click.argument("source")
@click.argument("target")
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--max-maps", type=int, default=None, help="Budget override.")
@click.pass_context
@handle_domain_errors
def hom(ctx, source, target, count_only, as_json, max_maps):
    """All tree maps SOURCE -> TARGET."""
    s, t = parse_tree_arg(source), parse_tree_arg(target)
    maps = mor.hom_set(s, t, budget=max_maps)
    if count_only:
        emit(str(len(maps)))
        return
    payload = pmap(lambda m: m.to_json(), maps, ctx.obj["workers"])
    if as_json:
        emit_json({"count": len(maps), "morphisms": payload})
    else:
        for m in payload:
            emit(json.dumps(m, sort_keys=True))


@main.command()
@click.argument("tree")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@handle_domain_errors
def faces(ctx, tree, as_json):
    """Elementary faces of TREE, classified inner or outer."""
    t = parse_tree_arg(tree)
    fs = mor.elementary_faces(t)
    payload = pmap(lambda f: f.to_json(), fs, ctx.obj["workers"])
    if as_json:
        emit_json({"tree": t.term, "count": len(fs), "faces": payload})
    else:
        for f in payload:
            emit(json.dumps(f, sort_keys=True))


@main.command()
@click.argument("morphism")
@click.pass_context
@handle_domain_errors
def factorize(ctx, morphism):
    """Factor a tree map (JSON file path, '-' for stdin, or inline JSON) as
    degeneracies, then an isomorphism, then faces."""
    if morphism == "-":
        text = sys.stdin.read()
    elif morphism.lstrip().startswith("{"):
        text = morphism
    else:
        with open(morphism) as fh:
            text = fh.read()
    m = mor.OmegaMorphism.from_json(json.loads(text))
    fact = mor.factorize(m)
    emit_json(fact.to_json())


@main.command()
@click.argument("tree")
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@handle_domain_errors
def subtrees(ctx, tree, count_only, as_json):
    """Connected edge subsets of TREE inducing valid inclusions."""
    t = parse_tree_arg(tree)
    subs = mor.subtrees(t)
    if count_only:
        emit(str(len(subs)))
        return
    payload = pmap(lambda s: s.to_json(), subs, ctx.obj["workers"])
    if as_json:
        emit_json({"tree": t.term, "count": len(subs), "subtrees": payload})
    else:
        for s in payload:
            emit(json.dumps(s, sort_keys=True))


@main.command()
@click.argument("tree")
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def classify(tree, as_json):
    """Subfamily predicates and statistics of TREE."""
    report = mor.classify(parse_tree_arg(tree))
    if as_json:
        emit_json(report)
    else:
        for key in sorted(report):
            emit(f"{key}: {json.dumps(report[key], sort_keys=True)}")


# -- operads --------------------------------------------------------------------


@main.group()
def operad():
    """Build, inspect and check finite operads."""


@operad.command("check")
@click.argument("spec")
@click.option("--arity-bound", default=3, show_default=True, type=int)
@handle_domain_errors
def operad_check(spec, arity_bound):
    """Check the operad axioms by exhaustive enumeration."""
    P = load_operad(spec, arity_bound)
    report = check_operad_axioms(P, arity_bound)
    if not report.passed:
        sys.stderr.write(
            json.dumps(
                {"error": "operad axioms violated", "detail": report.to_json()},
                sort_keys=True,
            )
            + "\n"
        )
        sys.exit(1)
    emit_json(report.to_json())


@operad.command("show")
@click.argument("spec")
@click.option("--arity-bound", default=3, show_default=True, type=int)
@handle_domain_errors
def operad_show(spec, arity_bound):
    """Materialize an operad's tables as JSON."""
    P = load_operad(spec, arity_bound)
    table = P if isinstance(P, TableOperad) else TableOperad.from_operad(P, arity_bound)
    emit_json(table.to_json(element_str=P.element_str))


@operad.command("build-free")
@click.option(
    "--level",
    "levels",
    multiple=True,
    required=True,
    help="ARITY=COUNT generator levels, e.g. --level 2=1.",
)
@click.option("--arity-bound", default=4, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def operad_build_free(levels, arity_bound, as_json):
    """The free operad on the given generator counts (trivial actions)."""
    spec = {}
    for item in levels:
        try:
            arity, count = item.split("=")
            spec[int(arity)] = tuple(f"g{arity}_{i}" for i in range(int(count)))
        except ValueError:
            raise click.UsageError(f"malformed --level {item!r}; expected ARITY=COUNT")
    F = free_operad(Collection(levels=spec), arity_bound)
    counts = {str(n): len(F.level(n)) for n in sorted(F._levels)}
    if as_json:
        emit_json(
            {
                "generators": {str(k): len(v) for k, v in sorted(spec.items())},
                "arity_bound": arity_bound,
                "level_sizes": counts,
                "levels": {
                    str(n): [F.element_str(e) for e in F.level(n)]
                    for n in sorted(F._levels)
                },
            }
        )
    else:
        for n, c in counts.items():
            emit(f"level {n}: {c}")


# -- dendroidal sets --------------------------------------------------------------


def _carrier(operad_obj, max_vertices, max_inputs, terms):
    if terms:
        return [parse_tree_arg(t) for t in terms]
    bound = max_inputs
    if operad_obj.arity_bound is not None:
        bound = min(bound, operad_obj.arity_bound)
    return tr.enumerate_trees_by_vertices(max_vertices, bound)


@main.command()
@click.argument("operad_spec")
@click.option("--tree", "terms", multiple=True, help="Carrier trees (terms).")
@click.option("--max-vertices", default=3, show_default=True, type=int)
@click.option("--max-inputs", default=3, show_default=True, type=int)
@click.option("--counts", "counts_only", is_flag=True, help="Only value counts.")
@click.pass_context
@handle_domain_errors
def nerve(ctx, operad_spec, terms, max_vertices, max_inputs, counts_only):
    """The dendroidal nerve of an operad on a finite carrier (JSON)."""
    P = load_operad(operad_spec)
    carrier = _carrier(P, max_vertices, max_inputs, terms)
    X = dnd.nerve(P, trees=carrier)
    if counts_only:
        counts = pmap(
            lambda t: (t.key, sum(size for *_, size in X.value_blocks(t))),
            carrier,
            ctx.obj["workers"],
        )
        emit_json({"operad": P.name, "values": {k: v for k, v in counts}})
        return
    table = dnd.materialize(X, carrier)
    emit_json(table.to_json())


@main.command("segal-check")
@click.option("--operad", "operad_spec", default=None, help="Check nerve(OPERAD).")
@click.option("--dendroidal", "dendroidal_spec", default=None, help="Check a stored dendroidal set.")
@click.option("--tree", "terms", multiple=True)
@click.option("--max-vertices", default=3, show_default=True, type=int)
@click.option("--max-inputs", default=4, show_default=True, type=int)
@click.pass_context
@handle_domain_errors
def segal_check(ctx, operad_spec, dendroidal_spec, terms, max_vertices, max_inputs):
    """Exact strict-Segal check: values against core families, every tree."""
    if (operad_spec is None) == (dendroidal_spec is None):
        raise click.UsageError("give exactly one of --operad / --dendroidal")
    if operad_spec:
        P = load_operad(operad_spec)
        carrier = _carrier(P, max_vertices, max_inputs, terms)
        X = dnd.nerve(P, trees=carrier)
    else:
        X = load_dendroidal(dendroidal_spec)
        carrier = list(X.trees)
        if terms:
            carrier = [parse_tree_arg(t) for t in terms]
    chunks = pmap(
        lambda t: dnd.is_strict_segal(X, [t]), carrier, ctx.obj["workers"]
    )
    report = dnd.SegalReport(getattr(X, "name", "dendroidal set"))
    for c in chunks:
        report.checked.extend(c.checked)
        report.failures.extend(c.failures)
    if not report.passed:
        sys.stderr.write(json.dumps(
            {"error": "strict Segal check failed", "detail": report.to_json()},
            sort_keys=True,
        ) + "\n")
        ctx.exit(1)
    emit_json(report.to_json())


@main.command()
@click.option("--operad", "operad_spec", default=None, help="Reconstruct from nerve(OPERAD).")
@click.option("--dendroidal", "dendroidal_spec", default=None)
@click.option("--arity-bound", default=3, show_default=True, type=int)
@click.option("--round-trip", is_flag=True, help="Also verify the canonical isomorphism.")
@handle_domain_errors
def reconstruct(operad_spec, dendroidal_spec, arity_bound, round_trip):
    """Reconstruct an operad from a strict-Segal dendroidal set."""
    if (operad_spec is None) == (dendroidal_spec is None):
        raise click.UsageError("give exactly one of --operad / --dendroidal")
    if operad_spec:
        P = load_operad(operad_spec, arity_bound)
        if round_trip:
            witness = dnd.nerve_round_trip(P, arity_bound)
            if not witness.ok:
                sys.stderr.write(
                    json.dumps(
                        {"error": "round trip failed", "detail": witness.to_json()},
                        sort_keys=True,
                    )
                    + "\n"
                )
                sys.exit(1)
            emit_json(witness.to_json())
            return
        X = dnd.nerve(P)
    else:
        if round_trip:
            raise click.UsageError("--round-trip needs --operad")
        X = load_dendroidal(dendroidal_spec)
    Q = dnd.reconstruct_operad(X, arity_bound)
    table = TableOperad.from_operad(Q, arity_bound)
    emit_json(table.to_json(element_str=Q.element_str))


# -- strata ------------------------------------------------------------------------


@main.command()
@click.argument("k", type=int)
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--dot", "as_dot", is_flag=True)
@click.option("--ambient", default=2, show_default=True, type=int)
@click.pass_context
@handle_domain_errors
def psi(ctx, k, count_only, as_json, as_dot, ambient):
    """The stratification poset at level K."""
    poset = strata.enumerate_psi(k)
    if count_only:
        emit(str(len(poset)))
    elif as_dot:
        emit(poset.to_dot(ambient))
    elif as_json:
        payload = poset.to_json(ambient=ambient)
        payload["elements"] = pmap(lambda e: e, payload["elements"], ctx.obj["workers"])
        emit_json(payload)
    else:
        rows = pmap(
            lambda t: f"{t.term}  dim={strata.stratum_dim(t, ambient)}  codim={t.n_inner_edges}",
            poset.elements,
            ctx.obj["workers"],
        )
        emit("\n".join(rows))


@main.command("boundary-index")
@click.argument("n", type=int)
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--dot", "as_dot", is_flag=True)
@click.option("--ambient", default=2, show_default=True, type=int)
@handle_domain_errors
def boundary_index(n, count_only, as_json, as_dot, ambient):
    """The stratification poset without its corolla."""
    poset = strata.boundary_index(n)
    if count_only:
        emit(str(len(poset)))
    elif as_dot:
        emit(poset.to_dot(ambient))
    else:
        emit_json(poset.to_json(ambient=ambient))


@main.command("cobound-index")
@click.argument("n", type=int)
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def cobound_index(n, count_only, as_json):
    """Root-containing proper subtrees of the stump-capped corolla: the
    punctured-cube coboundary index."""
    poset = strata.cobound_index(n)
    if count_only:
        emit(str(len(poset)))
        return
    payload = poset.to_json()
    payload["order_isomorphic_to_proper_subsets"] = poset.is_order_isomorphism()
    emit_json(payload)


@main.command("fm-embed")
@click.option("--points", "points_file", default=None, help="JSON or whitespace matrix file.")
@click.option("--selftest", is_flag=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--trials", default=1000, show_default=True, type=int)
@handle_domain_errors
def fm_embed(points_file, selftest, seed, trials):
    """Direction/ratio coordinates of a configuration, or the randomized
    numeric self-test."""
    if selftest:
        result = strata.fm_selftest(seed=seed, trials=trials)
        result["collision_ratios"] = [float(x) for x in result["collision_ratios"]]
        if not result["passed"]:
            sys.stderr.write(
                json.dumps(
                    {"error": "embedding self-test failed", "detail": result},
                    sort_keys=True,
                )
                + "\n"
            )
            sys.exit(1)
        emit_json(result)
        return
    if not points_file:
        raise click.UsageError("give --points FILE or --selftest")
    with open(points_file) as fh:
        text = fh.read().strip()
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        pts = data["points"] if isinstance(data, dict) else data
    else:
        pts = [[float(x) for x in line.split()] for line in text.splitlines() if line.strip()]
    config = strata.Configuration(pts)
    emit_json(strata.fm_embed(config).to_json())


# -- connectivity --------------------------------------------------------------------


@main.command()
@click.option("--n", required=True, type=int, help="Source little-disk dimension.")
@click.option("--d", required=True, type=int, help="Codimension.")
@click.option("--k", default=None, type=int, help="Truncation level.")
@click.option("--table", "k_max", default=None, type=int, help="All levels 2..KMAX.")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@handle_domain_errors
def connectivity(ctx, n, d, k, k_max, as_json):
    """Layer connectivity of the truncation tower, with its two inputs."""
    if (k is None) == (k_max is None):
        raise click.UsageError("give exactly one of --k / --table")
    ks = [k] if k is not None else list(range(2, k_max + 1))
    audits = pmap(
        lambda kk: conn.layer_from_parts(conn.TowerQuery(n, d, kk)), ks, ctx.obj["workers"]
    )
    rows = [a.to_json() for a in audits]
    if d >= 2:
        for row in rows:
            row["global"] = conn.global_connectivity(d)
    if as_json:
        emit_json({"rows": rows})
    else:
        for row in rows:
            emit(
                f"k={row['k']}  layer={row['layer']}  "
                f"cobound={row['parts']['cobound']}  celldim={row['parts']['celldim']}"
            )


if __name__ == "__main__":
    main()
