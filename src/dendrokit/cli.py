"""Command-line front door.

One subcommand per capability; every command writes deterministic output to
stdout and machine-readable errors ``{"error": ..., "detail": ...}`` to
stderr.  Exit codes: 0 success, 1 domain or budget error (including reported
check failures), 2 usage error.  The DENDRO_BUDGET environment variable
overrides enumeration budgets globally.  ``--workers`` is accepted for
compatibility and changes nothing: the work is pure Python and bound by the
interpreter lock, so every command runs in one thread.
"""

from __future__ import annotations

import json
import sys
from functools import update_wrapper

import click

from . import connectivity as conn
from . import morphisms as mor
from . import strata
from . import trees as tr
from .errors import DendroError, DomainError
from .fixtures import bundled_trees, load_dendroidal, load_operad, parse_json
from .operads import Collection, TableOperad, check_operad_axioms, free_operad


def emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def emit_json(payload):
    emit(json.dumps(payload, indent=2, sort_keys=True))


def read_text(path):
    """The contents of a file argument; '-' reads stdin."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as err:
        reason = getattr(err, "strerror", None) or str(err)
        raise DomainError("cannot read input file", {"path": path, "reason": reason})


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
@click.option("--workers", default=1, show_default=True, help="Accepted and ignored.")
def main(workers):
    """Exact tree, operad and stratification combinatorics."""


# -- trees ---------------------------------------------------------------------


@main.command("enum-trees")
@click.option("--max-edges", type=int, help="Bound the number of edges.")
@click.option("--max-vertices", type=int, help="Bound the number of vertices.")
@click.option("--max-inputs", default=3, show_default=True, type=int)
@click.option("--reduced", is_flag=True, help="Only trees without leaves.")
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def enum_trees(max_edges, max_vertices, max_inputs, reduced, count_only, as_json):
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
    terms = [t.key for t in trees]
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
@handle_domain_errors
def hom(source, target, count_only, as_json, max_maps):
    """All tree maps SOURCE -> TARGET."""
    s, t = parse_tree_arg(source), parse_tree_arg(target)
    maps = mor.hom_set(s, t, budget=max_maps)
    if count_only:
        emit(str(len(maps)))
        return
    payload = [m.to_json() for m in maps]
    if as_json:
        emit_json({"count": len(maps), "morphisms": payload})
    else:
        for m in payload:
            emit(json.dumps(m, sort_keys=True))


@main.command()
@click.argument("tree")
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def faces(tree, as_json):
    """Elementary faces of TREE, classified inner or outer."""
    t = parse_tree_arg(tree)
    fs = mor.elementary_faces(t)
    payload = [f.to_json() for f in fs]
    if as_json:
        emit_json({"tree": t.term, "count": len(fs), "faces": payload})
    else:
        for f in payload:
            emit(json.dumps(f, sort_keys=True))


@main.command()
@click.argument("morphism")
@handle_domain_errors
def factorize(morphism):
    """Factor a tree map (JSON file path, '-' for stdin, or inline JSON) as
    degeneracies, then an isomorphism, then faces."""
    text = morphism if morphism.lstrip().startswith("{") else read_text(morphism)
    payload = parse_json(text)
    if not isinstance(payload, dict):
        payload = {}
    edge_map = payload.get("edge_map")
    bad = [f for f in ("source_key", "target_key") if not isinstance(payload.get(f), str)]
    if not isinstance(edge_map, dict) or not all(isinstance(a, str) for a in edge_map.values()):
        bad.append("edge_map")
    if bad:
        raise DomainError("malformed morphism JSON", {"fields": bad})
    m = mor.OmegaMorphism.from_json(payload)
    fact = mor.factorize(m)
    emit_json(fact.to_json())


@main.command()
@click.argument("tree")
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def subtrees(tree, count_only, as_json):
    """Connected edge subsets of TREE inducing valid inclusions."""
    t = parse_tree_arg(tree)
    subs = mor.subtrees(t)
    if count_only:
        emit(str(len(subs)))
        return
    payload = [s.to_json() for s in subs]
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
        raise DendroError("operad axioms violated", report.to_json())
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


def _parse_trees(terms):
    """The trees named by `terms`, each once, in order of first occurrence."""
    return list(dict.fromkeys(map(parse_tree_arg, terms)))


def _carrier(operad_obj, max_vertices, max_inputs, terms):
    if terms:
        return _parse_trees(terms)
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
@handle_domain_errors
def nerve(operad_spec, terms, max_vertices, max_inputs, counts_only):
    """The dendroidal nerve of an operad on a finite carrier (JSON)."""
    from . import dendroidal as dnd  # the dendroidal commands alone load numpy

    P = load_operad(operad_spec)
    carrier = _carrier(P, max_vertices, max_inputs, terms)
    X = dnd.nerve(P, trees=carrier)
    if counts_only:
        counts = {t.key: X.size(t) for t in carrier}
        emit_json({"operad": P.name, "values": counts})
        return
    table = dnd.materialize(X, carrier)
    emit_json(table.to_json())


@main.command("segal-check")
@click.option("--operad", "operad_spec", default=None, help="Check nerve(OPERAD).")
@click.option("--dendroidal", "dendroidal_spec", default=None, help="Check a stored dendroidal set.")
@click.option("--tree", "terms", multiple=True)
@click.option("--max-vertices", default=3, show_default=True, type=int)
@click.option("--max-inputs", default=4, show_default=True, type=int)
@handle_domain_errors
def segal_check(operad_spec, dendroidal_spec, terms, max_vertices, max_inputs):
    """Exact strict-Segal check: values against core families, every tree."""
    from . import dendroidal as dnd

    if (operad_spec is None) == (dendroidal_spec is None):
        raise click.UsageError("give exactly one of --operad / --dendroidal")
    if operad_spec is not None:
        P = load_operad(operad_spec)
        carrier = _carrier(P, max_vertices, max_inputs, terms)
        X = dnd.nerve(P, trees=carrier)
    else:
        X = load_dendroidal(dendroidal_spec)
        carrier = _parse_trees(terms) if terms else list(X.trees)
    report = dnd.is_strict_segal(X, carrier)
    if not report.passed:
        raise DendroError("strict Segal check failed", report.to_json())
    emit_json(report.to_json())


@main.command()
@click.option("--operad", "operad_spec", default=None, help="Reconstruct from nerve(OPERAD).")
@click.option("--dendroidal", "dendroidal_spec", default=None)
@click.option("--arity-bound", default=3, show_default=True, type=int)
@click.option("--round-trip", is_flag=True, help="Also verify the canonical isomorphism.")
@handle_domain_errors
def reconstruct(operad_spec, dendroidal_spec, arity_bound, round_trip):
    """Reconstruct an operad from a strict-Segal dendroidal set."""
    from . import dendroidal as dnd

    if (operad_spec is None) == (dendroidal_spec is None):
        raise click.UsageError("give exactly one of --operad / --dendroidal")
    if operad_spec is not None:
        P = load_operad(operad_spec, arity_bound)
        if round_trip:
            witness = dnd.nerve_round_trip(P, arity_bound)
            if not witness.ok:
                raise DendroError("round trip failed", witness.to_json())
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
@handle_domain_errors
def psi(k, count_only, as_json, as_dot, ambient):
    """The stratification poset at level K."""
    if as_json and as_dot:
        raise click.UsageError("give at most one of --json / --dot")
    poset = strata.enumerate_psi(k)
    if count_only:
        emit(str(len(poset)))
    elif as_dot:
        emit(poset.to_dot(ambient))
    elif as_json:
        emit_json(poset.to_json(ambient=ambient))
    else:
        emit("\n".join(
            f"{t.term}  dim={strata.stratum_dim(t, ambient)}  codim={t.n_inner_edges}"
            for t in poset.elements
        ))


@main.command("boundary-index")
@click.argument("n", type=int)
@click.option("--count", "count_only", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--dot", "as_dot", is_flag=True)
@click.option("--ambient", default=2, show_default=True, type=int)
@handle_domain_errors
def boundary_index(n, count_only, as_json, as_dot, ambient):
    """The stratification poset without its corolla."""
    if as_json and as_dot:
        raise click.UsageError("give at most one of --json / --dot")
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
            raise DendroError("embedding self-test failed", result)
        emit_json(result)
        return
    if not points_file:
        raise click.UsageError("give --points FILE or --selftest")
    text = read_text(points_file).strip()
    if text.startswith("[") or text.startswith("{"):
        data = parse_json(text)
        pts = data.get("points") if isinstance(data, dict) else data
    else:
        try:
            pts = [[float(x) for x in line.split()] for line in text.splitlines() if line.strip()]
        except ValueError as err:
            raise DomainError("malformed point matrix", {"reason": str(err)})
    config = strata.Configuration(pts)
    emit_json(strata.fm_embed(config).to_json())


# -- connectivity --------------------------------------------------------------------


@main.command()
@click.option("--n", required=True, type=int, help="Source little-disk dimension.")
@click.option("--d", required=True, type=int, help="Codimension.")
@click.option("--k", default=None, type=int, help="Truncation level.")
@click.option("--table", "k_max", default=None, type=int, help="All levels 2..KMAX.")
@click.option("--json", "as_json", is_flag=True)
@handle_domain_errors
def connectivity(n, d, k, k_max, as_json):
    """Layer connectivity of the truncation tower, with its two inputs."""
    if (k is None) == (k_max is None):
        raise click.UsageError("give exactly one of --k / --table")
    ks = [k] if k is not None else list(range(2, k_max + 1))
    rows = [conn.layer_from_parts(conn.TowerQuery(n, d, kk)).to_json() for kk in ks]
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
