import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrokit.cli import main
from dendrokit.fixtures import BUILTIN_OPERADS, BUNDLED_FILES, load_fixture_json
from dendrokit.operads import TableOperad, check_operad_axioms
from dendrokit.trees import MAX_TREE_DEPTH

CLI = [sys.executable, "-m", "dendrokit.cli"]


def run(*args, hashseed="0", check=True):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"command {args} failed rc={proc.returncode}: {proc.stderr[:500]}"
        )
    return proc


def test_psi_counts():
    assert run("psi", "3", "--count").stdout.strip() == "4"
    assert run("psi", "4", "--count").stdout.strip() == "26"


def test_psi_seven_count_under_default_budget():
    # the budget charges the exact number of strata, 39,208 at level 7
    assert run("psi", "7", "--count").stdout.strip() == "39208"


def test_psi_json_and_dot():
    payload = json.loads(run("psi", "3", "--json", "--ambient", "2").stdout)
    assert payload["count"] == 4
    assert all("dim" in e for e in payload["elements"])
    dot = run("psi", "3", "--dot").stdout
    assert dot.startswith("digraph") and dot.count("->") == 3


def test_enum_trees():
    out = run("enum-trees", "--max-edges", "1").stdout.split()
    assert out == ["*", "()"]
    count = run("enum-trees", "--max-edges", "4", "--reduced", "--count").stdout
    assert count.strip() == "8"


def test_hom_and_faces():
    assert run("hom", "(**)", "(**)", "--count").stdout.strip() == "2"
    payload = json.loads(run("faces", "((**)*)", "--json").stdout)
    assert payload["count"] == 3
    kinds = [f["kind"] for f in payload["faces"]]
    assert kinds.count("inner") == 1


def test_factorize_round_trip():
    morphisms = json.loads(run("hom", "(())", "(())", "--json").stdout)["morphisms"]
    for m in morphisms:
        out = json.loads(run("factorize", json.dumps(m)).stdout)
        assert "degeneracies" in out and "faces" in out and "isomorphism" in out


def test_subtrees_and_classify():
    assert run("subtrees", "(()())", "--count").stdout.strip() == "6"
    payload = json.loads(run("classify", "(()()(()))", "--json").stdout)
    assert payload["is_reduced"] is True
    assert payload["extended_corolla"] == [{"n": 3, "chain_length": 1}]


def test_bundled_tree_names():
    payload = json.loads(run("classify", "chapter1_example", "--json").stdout)
    assert payload["n_edges"] == 6


def test_operad_check_and_free():
    payload = json.loads(run("operad", "check", "com", "--arity-bound", "3").stdout)
    assert payload["passed"] is True
    out = run("operad", "build-free", "--level", "2=1", "--arity-bound", "5").stdout
    assert out.splitlines() == [
        "level 1: 1",
        "level 2: 1",
        "level 3: 3",
        "level 4: 15",
        "level 5: 105",
    ]


def test_operad_show_round_trip(tmp_path):
    shown = run("operad", "show", "ass", "--arity-bound", "2").stdout
    path = tmp_path / "ass2.operad.json"
    path.write_text(shown)
    payload = json.loads(run("operad", "check", str(path), "--arity-bound", "2").stdout)
    assert payload["passed"] is True


def test_nerve_counts():
    payload = json.loads(
        run("nerve", "ass", "--counts", "--max-vertices", "2", "--max-inputs", "3").stdout
    )
    assert payload["values"]["(**)"] == 2
    assert payload["values"]["(***)"] == 6


def test_segal_check_counts_a_repeated_tree_once():
    # both terms name the canonical tree ((**)*)
    proc = run("segal-check", "--operad", "com", "--tree", "((**)*)", "--tree", "(*(**))")
    assert json.loads(proc.stdout)["trees_checked"] == 1
    table = run("segal-check", "--dendroidal", "corrupted.dendroidal.json",
                "--tree", "(**)", "--tree", "(**)", "--tree", "*")
    assert json.loads(table.stdout)["trees_checked"] == 2


def test_nerve_lists_a_repeated_tree_once():
    payload = json.loads(run("nerve", "com", "--tree", "(**)", "--tree", "*", "--tree", "(**)").stdout)
    assert payload["trees"] == ["*", "(**)"]
    assert sorted(payload["values"]) == ["(**)", "*"]


# sha256 of stdout, NUL, stderr, NUL and the exit code of each dendroidal
# command under PYTHONHASHSEED=0: a changed digest is a changed output, so a
# change to how nerves are stored or restricted must leave these as they are
PINNED_DENDROIDAL_OUTPUT = {
    ("nerve", "ass"):
        "97163fca8c212c74c894c670e2f598bb367949cd1633f52534e7fa0d2075e89d",
    ("nerve", "end01", "--max-vertices", "3", "--max-inputs", "2"):
        "544c99baea1690a4d466d3a10c855d62617f7c85779ad99fdf9bdc37e7a82220",
    ("nerve", "free-binary", "--max-vertices", "2"):
        "1700455ab0c75ac8dd2bd5774390ed1c40fc1ef9ff52f55fb0596cecccf5293b",
    ("nerve", "ass", "--max-vertices", "4", "--max-inputs", "4", "--counts"):
        "9eac2614eae96606fbd19e7cc20ccade73ae975d9babd670f97dd4fd4080629c",
    ("segal-check", "--dendroidal", "corrupted.dendroidal.json"):
        "a24f1bb9cd92d2fe097fc7a5cda77a3cd2c0c528ef71d8bc50bfbd8a6a3f3412",
    ("segal-check", "--operad", "end01", "--max-vertices", "3", "--max-inputs", "2"):
        "daa43f9e0c551ec5ff60ea886a5dce5f15e98a63c4e0bafb6bf78a1af68d1937",
    ("reconstruct", "--operad", "ass", "--arity-bound", "3", "--round-trip"):
        "77401d3f6c2662bb1a9ba96a2d19c41f3b54579f3f55bbf2cc1a6e38134879e7",
    ("reconstruct", "--operad", "end01", "--arity-bound", "2"):
        "490e0d7befabfb3f8d1e72e11bf4cef8c1907dd4d88aecea82b8cc823f066ef9",
}


def test_dendroidal_output_bytes_are_pinned():
    env = dict(os.environ, PYTHONHASHSEED="0")
    digests = {}
    for args in PINNED_DENDROIDAL_OUTPUT:
        proc = subprocess.run(CLI + list(args), capture_output=True, env=env, timeout=300)
        out = proc.stdout + b"\0" + proc.stderr + b"\0" + b"%d" % proc.returncode
        digests[args] = hashlib.sha256(out).hexdigest()
    assert digests == PINNED_DENDROIDAL_OUTPUT


# the same digests for the tree layer: faces, subtree inclusions and the
# classification of trees with stumps, labels and isomorphic branches, a hom
# set and the criterion-12 factorization, as they stood before the faces and
# subtree inclusions were built by one walker
PINNED_TREE_OUTPUT = {
    ("faces", "((**)*)", "--json"):
        "1e671f082dc8ef3bf3b169af67117beec4222c6ba7c07eb1fb71e34be1362484",
    ("subtrees", "((**)*)", "--json"):
        "42056f4afd1297b56cc2e22ecc394ed5c0d41905cd3f1c80b1700262449fed86",
    ("classify", "((**)*)", "--json"):
        "8614c9f9d22cbde740d0fddea1402e11ba0204555046ecf8777a7a267214acc9",
    ("faces", "((()))", "--json"):
        "bb59a3882f50c0051daf2ab4f0441eae14f9841d7f52ec1481b25b6ed7c21cff",
    ("subtrees", "((()))", "--json"):
        "94130ddbb6556ad81aabf480a6f6b4eed5c934980fde91f8561fd10aae67eec6",
    ("classify", "((()))", "--json"):
        "fab769bcc2c4d45722b3826df2090a83fbb148179812e4e5cb7976405c3d2819",
    ("faces", "(()(()))", "--json"):
        "be4e9b3d12cef83ee2a7427dd2069d36cd9b0b40e9af0ae2482f54f8fadf080b",
    ("subtrees", "(()(()))", "--json"):
        "444e5f6e65d21e27bc6332d09726742b789614786fa7206e09051bf7ff3939b7",
    ("classify", "(()(()))", "--json"):
        "9777f9857fd0cba745e8d1f33558bf96b616a36224404e4f31e954ea27846235",
    ("faces", "((***)(***)(***))", "--json"):
        "76a57f0103e9c11d1f9a8fe958da8cbca0a3877ecabf7eab346852743257203a",
    ("subtrees", "((***)(***)(***))", "--json"):
        "fdfabbfed11313dac2fd920c514734422b61974fb5f1715a711e33aa1ef08281",
    ("classify", "((***)(***)(***))", "--json"):
        "5aecb6cbbc32d59b528ed3c11299eddc21857ea3e0272368a53a2acb70bfe6ef",
    ("faces", "((*@a*@b)(*@c()))", "--json"):
        "83bd85fa9266e4423ea797481ebce7006d074e6a5623e9d3a220599518662ad5",
    ("subtrees", "((*@a*@b)(*@c()))", "--json"):
        "eaaa617a6d0110fad86e3fe5dbdeba10e3389eb748da720e78588c3487535215",
    ("classify", "((*@a*@b)(*@c()))", "--json"):
        "7984d2f1ec38b9c643a0a56fbb5997c033c0d99be1391108af24e0f4e42e552b",
    ("faces", "((()*)(**)())", "--json"):
        "7383c8f628c39a36afff004c32298954bca081107c2cf9a09c7d99ce285b4290",
    ("subtrees", "((()*)(**)())", "--json"):
        "ee8259089e2e4efc8ab2312a05587da9c8b87c56ff836beb21ac20ef19bd61ee",
    ("classify", "((()*)(**)())", "--json"):
        "f2bf4e984d24b6a6d25497d3a8ad8eb8cb743630fc38d14c0cc4afbace269191",
    ("hom", "(**)", "(*(**))", "--json"):
        "7cea8464f73a18e54482da46bd16ba334c29b5596b7fe6530c836e123cf38ee7",
    ("factorize", '{"source_key": "*", "target_key": "(**)", "edge_map": {"": "0"}}'):
        "42743cf81bbef767213cc9248d704a8ab6c9b63a2763a75351f6d36e1a760a50",
}


def test_tree_output_bytes_are_pinned():
    env = dict(os.environ, PYTHONHASHSEED="0")
    digests = {}
    for args in PINNED_TREE_OUTPUT:
        proc = subprocess.run(CLI + list(args), capture_output=True, env=env, timeout=300)
        out = proc.stdout + b"\0" + proc.stderr + b"\0" + b"%d" % proc.returncode
        digests[args] = hashlib.sha256(out).hexdigest()
    assert digests == PINNED_TREE_OUTPUT


def test_segal_check_pass_and_fail():
    ok = run(
        "segal-check", "--operad", "ass.operad.json", "--max-vertices", "3",
        "--max-inputs", "3",
    )
    payload = json.loads(ok.stdout)
    assert payload["passed"] is True and payload["trees_checked"] == 73

    bad = run("segal-check", "--dendroidal", "corrupted.dendroidal.json", check=False)
    assert bad.returncode == 1
    assert bad.stdout == ""
    detail = json.loads(bad.stderr)
    assert detail["error"] == "strict Segal check failed"
    assert detail["detail"]["failures"][0]["tree"] == "(*(**))"


def test_segal_check_missing_action_entry(tmp_path):
    from dendrokit.fixtures import load_fixture_json

    payload = load_fixture_json("corrupted.dendroidal.json")
    face = next(
        a for a in payload["actions"]
        if a["morphism"]["source_key"] == "(**)" and "(*(**))#0" in a["map"]
    )
    del face["map"]["(*(**))#0"]
    path = tmp_path / "missing.dendroidal.json"
    path.write_text(json.dumps(payload))
    bad = run("segal-check", "--dendroidal", str(path), check=False)
    assert bad.returncode == 1
    assert bad.stdout == ""
    err = json.loads(bad.stderr)
    assert set(err) == {"error", "detail"}
    failure = err["detail"]["failures"][0]
    assert failure["reason"] == "restriction unavailable"
    assert failure["detail"]["error"] == "stored action has no entry for value"
    assert failure["detail"]["detail"]["value"] == "(*(**))#0"
    assert failure["detail"]["detail"]["morphism"] == face["morphism"]


class TestCheckFailures:
    """A failed check exits 1 with nothing on stdout and one line on stderr:
    the {"error","detail"} object with sorted keys."""

    def test_segal_check_corrupted(self):
        proc = run("segal-check", "--dendroidal", "corrupted.dendroidal.json", check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            '{"detail": {"dendroidal_set": "corrupted.dendroidal.json", "failures": '
            '[{"core_count": 4, "reason": "not surjective", "tree": "(*(**))", '
            '"value_count": 2}], "passed": false, "trees_checked": 4}, '
            '"error": "strict Segal check failed"}\n'
        )

    def test_operad_check_corrupted_table(self, tmp_path):
        table = json.loads(run("operad", "show", "ass", "--arity-bound", "2").stdout)
        next(c for c in table["comp"] if c["result"] == "01")["result"] = "10"
        path = tmp_path / "corrupt.operad.json"
        path.write_text(json.dumps(table))
        proc = run("operad", "check", str(path), "--arity-bound", "2", check=False)
        report = check_operad_axioms(TableOperad.from_json(table), 2).to_json()
        assert not report["passed"] and report["violations"]
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == json.dumps(
            {"error": "operad axioms violated", "detail": report}, sort_keys=True
        ) + "\n"


def test_reconstruct_round_trip_flag():
    out = run("reconstruct", "--operad", "ass", "--arity-bound", "2", "--round-trip")
    payload = json.loads(out.stdout)
    assert payload["ok"] is True


def test_round_trip_of_a_composite_outside_its_hom(tmp_path):
    # one binary composite of the ass table is "bogus": P has no image for
    # it, and Q, read from P's nerve, composes it where another grafting meets it
    table = load_fixture_json("ass.operad.json")
    next(c for c in table["comp"] if sum(len(ch["inputs"]) for ch in c["children"]) == 2)[
        "result"
    ] = "bogus"
    path = tmp_path / "bogus.operad.json"
    path.write_text(json.dumps(table))
    proc = run("reconstruct", "--operad", str(path), "--arity-bound", "2", "--round-trip", check=False)
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    parent = "Signature(inputs=('x', 'x'), output='x')"
    assert proc.stderr == json.dumps(
        {
            "error": "round trip failed",
            "detail": {
                "ok": False,
                "colors": {"x": "(('x',), ())"},
                "signatures": {
                    "(('x', 'x'), 'x')": {
                        "01": "(('x', 'x', 'x'), ('01',))",
                        "10": "(('x', 'x', 'x'), ('10',))",
                    },
                    "(('x',), 'x')": {"0": "(('x', 'x'), ('0',))"},
                    "((), 'x')": {"": "(('x',), ('',))"},
                },
                "instances_checked": 28,
                "failures": [
                    {"law": "composition", "parent": parent, "f": "01", "gs": ["", "01"]},
                    {"law": "composition", "parent": parent, "f": "10", "gs": ["01", ""]},
                ],
            },
        },
        sort_keys=True,
    ) + "\n"


def test_import_leaves_the_law_checker_unloaded():
    # only `operad check` and `--round-trip` import dendrokit.laws, and only
    # the dendroidal commands and the FM coordinates import numpy
    code = "import sys, dendrokit.cli; print('dendrokit.laws' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_every_cache_is_bounded():
    import functools
    import importlib
    import pkgutil

    import dendrokit

    caches = []
    for info in pkgutil.walk_packages(dendrokit.__path__, "dendrokit."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == info.name:
                caches.append((info.name, name, obj.cache_parameters()["maxsize"]))
    assert caches
    assert [c for c in caches if c[2] is None] == []


def test_reconstruct_names_grafted_tree_outside_carrier(tmp_path):
    # arity 3 composes a ternary operation with three nullary ones on the
    # grafted tree (()()()), which has four vertices: outside the default
    # nerve carrier of at most three
    path = tmp_path / "ass.dendroidal.json"
    path.write_text(run("nerve", "ass").stdout)
    proc = run("reconstruct", "--dendroidal", str(path), "--arity-bound", "3", check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "tree not in carrier",
        "detail": {"tree": "(()()())"},
    }
    bound_two = run("reconstruct", "--dendroidal", str(path), "--arity-bound", "2")
    assert json.loads(bound_two.stdout)["arity_bound"] == 2


def test_boundary_and_cobound():
    assert run("boundary-index", "3", "--count").stdout.strip() == "3"
    assert run("boundary-index", "4", "--count").stdout.strip() == "25"
    payload = json.loads(run("cobound-index", "3").stdout)
    assert payload["count"] == 7
    assert payload["order_isomorphic_to_proper_subsets"] is True


def test_fm_embed_points(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0], [2.0]]}))
    payload = json.loads(run("fm-embed", "--points", str(path)).stdout)
    assert payload["b"]["1,2,3"] == 0.5
    # whitespace format too
    path2 = tmp_path / "points.txt"
    path2.write_text("0 0\n1 0\n")
    payload2 = json.loads(run("fm-embed", "--points", str(path2)).stdout)
    assert payload2["a"]["2,1"] == [1.0, 0.0]


def test_fm_selftest_seeded():
    out = run("fm-embed", "--selftest", "--trials", "25", "--seed", "9")
    payload = json.loads(out.stdout)
    assert payload["passed"] is True


def test_connectivity_output():
    out = run("connectivity", "--n", "2", "--d", "2", "--k", "2").stdout
    assert out.strip() == "k=2  layer=1  cobound=2  celldim=1"
    payload = json.loads(run("connectivity", "--n", "2", "--d", "3", "--table", "4", "--json").stdout)
    assert [r["layer"] for r in payload["rows"]] == [2, 3, 4]
    assert all(r["global"] == 2 for r in payload["rows"])


class TestErrorPaths:
    def test_usage_error_exit_two(self):
        proc = run("psi", check=False)
        assert proc.returncode == 2

    def test_unknown_verb(self):
        proc = run("frobnicate", check=False)
        assert proc.returncode == 2

    def test_domain_error_exit_one_and_silent_stdout(self):
        proc = run("psi", "1", "--count", check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        payload = json.loads(proc.stderr)
        assert "error" in payload and "detail" in payload

    def test_parse_error(self):
        proc = run("classify", "((*", check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["detail"]["position"] == 3

    def test_budget_error(self):
        env_args = ["hom", "(()()()())", "(()()()())", "--max-maps", "10"]
        proc = run(*env_args, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "budget exceeded"

    def test_free_operad_budget(self):
        env = dict(os.environ, PYTHONHASHSEED="0", DENDRO_BUDGET="0")
        proc = subprocess.run(
            CLI + ["operad", "build-free", "--level", "2=3", "--arity-bound", "4"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        payload = json.loads(proc.stderr)
        assert payload["error"] == "budget exceeded"
        assert payload["detail"]["operation"] == "free operad elements"
        assert payload["detail"]["budget"] == 0

    @pytest.mark.parametrize("command", ["psi", "boundary-index"])
    def test_json_and_dot_together(self, command):
        proc = run(command, "3", "--json", "--dot", check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "--json / --dot" in proc.stderr

    def test_budget_env_override(self):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        env["DENDRO_BUDGET"] = "10"
        proc = subprocess.run(
            CLI + ["hom", "(()()()())", "(()()()())"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        payload = json.loads(proc.stderr)
        assert payload["error"] == "budget exceeded"
        assert payload["detail"]["budget"] == 10


class TestInputErrors:
    """Unreadable or malformed input ends in exit 1 with a JSON error on
    stderr, not a traceback."""

    @staticmethod
    def error_of(*args):
        proc = run(*args, check=False)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        payload = json.loads(proc.stderr)
        assert set(payload) == {"error", "detail"}
        return payload

    def test_factorize_malformed_json(self):
        payload = self.error_of("factorize", "{bad")
        assert payload["error"] == "malformed JSON"
        assert payload["detail"]["position"] == 1

    def test_factorize_missing_fields(self):
        payload = self.error_of("factorize", '{"source_key":"*"}')
        assert payload["detail"] == {"fields": ["target_key", "edge_map"]}

    def test_fm_embed_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.json")
        payload = self.error_of("fm-embed", "--points", path)
        assert payload["error"] == "cannot read input file"
        assert payload["detail"]["path"] == path

    def test_fm_embed_ragged_points(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text("[[0,0,0],[1,2]]")
        payload = self.error_of("fm-embed", "--points", str(path))
        assert payload["error"] == "points must be a k x n array"

    @pytest.mark.parametrize("coordinate", ["NaN", "Infinity", "-Infinity"])
    def test_fm_embed_non_finite_points(self, tmp_path, coordinate):
        path = tmp_path / "points.json"
        path.write_text(f"[[0,0],[1,{coordinate}],[2,1]]")
        payload = self.error_of("fm-embed", "--points", str(path))
        assert payload == {"error": "points must be finite", "detail": {}}

    MEANINGLESS = [
        (("psi", "3", "--ambient", "0"), "ambient dimension must be >= 1", {"n": 0}),
        (("psi", "3", "--dot", "--ambient", "0"), "ambient dimension must be >= 1", {"n": 0}),
        (("psi", "3", "--json", "--ambient", "0"), "ambient dimension must be >= 1", {"n": 0}),
        (("boundary-index", "3", "--dot", "--ambient", "-2"), "ambient dimension must be >= 1", {"n": -2}),
        (("fm-embed", "--selftest", "--trials", "-5"), "trials must be >= 1", {"trials": -5}),
        (("fm-embed", "--selftest", "--trials", "0"), "trials must be >= 1", {"trials": 0}),
        (("fm-embed", "--selftest", "--seed", "-1"), "seed must be >= 0", {"seed": -1}),
        (("operad", "build-free", "--level", "-1=1"), "generator arity must be >= 0", {"arities": [-1]}),
        (
            ("reconstruct", "--dendroidal", "com.operad.json"),
            "malformed dendroidal set JSON",
            {"field": ["trees"], "problem": "missing"},
        ),
        (("operad", "check", "trees.json"), "malformed operad JSON", {"field": ["colors"], "problem": "missing"}),
        (
            ("segal-check", "--operad", ""),
            "operad not found",
            {"spec": "", "builtins": list(BUILTIN_OPERADS), "bundled": list(BUNDLED_FILES)},
        ),
    ]

    @pytest.mark.parametrize("args,error,detail", MEANINGLESS, ids=[" ".join(case[0]) for case in MEANINGLESS])
    def test_meaningless_operands(self, args, error, detail):
        assert self.error_of(*args) == {"error": error, "detail": detail}

    # the commands that read an operad or a dendroidal set from a file
    FILE_COMMANDS = [
        ("segal-check", "--dendroidal"),
        ("reconstruct", "--dendroidal"),
        ("operad", "check"),
        ("reconstruct", "--operad"),
    ]

    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
    def test_malformed_json_file(self, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        payload = self.error_of(*command, str(path))
        assert payload["error"] == "malformed JSON"
        assert payload["detail"]["position"] == 1

    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize(
        "text,dendroidal_field,operad_field",
        [
            ('{"trees":["*"],"values":{},"actions":[]}', (["values", "*"], "missing"), (["colors"], "missing")),
            ("[1,2]", ([], "expected an object"), ([], "expected an object")),
            ('{"colors":["x"]}', (["trees"], "missing"), (["homs"], "missing")),
            (
                '{"trees":"*","values":{},"actions":[],"colors":["x"],"identities":{},"comp":[],'
                '"sym":[],"homs":[{"inputs":"x","output":"x","elements":[]}]}',
                (["trees"], "expected a list"),
                (["homs", 0, "inputs"], "expected a list"),
            ),
        ],
        ids=["missing-values", "list", "colors-only", "ill-typed"],
    )
    def test_ill_shaped_file(self, tmp_path, command, text, dendroidal_field, operad_field):
        path = tmp_path / "shape.json"
        path.write_text(text)
        payload = self.error_of(*command, str(path))
        kind, (field, problem) = (
            ("dendroidal set", dendroidal_field) if "--dendroidal" in command else ("operad", operad_field)
        )
        assert payload == {"error": f"malformed {kind} JSON", "detail": {"field": field, "problem": problem}}

    @pytest.mark.parametrize("command", FILE_COMMANDS + [("fm-embed", "--points"), ("factorize",)], ids=" ".join)
    def test_undecodable_file(self, tmp_path, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        payload = self.error_of(*command, str(path))
        assert payload["error"] == "cannot read input file"
        assert payload["detail"]["path"] == str(path)

    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
    def test_missing_file(self, tmp_path, command):
        path = str(tmp_path / "absent.json")
        payload = self.error_of(*command, path)
        expected = "dendroidal set not found" if "--dendroidal" in command else "operad not found"
        assert payload["error"] == expected
        assert payload["detail"]["spec"] == path

    def test_non_integer_budget(self, monkeypatch):
        monkeypatch.setenv("DENDRO_BUDGET", "1e6")
        payload = self.error_of("enum-trees", "--max-edges", "3")
        assert payload == {"error": "invalid DENDRO_BUDGET", "detail": {"value": "1e6"}}


def test_carrier_is_charged_its_tree_count(monkeypatch):
    """The 1,021 trees of (4, 4) are charged as 1,021, so a budget far
    below the old (max_inputs + 2) ** (2 * max_vertices + 1) admits them."""
    monkeypatch.setenv("DENDRO_BUDGET", "5000000")
    counts = json.loads(run("nerve", "ass", "--max-vertices", "4", "--max-inputs", "4", "--counts").stdout)
    assert len(counts["values"]) == 1021
    monkeypatch.setenv("DENDRO_BUDGET", "1020")
    proc = run("enum-trees", "--max-vertices", "4", "--max-inputs", "4", "--count", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["detail"] == {
        "operation": "enumerate_trees_by_vertices", "estimate": 1021, "budget": 1020,
    }


class TestDeepTerms:
    """Terms nested beyond MAX_TREE_DEPTH are parse errors, not a stack
    overflow."""

    def test_classify_beyond_max_depth(self):
        depth = MAX_TREE_DEPTH + 1
        proc = run("classify", "(" * depth + ")" * depth, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "tree nested too deeply",
            "detail": {"position": MAX_TREE_DEPTH},
        }

    def test_classify_stump_chain_at_max_depth(self):
        # every degeneracy of the chain re-canonicalizes a chain one shorter
        term = "(" * MAX_TREE_DEPTH + ")" * MAX_TREE_DEPTH
        start = time.perf_counter()
        proc = run("classify", term, "--json")
        assert time.perf_counter() - start < 5
        assert json.loads(proc.stdout)["n_edges"] == MAX_TREE_DEPTH

    def test_classify_at_max_depth(self):
        term = "(" * MAX_TREE_DEPTH + "*" + ")" * MAX_TREE_DEPTH
        proc = run("classify", term, "--json")
        assert json.loads(proc.stdout)["n_edges"] == MAX_TREE_DEPTH + 1


DETERMINISM_COMMANDS = [
    ("psi", "4", "--json"),
    ("enum-trees", "--max-edges", "5", "--max-inputs", "3"),
    ("hom", "(**)", "(*(**))", "--json"),
    ("segal-check", "--operad", "ass", "--max-vertices", "2", "--max-inputs", "3"),
    ("connectivity", "--n", "3", "--d", "4", "--table", "6", "--json"),
]


@pytest.mark.parametrize("args", DETERMINISM_COMMANDS, ids=lambda a: a[0])
def test_deterministic_across_hashseed_and_workers(args):
    runs = [
        run(*args, hashseed="1").stdout,
        run(*args, hashseed="31337").stdout,
        run("--workers", "4", *args, hashseed="7").stdout,
    ]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0] != ""


# -- fuzzed invocations --------------------------------------------------------------

_NUMBERS = st.integers(-3, 6).map(str)
_TREES = st.one_of(
    st.sampled_from(["*", "()", "(**)", "(*(**))", "(()*)", "chapter1_example", "reduced_corolla_2"]),
    st.text("()*@a,", max_size=10),
)
# operands that name nothing, a builtin, a bundled file, or the file
# `input.json` that each example writes
_SPECS = st.sampled_from(
    ["com", "ass", "end01", "free-binary", "com.operad.json", "corrupted.dendroidal.json",
     "input.json", "-", "absent.json", ""]
)
_FILE_TEXT = st.one_of(
    st.sampled_from([
        "", "{", "[1,2]", "null", '{"trees":["*"],"values":{},"actions":[]}', '{"colors":["x"]}',
        '{"points":[[0,0],[1,2],[3,1]]}', "[[0,0],[1,NaN]]", "0 0\n1 2\n3 x",
        '{"source_key":"*","target_key":"*","edge_map":{}}', '{"source_key":"*","target_key":"*","edge_map":{"":""}}',
    ]),
    st.text(max_size=20),
).map(str.encode) | st.binary(max_size=20)
# DENDRO_BUDGET is always set: the default budget admits jobs that run past
# 20 s (`operad check ass --arity-bound 6`, `enum-trees --max-vertices 6
# --max-inputs 6`), while 10**5 keeps each command well under a second
_BUDGETS = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(10**3, 10**5).map(str),
    st.sampled_from(["", "abc", "1e6", "1.5", " 7 ", "0x10"]),
)


@st.composite
def _invocation(draw):
    """A command line: a command, its operands and a random choice of its
    options and flags."""

    def options(*pairs, flags=()):
        args = []
        for name, values in pairs:
            for _ in range(draw(st.integers(0, 2 if name in ("--tree", "--level") else 1))):
                args += [name, draw(values)]
        return args + [flag for flag in flags if draw(st.booleans())]

    out = ["--json", "--count"]
    commands = {
        "enum-trees": lambda: options(("--max-edges", _NUMBERS), ("--max-vertices", _NUMBERS),
                                      ("--max-inputs", _NUMBERS), flags=("--reduced", *out)),
        "hom": lambda: [draw(_TREES), draw(_TREES)] + options(("--max-maps", _NUMBERS), flags=out),
        "faces": lambda: [draw(_TREES)] + options(flags=out[:1]),
        "factorize": lambda: [draw(_SPECS | _FILE_TEXT.map(lambda b: b.decode(errors="replace")))],
        "subtrees": lambda: [draw(_TREES)] + options(flags=out),
        "classify": lambda: [draw(_TREES)] + options(flags=out[:1]),
        "operad check": lambda: [draw(_SPECS)] + options(("--arity-bound", _NUMBERS)),
        "operad show": lambda: [draw(_SPECS)] + options(("--arity-bound", _NUMBERS)),
        "operad build-free": lambda: options(
            ("--level", st.one_of(st.builds("{}={}".format, _NUMBERS, _NUMBERS), st.text("=2x", max_size=4))),
            ("--arity-bound", _NUMBERS), flags=out[:1]),
        "nerve": lambda: [draw(_SPECS)] + options(("--tree", _TREES), ("--max-vertices", _NUMBERS),
                                                  ("--max-inputs", _NUMBERS), flags=("--counts",)),
        "segal-check": lambda: options(("--operad", _SPECS), ("--dendroidal", _SPECS), ("--tree", _TREES),
                                       ("--max-vertices", _NUMBERS), ("--max-inputs", _NUMBERS)),
        "reconstruct": lambda: options(("--operad", _SPECS), ("--dendroidal", _SPECS),
                                       ("--arity-bound", _NUMBERS), flags=("--round-trip",)),
        "psi": lambda: [draw(_NUMBERS)] + options(("--ambient", _NUMBERS), flags=(*out, "--dot")),
        "boundary-index": lambda: [draw(_NUMBERS)] + options(("--ambient", _NUMBERS), flags=(*out, "--dot")),
        "cobound-index": lambda: [draw(_NUMBERS)] + options(flags=out),
        # the self-test runs 1000 trials unless told otherwise
        "fm-embed": lambda: ["--trials", draw(_NUMBERS)] + options(("--points", _SPECS), ("--seed", _NUMBERS),
                                                                  flags=("--selftest",)),
        "connectivity": lambda: options(("--n", _NUMBERS), ("--d", _NUMBERS), ("--k", _NUMBERS),
                                        ("--table", _NUMBERS), flags=out[:1]),
    }
    command = draw(st.sampled_from(sorted(commands)))
    workers = options(("--workers", _NUMBERS))
    return workers + command.split() + commands[command]()


@settings(deadline=None, derandomize=True, max_examples=300)
@given(args=_invocation(), text=_FILE_TEXT, budget=_BUDGETS)
def test_fuzzed_commands_end_cleanly(args, text, budget):
    """Every command, on random and malformed operands and small or
    negative numbers, exits 0, 1 or 2 without a traceback; exit 1 ends
    stderr with a JSON error and --json output parses."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("input.json", "wb") as fh:
            fh.write(text)
        result = runner.invoke(main, args, input=text, env={"DENDRO_BUDGET": budget})
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.stderr
    if result.exit_code == 1:
        payload = json.loads(result.stderr.splitlines()[-1])
        assert isinstance(payload, dict) and {"error", "detail"} <= set(payload), args
    elif result.exit_code == 0 and "--json" in args:
        json.loads(result.stdout)
