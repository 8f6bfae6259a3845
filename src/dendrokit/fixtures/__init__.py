"""Bundled data: example trees, operad tables, and a deliberately corrupted
dendroidal set for exercising the Segal checker's failure path."""

import json
from importlib import resources

from ..errors import DomainError
from ..operads import (
    TableOperad,
    ass_operad,
    com_operad,
    end_operad,
    free_operad,
    one_binary_generator,
)

BUILTIN_OPERADS = ("com", "ass", "end01", "free-binary")
BUNDLED_FILES = (
    "trees.json",
    "com.operad.json",
    "ass.operad.json",
    "end01.operad.json",
    "corrupted.dendroidal.json",
)


def fixture_text(name):
    return resources.files("dendrokit.fixtures").joinpath(name).read_text()


def load_fixture_json(name):
    return json.loads(fixture_text(name))


def bundled_trees():
    """Named example tree terms (the six-edge running example and the
    stump-capped corollas)."""
    return load_fixture_json("trees.json")


def builtin_operad(name, arity_bound=None):
    if name == "com":
        return com_operad()
    if name == "ass":
        return ass_operad(arity_bound or 4)
    if name == "end01":
        return end_operad((0, 1), arity_bound or 2)
    if name == "free-binary":
        return free_operad(one_binary_generator(), arity_bound or 4)
    raise DomainError("unknown builtin operad", {"name": name, "known": BUILTIN_OPERADS})


# JSON shapes: a type, a one-item list (a list of that shape), a dict of
# required fields, or {str: shape} (an object whose every value has it)
_SCALAR = (str, int, float, bool, type(None))
_ELEMENT = {"inputs": [_SCALAR], "output": _SCALAR, "element": _SCALAR}
_OPERAD = {
    "colors": [_SCALAR],
    "homs": [{"inputs": [_SCALAR], "output": _SCALAR, "elements": [_SCALAR]}],
    "identities": {str: _SCALAR},
    "comp": [{"parent": _ELEMENT, "children": [_ELEMENT], "result": _SCALAR}],
    "sym": [dict(_ELEMENT, perm=[int], result=_SCALAR)],
}
_DENDROIDAL = {
    "trees": [str],
    "values": {str: [_SCALAR]},
    "actions": [
        {
            "morphism": {"source_key": str, "target_key": str, "edge_map": {str: str}},
            "map": {str: _SCALAR},
        }
    ],
}


def parse_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DomainError("malformed JSON", {"reason": err.msg, "position": err.pos})


def _misfit(value, shape, path=()):
    """(path, problem) of the first field of `value` that does not have
    `shape`, or None."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            return list(path), "expected a list"
        items = [(i, item, shape[0]) for i, item in enumerate(value)]
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            return list(path), "expected an object"
        missing = [key for key in shape if key is not str and key not in value]
        if missing:
            return list(path) + [missing[0]], "missing"
        if str in shape:
            items = [(key, item, shape[str]) for key, item in value.items()]
        else:
            items = [(key, value[key], shape[key]) for key in shape]
    else:
        return None if isinstance(value, shape) else (list(path), f"expected {_TYPE_NAMES[shape]}")
    for key, item, item_shape in items:
        if isinstance(item_shape, (list, dict)) or not isinstance(item, item_shape):
            found = _misfit(item, item_shape, path + (key,))
            if found:
                return found
    return None


_TYPE_NAMES = {str: "a string", int: "an integer", _SCALAR: "a string, number, boolean or null"}


def _read_payload(spec, what, shape):
    """The JSON object in the bundled file or the file `spec`, checked
    against `shape`; None when there is no such file.  The loaders read a
    bundled file of their own kind directly: its builder is tested."""
    if spec in BUNDLED_FILES:
        text = fixture_text(spec)
    else:
        try:
            with open(spec) as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as err:
            reason = getattr(err, "strerror", None) or str(err)
            raise DomainError("cannot read input file", {"path": spec, "reason": reason})
    payload = parse_json(text)
    found = _misfit(payload, shape)
    if found:
        raise DomainError(f"malformed {what} JSON", {"field": found[0], "problem": found[1]})
    return payload


def load_operad(spec, arity_bound=None):
    """An operad from a builtin name, a bundled ``*.operad.json`` fixture
    name, or a path to an operad JSON file."""
    if spec in BUILTIN_OPERADS:
        return builtin_operad(spec, arity_bound)
    if spec in BUNDLED_FILES and spec.endswith(".operad.json"):
        return TableOperad.from_json(load_fixture_json(spec))
    payload = _read_payload(spec, "operad", _OPERAD)
    if payload is None:
        raise DomainError(
            "operad not found",
            {"spec": spec, "builtins": BUILTIN_OPERADS, "bundled": BUNDLED_FILES},
        )
    if not isinstance(payload.get("arity_bound"), (int, type(None))):
        detail = {"field": ["arity_bound"], "problem": "expected an integer or null"}
        raise DomainError("malformed operad JSON", detail)
    return TableOperad.from_json(payload)


def load_dendroidal(spec):
    """A TableDendroidalSet from a bundled fixture name or a file path."""
    from ..dendroidal import TableDendroidalSet  # here, so that loading the CLI imports no numpy

    if spec in BUNDLED_FILES and spec.endswith(".dendroidal.json"):
        return TableDendroidalSet.from_json(load_fixture_json(spec), name=spec)
    payload = _read_payload(spec, "dendroidal set", _DENDROIDAL)
    if payload is None:
        raise DomainError("dendroidal set not found", {"spec": spec})
    for term in payload["trees"]:
        if term not in payload["values"]:
            detail = {"field": ["values", term], "problem": "missing"}
            raise DomainError("malformed dendroidal set JSON", detail)
    return TableDendroidalSet.from_json(payload, name=spec)
