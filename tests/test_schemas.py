"""The input-file shape check against jsonschema, on single edits of valid files."""

import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcobs.observability import load_psi, verify_psi
from funcobs.synthesis import (
    design_linear_observer,
    linear_realization,
    make_alphas,
    poles_to_alphas,
    synthesize_nonlinear,
)
from funcobs.system import (
    SystemDefError,
    builtin_batch_reactor,
    builtin_cstr,
    builtin_double_integrator,
    check_shape,
    data_path,
    linear_to_system,
    shipped_schema,
)


def _data(name):
    return json.loads(data_path(name).read_text())


def _batch_observer():
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(builtin_batch_reactor(), rep)
    return synthesize_nonlinear(rep, poles_to_alphas([-2]))


# valid documents of each input kind: the builtins, the shipped data files
# and saved observers; the observer schema is checked one oneOf branch at a time
VALID = {
    "system": [
        builtin_batch_reactor().to_dict(),
        builtin_cstr().to_dict(),
        linear_to_system(builtin_double_integrator()).to_dict(),
    ],
    "linear_system": [_data("lin_double_integrator.json")],
    "psi": [_data("psi_batch.json"), _data("psi_cstr.json")],
    "observer-T": [_batch_observer().to_dict()],
    "observer-A": [
        design_linear_observer(builtin_double_integrator(), [-3]).to_dict(),
        linear_realization(make_alphas([3.0, 2.0]), [[1.0, 0.5], [2.0, 0.0], [3.0, 1.0]]).to_dict(),
    ],
}
SCHEMAS = {
    "system": shipped_schema("system"),
    "linear_system": shipped_schema("linear_system"),
    "psi": shipped_schema("psi"),
    "observer-T": shipped_schema("observer")["oneOf"][0],
    "observer-A": shipped_schema("observer")["oneOf"][1],
}
VALIDATORS = {kind: jsonschema.Draft202012Validator(s) for kind, s in SCHEMAS.items()}

# Integral floats are left out: JSON Schema counts 1.0 as an integer, and
# check_shape deliberately does not (see test_integral_float_is_not_an_integer).
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats().filter(lambda x: not x.is_integer()),
    st.text(max_size=3),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _nodes(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in children:
        yield from _nodes(val, (*path, key))


@st.composite
def single_edits(draw, kind):
    """A valid document with one edit: a key dropped or added, a list
    shortened or lengthened, or one value replaced by another of any type."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID[kind]))))
    path, node = draw(st.sampled_from(list(_nodes(doc))))
    edits = ["retype"]
    if isinstance(node, dict):
        edits += ["add"] + (["drop"] if node else [])
    if isinstance(node, list):
        edits += ["grow"] + (["shrink"] if node else [])
    edit = draw(st.sampled_from(edits))
    if edit == "retype":
        new = draw(VALUES)
    elif edit == "add":
        new = {**node, draw(st.text(max_size=4)): draw(VALUES)}
    elif edit == "drop":
        gone = draw(st.sampled_from(sorted(node)))
        new = {k: v for k, v in node.items() if k != gone}
    elif edit == "grow":
        new = node + [draw(st.sampled_from(node) | VALUES if node else VALUES)]
    else:
        new = list(node)
        del new[draw(st.integers(0, len(node) - 1))]
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def _accepted(doc, kind) -> bool:
    try:
        check_shape(doc, SCHEMAS[kind], "doc")
    except SystemDefError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_documents_pass_both(kind):
    for doc in VALID[kind]:
        assert VALIDATORS[kind].is_valid(doc)
        assert _accepted(doc, kind)


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=300)
@given(data=st.data())
def test_check_shape_agrees_with_jsonschema(kind, data):
    doc = data.draw(single_edits(kind))
    assert _accepted(doc, kind) == VALIDATORS[kind].is_valid(doc), doc


def test_integral_float_is_not_an_integer():
    doc = {"v": 1.0, "psi": ["w0_1", "w1_1"]}
    assert VALIDATORS["psi"].is_valid(doc)
    with pytest.raises(SystemDefError, match=r"psi.json: 'v' must be an integer, got 1.0"):
        check_shape(doc, SCHEMAS["psi"], "psi.json")


def test_boolean_is_not_a_number():
    doc = _data("lin_double_integrator.json")
    doc["H"][0][0] = True
    assert not VALIDATORS["linear_system"].is_valid(doc)
    with pytest.raises(SystemDefError, match=r"'H\[0\]\[0\]' must be a number, got True"):
        check_shape(doc, SCHEMAS["linear_system"], "lin.json")
