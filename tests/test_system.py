"""System definitions: validation, serialization, builtins."""

import json

import jsonschema
import numpy as np
import pytest

from funcobs.expr import parse, to_text
from funcobs.system import (
    LinearSystemDef,
    SystemDef,
    SystemDefError,
    builtin_batch_reactor,
    builtin_cstr,
    linear_to_system,
    load_linear_system,
    load_system,
    save_linear_system,
    save_system,
    system_equivalence,
    system_from_dict,
    with_target,
)


def test_batch_reactor_shape():
    sys_ = builtin_batch_reactor()
    assert sys_.state_names == ("cA", "cB", "cC")
    assert sys_.n == 3 and sys_.p == 1
    assert to_text(sys_.h[0]) == "cB"
    assert to_text(sys_.q) == "cA"
    assert set(sys_.params) == {"k1", "k2", "k3"}
    for nm in sys_.state_names:
        lo, hi = sys_.box[nm]
        assert lo < hi


def test_batch_reactor_rates_must_be_positive():
    with pytest.raises(SystemDefError):
        builtin_batch_reactor(k1=0.0)


def test_cstr_shape():
    sys_ = builtin_cstr()
    assert sys_.state_names == ("cA", "theta", "thetaj")
    assert sys_.p == 2
    assert to_text(sys_.q) == "cA"
    assert "exp" in to_text(sys_.f[0])


def test_builtin_vector_fields_evaluate():
    for sys_ in (builtin_batch_reactor(), builtin_cstr()):
        mid = np.array([(lo + hi) / 2 for lo, hi in (sys_.box[nm] for nm in sys_.state_names)])
        b = sys_.bindings(mid)
        from funcobs.expr import evaluate

        for e in sys_.f + sys_.h + (sys_.q,):
            assert np.isfinite(evaluate(e, b))


def test_roundtrip_json(tmp_path):
    sys_ = builtin_cstr()
    path = tmp_path / "sys.json"
    save_system(sys_, path)
    back = load_system(path)
    assert back.state_names == sys_.state_names
    assert back.params == sys_.params
    assert [to_text(e) for e in back.f] == [to_text(e) for e in sys_.f]
    assert back.box == sys_.box


def test_saved_system_validates_against_schema(tmp_path, load_schema):
    path = tmp_path / "sys.json"
    save_system(builtin_batch_reactor(), path)
    with open(path) as fh:
        raw = json.load(fh)
    jsonschema.validate(raw, load_schema("system.schema.json"))


def test_missing_key_rejected():
    with pytest.raises(SystemDefError) as err:
        system_from_dict({"states": ["x"], "f": ["-x"], "h": ["x"], "q": "x"})
    assert "box" in str(err.value)


def test_unknown_symbol_names_the_equation():
    with pytest.raises(SystemDefError) as err:
        SystemDef(
            state_names=("x",),
            params={},
            f=(parse("-k*x"),),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (0.0, 1.0)},
        )
    msg = str(err.value)
    assert "k" in msg and "f[0]" in msg


def test_duplicate_state_rejected():
    with pytest.raises(SystemDefError):
        SystemDef(
            state_names=("x", "x"),
            params={},
            f=(parse("x"), parse("x")),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (0.0, 1.0)},
        )


def test_state_param_shadowing_rejected():
    with pytest.raises(SystemDefError):
        SystemDef(
            state_names=("x",),
            params={"x": 1.0},
            f=(parse("-x"),),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (0.0, 1.0)},
        )


def test_box_must_cover_exactly_the_states():
    with pytest.raises(SystemDefError):
        SystemDef(
            state_names=("x",),
            params={},
            f=(parse("-x"),),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (0.0, 1.0), "y": (0.0, 1.0)},
        )
    with pytest.raises(SystemDefError):
        SystemDef(
            state_names=("x",),
            params={},
            f=(parse("-x"),),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (1.0, 1.0)},  # empty interval
        )


def test_box_wider_than_the_double_range_names_the_state():
    raw = builtin_batch_reactor().to_dict()
    raw["box"]["cB"] = [-1e308, 1e308]
    with pytest.raises(SystemDefError, match="'cB' is wider than the double range"):
        system_from_dict(raw)


@pytest.mark.parametrize("key", ["states", "f", "h"])
def test_string_where_a_list_belongs_rejected(key):
    raw = {"states": ["x", "y"], "f": ["-x", "-y"], "h": ["x"], "q": "y", "box": {"x": [0, 1], "y": [0, 1]}}
    raw[key] = "xy" if key == "states" else raw[key][0]
    with pytest.raises(SystemDefError, match=f"system definition: '{key}' must be a list, got '{raw[key]}'"):
        system_from_dict(raw)


def test_w_vars_not_allowed_in_dynamics():
    with pytest.raises(SystemDefError):
        SystemDef(
            state_names=("x",),
            params={},
            f=(parse("-x + w0_1"),),
            h=(parse("x"),),
            q=parse("x"),
            box={"x": (0.0, 1.0)},
        )


def test_invalid_json_wrapped(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemDefError):
        load_system(path)


def test_system_equivalence_pins_params():
    sys_ = builtin_batch_reactor()
    r = system_equivalence(sys_, parse("k1*cA"), parse("cA"))  # k1 = 1
    assert r.equivalent


def test_with_target():
    sys_ = with_target(builtin_batch_reactor(), parse("cC"))
    assert to_text(sys_.q) == "cC"


def test_linear_system_shapes():
    lsys = LinearSystemDef(
        F=np.array([[0.0, 1.0], [0.0, 0.0]]),
        H=np.array([[1.0, 0.0]]),
        q=np.array([[0.0, 1.0]]),
    )
    assert lsys.n == 2 and lsys.p == 1
    with pytest.raises(SystemDefError):
        LinearSystemDef(F=np.zeros((2, 3)), H=np.zeros((1, 2)), q=np.zeros((1, 2)))
    with pytest.raises(SystemDefError):
        LinearSystemDef(F=np.zeros((2, 2)), H=np.zeros((1, 3)), q=np.zeros((1, 2)))


def test_linear_roundtrip_and_schema(tmp_path, load_schema):
    lsys = LinearSystemDef(
        F=np.array([[0.0, 1.0], [-2.0, -3.0]]),
        H=np.array([[1.0, 0.0]]),
        q=np.array([[1.0, 1.0]]),
    )
    path = tmp_path / "lin.json"
    save_linear_system(lsys, path)
    back = load_linear_system(path)
    assert np.array_equal(back.F, lsys.F)
    assert np.array_equal(back.H, lsys.H)
    assert np.array_equal(back.q, lsys.q)
    with open(path) as fh:
        jsonschema.validate(json.load(fh), load_schema("linear_system.schema.json"))


def test_linear_to_system_dynamics_match():
    lsys = LinearSystemDef(
        F=np.array([[0.0, 1.0], [-2.0, -3.0]]),
        H=np.array([[1.0, 0.0]]),
        q=np.array([[0.0, 1.0]]),
    )
    sys_ = linear_to_system(lsys)
    from funcobs.expr import evaluate

    x = np.array([0.7, -0.4])
    b = sys_.bindings(x)
    fx = np.array([evaluate(e, b) for e in sys_.f])
    assert np.allclose(fx, lsys.F @ x, rtol=0, atol=1e-15)
    assert evaluate(sys_.q, b) == pytest.approx(x[1])
