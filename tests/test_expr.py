"""Expression engine: parsing, printing, evaluation, calculus, equivalence."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from funcobs.expr import (
    Call,
    Const,
    EvalError,
    ExprError,
    IndeterminateEquivalence,
    Neg,
    ParseError,
    Pow,
    Product,
    Quot,
    Sum,
    Sym,
    compile_exprs,
    differentiate,
    equivalent_numeric,
    evaluate,
    free_symbols,
    parse,
    seeded_uniform,
    simplify,
    substitute,
    to_text,
    w_index,
)
from funcobs.expr import _operands, _rebuild

# ---------------------------------------------------------------------------
# parsing and printing

ROUNDTRIP_CASES = [
    "x",
    "x + y",
    "x - y",
    "x*y + z",
    "a*b/c*d",
    "x^2",
    "-x^2",
    "x^-1",
    "2/3",
    "0.5*x",
    "exp(-t/tau)",
    "k1*cA - k2*cB^2",
    "w0_1 + w1_1",
    "(x + y)*(x - y)",
    "sin(x)*cos(y) - ln(z)",
    "1 - (a + b)",
    "-(w1_1 + k2*w0_1^2)",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CASES)
def test_parse_print_parse_fixpoint(text):
    e = parse(text)
    printed = to_text(e)
    assert parse(printed) == e


def test_structures():
    assert parse("x + y") == Sum((Sym("x"), Sym("y")))
    assert parse("x - y") == Sum((Sym("x"), Neg(Sym("y"))))
    assert parse("x*y") == Product((Sym("x"), Sym("y")))
    assert parse("x/y") == Quot(Sym("x"), Sym("y"))
    assert parse("x^3") == Pow(Sym("x"), 3)
    assert parse("exp(x)") == Call("exp", Sym("x"))
    assert parse("w2_1") == Sym("w2_1")
    assert parse("w02_1") == Sym("w2_1")


def test_unary_minus_binds_before_power():
    # '-x^2' exponentiates the negated base
    assert parse("-x^2") == Pow(Neg(Sym("x")), 2)
    assert evaluate(parse("-x^2"), {"x": 3.0}) == 9.0


def test_division_left_associative():
    e = parse("a/b/c")
    assert evaluate(e, {"a": 12.0, "b": 3.0, "c": 2.0}) == 2.0


def test_rational_constants_exact():
    e = parse("1/3 + 1/3 + 1/3")
    assert simplify(e) == Const(Fraction(1))
    assert parse("2/4") != parse("0.5")  # Quot of ints vs float literal


def test_decimal_constants_are_floats():
    c = parse("0.1")
    assert isinstance(c, Const)
    assert isinstance(c.value, float)


def test_decimal_literal_outside_the_double_range_is_refused():
    # inf would print as the symbol inf and break the round trip
    with pytest.raises(ParseError, match=r"number 1e400 is outside the double range \(column 0 of '1e400'\)"):
        parse("1e400")
    with pytest.raises(ParseError, match=r"number 2\.5e309 is outside the double range \(column 3 "):
        parse("x*-2.5e309")
    assert parse("1e-400") == Const(0.0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y")
    assert "column" in str(err.value)
    with pytest.raises(ParseError):
        parse("foo(x)")  # unknown function
    with pytest.raises(ParseError):
        parse("x^y")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ExprError):
        parse("w0_0")  # output numbering starts at 1


def test_w_names_reserved():
    names = free_symbols(parse("w3_2 + cA"))
    assert names == {"cA", "w3_2"}
    assert w_index("w3_2") == (3, 2)


@pytest.mark.parametrize("value", [3, 0.5, None, ["x"]], ids=repr)
def test_parse_rejects_non_string(value):
    # a JSON number or list where a file declares an expression
    with pytest.raises(ParseError, match="expected an expression string"):
        parse(value)


# ---------------------------------------------------------------------------
# evaluation

EVAL_CASES = [
    ("k1*cA - k2*cB^2", {"k1": 1.0, "k2": 0.5, "cA": 1.0, "cB": 0.2}, 0.98),
    ("exp(-1)", {}, math.exp(-1)),
    ("2^-2", {}, 0.25),
    ("ln(exp(3))", {}, 3.0),
    ("sin(0) + cos(0)", {}, 1.0),
    ("-(a - b)", {"a": 1.0, "b": 4.0}, 3.0),
    ("1/2 + 1/2", {}, 1.0),
]


@pytest.mark.parametrize("text,binds,expected", EVAL_CASES)
def test_evaluate_known_values(text, binds, expected):
    assert evaluate(parse(text), binds) == pytest.approx(expected, rel=1e-15)


def test_evaluate_wvars():
    e = parse("w0_1^2 + w1_1")
    assert evaluate(e, {"w0_1": 3.0, "w1_1": 4.0}) == 13.0


def test_evaluate_errors_name_subexpression():
    with pytest.raises(EvalError) as err:
        evaluate(parse("x/(y - y)"), {"x": 1.0, "y": 2.0})
    assert "y - y" in str(err.value)
    with pytest.raises(EvalError) as err:
        evaluate(parse("ln(x)"), {"x": -1.0})
    assert "ln" in str(err.value)
    with pytest.raises(EvalError):
        evaluate(parse("x + y"), {"x": 1.0})  # unbound symbol


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_evaluate_reports_trig_of_infinity_as_domain_failure(fn):
    # math.sin(inf) is a ValueError
    with pytest.raises(EvalError) as err:
        evaluate(parse(f"{fn}(x)"), {"x": math.inf})
    assert str(err.value) == f"{fn} of inf is undefined in '{fn}(x)'"


@pytest.mark.parametrize(
    "text, x, message",
    [
        # math.fsum raises OverflowError on a finite sum past the double range
        ("x + y", 1e308, "overflow in sum in 'x + y'"),
        # and ValueError on inf + -inf
        pytest.param("x - y", math.inf, "undefined sum of infinities in 'x - y'",
                     id="opposite-infinities"),
    ],
)
def test_evaluate_reports_a_failed_sum(text, x, message):
    with pytest.raises(EvalError) as err:
        evaluate(parse(text), {"x": x, "y": x})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, bindings, message",
    [
        ("x*x*y", {"x": 1e200, "y": 1.0}, "overflow in product in 'x*x*y'"),
        # the overflowing node is named, not the sum it feeds
        ("x*x - y*y", {"x": 1e200, "y": 1e200}, "overflow in product in 'x*x'"),
        # 1e200*1e200 is inf before the zero factor makes it nan
        ("x*x*y", {"x": 1e200, "y": 0.0}, "overflow in product in 'x*x*y'"),
        ("x/y", {"x": 1e300, "y": 1e-300}, "overflow in quotient in 'x/y'"),
    ],
)
def test_evaluate_names_the_overflowing_node(text, bindings, message):
    with pytest.raises(EvalError) as err:
        evaluate(parse(text), bindings)
    assert str(err.value) == message


def test_evaluate_passes_an_infinite_operand_through_products_and_quotients():
    # an infinite factor or operand is not an overflow of this node
    assert evaluate(parse("exp(-x*y)"), {"x": math.inf, "y": 2.0}) == 0.0
    assert evaluate(parse("exp(-x/y)"), {"x": math.inf, "y": 2.0}) == 0.0


def test_evaluate_rejects_nan_binding():
    with pytest.raises(EvalError):
        evaluate(parse("x"), {"x": float("nan")})


def test_evaluate_reports_constant_past_double_range():
    with pytest.raises(EvalError, match="constant outside the double range"):
        evaluate(simplify(parse("10^400*x")), {"x": 1.0})


# ---------------------------------------------------------------------------
# differentiation: frozen hand results plus a finite-difference sweep

DERIV_CASES = [
    ("x^3", "x", {"x": 2.0}, 12.0),
    ("x*y", "x", {"x": 5.0, "y": 7.0}, 7.0),
    ("exp(-EoverR/theta)", "theta", {"EoverR": 1.0, "theta": 2.0},
     math.exp(-0.5) * 1.0 / 4.0),
    ("ln(x)", "x", {"x": 4.0}, 0.25),
    ("sin(2*x)", "x", {"x": 0.3}, 2.0 * math.cos(0.6)),
    ("a/x", "x", {"a": 3.0, "x": 2.0}, -0.75),
    ("w1_1^2", "w1_1", {"w1_1": 5.0}, 10.0),
]


@pytest.mark.parametrize("text,var,binds,expected", DERIV_CASES)
def test_differentiate_known_values(text, var, binds, expected):
    d = differentiate(parse(text), var)
    assert evaluate(d, binds) == pytest.approx(expected, rel=1e-12)


FD_EXPRS = [
    "x^2*y - y^3/x",
    "exp(x*y)/(1 + x^2)",
    "ln(2 + sin(x))*cos(y)",
    "(x + y)^3 - x/y",
    "exp(-x)*x^4",
]


def test_differentiate_matches_finite_differences():
    # central differences as an independent oracle
    import random

    rng = random.Random(7)
    h = 1e-5
    for text in FD_EXPRS:
        e = parse(text)
        d = differentiate(e, "x")
        for _ in range(20):
            x, y = rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7)
            fd = (
                evaluate(e, {"x": x + h, "y": y}) - evaluate(e, {"x": x - h, "y": y})
            ) / (2 * h)
            dv = evaluate(d, {"x": x, "y": y})
            assert abs(dv - fd) <= 1e-5 * (1.0 + abs(dv)), (text, x, y)


def test_derivative_of_constant_is_zero():
    assert differentiate(parse("k1*k2"), "x") == Const(Fraction(0))


# ---------------------------------------------------------------------------
# substitution

def test_substitute_names_and_wvars():
    e = parse("w1_1 + k2*w0_1^2")
    out = substitute(e, {"w1_1": parse("k1*cA - k2*cB^2"), "w0_1": parse("cB")})
    # the k2 terms cancel structurally
    assert to_text(out) in ("k1*cA", "cA*k1")


def test_substitute_is_simultaneous():
    e = parse("x + y")
    out = substitute(e, {"x": parse("y"), "y": parse("x")})
    assert evaluate(out, {"x": 1.0, "y": 10.0}) == 11.0


def test_substitution_then_eval_matches_eval_with_bindings():
    e = parse("a*x^2 + b/x")
    out = substitute(e, {"x": parse("1 + t")})
    for t in (0.0, 0.5, 2.0):
        direct = evaluate(e, {"a": 2.0, "b": 3.0, "x": 1.0 + t})
        subbed = evaluate(out, {"a": 2.0, "b": 3.0, "t": t})
        assert subbed == pytest.approx(direct, rel=1e-14)


# ---------------------------------------------------------------------------
# simplification

SIMPLIFY_CASES = [
    ("(1/k1)*(k1*cA)", "cA"),
    ("2 + 3*x - 3*x", "2"),
    ("x^3/x", "x^2"),
    ("x - x", "0"),
    ("0*y + x", "x"),
    ("1*x", "x"),
    ("x/1", "x"),
    # common factors cancel, which widens the domain (see simplify)
    ("x/x", "1"),
    ("(x-1)/(x-1)", "1"),
    ("0*ln(x)", "0"),
    # calls on a constant fold
    ("exp(x - x)", "1"),
    ("cos(0)", "1"),
    ("sin(2*x - 2*x)", "0"),
    ("ln(1)", "0"),
    # sum terms divided by a constant combine
    ("x/2 + x/2", "x"),
    ("cA/3 - cA/3 + y", "y"),
    # a float power that overflows stays unfolded
    ("(1e200)^2*x", "1e+200^2*x"),
    # zero to a negative power stays unfolded
    ("x*0^-1", "x*0^-1"),
    # a zero denominator is not folded away
    ("x/(0.0*y)", "x/0"),
]


@pytest.mark.parametrize("text,expected", SIMPLIFY_CASES)
def test_simplify_frozen_forms(text, expected):
    assert to_text(simplify(parse(text))) == expected


@pytest.mark.parametrize("text", ["10^400*0.5*x", "10^400 + 0.5", "x*10^400 + 0.5*x"])
def test_simplify_reports_constant_past_double_range(text):
    # an exact rational past the double range meets a float constant
    with pytest.raises(ExprError, match="outside the double range") as err:
        simplify(parse(text))
    assert f"'{text}'" in str(err.value)


@st.composite
def small_exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(["sym", "const", "w"]))
        if kind == "sym":
            return Sym(draw(st.sampled_from(["x", "y", "z"])))
        if kind == "w":
            return Sym(f"w{draw(st.integers(0, 2))}_{draw(st.integers(1, 2))}")
        return Const(draw(st.sampled_from([0, 1, 2, -1, Fraction(1, 2), 0.25])))
    kind = draw(st.sampled_from(["sum", "prod", "quot", "pow", "neg", "call"]))
    a = draw(small_exprs(depth=depth + 1))
    if kind == "neg":
        return Neg(a)
    if kind == "pow":
        return Pow(a, draw(st.integers(-2, 3)))
    if kind == "call":
        return Call(draw(st.sampled_from(["exp", "sin", "cos"])), a)
    b = draw(small_exprs(depth=depth + 1))
    if kind == "sum":
        return Sum((a, b))
    if kind == "prod":
        return Product((a, b))
    return Quot(a, b)


BINDS = {"x": 0.7, "y": 1.3, "z": -0.4}
BINDS.update({f"w{i}_{j}": 0.3 * i + 0.9 * j for i in range(3) for j in (1, 2)})


@given(small_exprs())
def test_simplify_preserves_value(e):
    try:
        before = evaluate(e, BINDS)
    except EvalError:
        return
    after = evaluate(simplify(e), BINDS)
    assert abs(after - before) <= 1e-12 * (1.0 + abs(before))


@given(small_exprs())
@example(Pow(Neg(Const(Fraction(1, 2))), 0))  # needs "(-1/2)^0": "-1/2^0" reads as -1
def test_print_parse_roundtrip_random(e):
    assert parse(to_text(e)) is not None
    # value is preserved through printing, even if the tree is rebuilt
    try:
        before = evaluate(e, BINDS)
    except EvalError:
        return
    after = evaluate(parse(to_text(e)), BINDS)
    assert abs(after - before) <= 1e-12 * (1.0 + abs(before))


@given(small_exprs())
def test_derivative_linearity(e):
    # d/dx (e + e) == 2 * d/dx e pointwise
    d1 = differentiate(Sum((e, e)), "x")
    d2 = differentiate(e, "x")
    try:
        lhs = evaluate(d1, BINDS)
        rhs = 2.0 * evaluate(d2, BINDS)
    except EvalError:
        return
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# numeric equivalence

def test_equivalent_numeric_accepts_identity():
    r = equivalent_numeric(
        parse("(x + y)^2"),
        parse("x^2 + 2*x*y + y^2"),
        {"x": (-2.0, 2.0), "y": (-2.0, 2.0)},
    )
    assert r.equivalent
    assert r.max_residual <= 1e-12
    assert r.n_samples == 100


def test_equivalent_numeric_rejects_difference():
    r = equivalent_numeric(
        parse("x^2"), parse("x^2 + 0.001"), {"x": (0.0, 1.0)}
    )
    assert not r.equivalent
    assert r.worst_point is not None


def test_equivalent_numeric_seeded_determinism():
    box = {"x": (0.1, 2.0)}
    r1 = equivalent_numeric(parse("ln(x)"), parse("ln(x)"), box, seed=5)
    r2 = equivalent_numeric(parse("ln(x)"), parse("ln(x)"), box, seed=5)
    assert r1.max_residual == r2.max_residual
    assert r1.worst_point == r2.worst_point


def test_equivalent_numeric_needs_full_box():
    with pytest.raises(ExprError):
        equivalent_numeric(parse("x + y"), parse("x + y"), {"x": (0.0, 1.0)})


def test_equivalent_numeric_indeterminate_when_mostly_invalid():
    # ln of a negative box fails everywhere
    with pytest.raises(IndeterminateEquivalence):
        equivalent_numeric(
            parse("ln(x)"), parse("ln(x)"), {"x": (-2.0, -1.0)}
        )


def test_equivalence_skips_counted():
    # half the box is invalid for ln; skips are reported, verdict still usable
    r = equivalent_numeric(
        parse("ln(x)*0 + x"), parse("x"), {"x": (-0.5, 2.0)}, n=200
    )
    assert r.n_skipped > 0
    assert r.equivalent


def test_equivalence_skips_trig_of_infinity():
    # exp(inf*x) is inf for x > 0, about 40% of the box, and 0 for x < 0
    e = Call("sin", Call("exp", Product((Const(math.inf), Sym("x")))))
    r = equivalent_numeric(e, Sum((e, Const(Fraction(0)))), {"x": (-3.0, 2.0)})
    assert 0 < r.n_skipped < r.n_samples // 2
    assert r.equivalent
    assert all("sin of" in msg for msg in r.errors)


def test_simplified_form_passes_where_raw_is_undefined():
    # system_equivalence pins each parameter to a one-point interval; pinned
    # at x = 1, the raw quotient is 0/0 at every sample, its simplified form 1.
    raw = parse("(x-1)/(x-1) + y")
    box = {"x": (1.0, 1.0), "y": (0.0, 1.0)}
    with pytest.raises(IndeterminateEquivalence):
        equivalent_numeric(raw, parse("1 + y"), box)
    r = equivalent_numeric(simplify(raw), parse("1 + y"), box)
    assert r.equivalent
    assert r.n_skipped == 0


# ---------------------------------------------------------------------------
# seeded samples

SAMPLER_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7, 2**130 + 17]  # the last has five 32-bit words
SAMPLER_BOXES = [
    [(0.05, 2.0)],
    [(-3.0, -1.0), (-2.0, 2.0), (0.5, 1.5)],
    [(1.0, 1.0 + 1e-12), (-1e-300, 1e-300), (7.0, 7.0)],
]


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_seeded_uniform_is_numpys_stream(seed):
    # numpy is the oracle here only; funcobs draws without numpy.random
    import numpy as np

    for bounds in SAMPLER_BOXES:
        for n in (0, 1, 7, 1000):
            rng = np.random.default_rng(seed)
            expected = [rng.uniform(lo, hi, size=n) for lo, hi in bounds]
            got = seeded_uniform(seed, bounds, n)
            assert len(got) == len(bounds)
            for col, ref in zip(got, expected):
                assert all(type(x) is float for x in col)
                assert np.array(col, dtype=float).tobytes() == ref.tobytes()


def test_seeded_uniform_refusals():
    with pytest.raises(ValueError, match="non-negative"):
        seeded_uniform(-1, [(0.0, 1.0)], 3)
    with pytest.raises(OverflowError, match="wider than the double range"):
        seeded_uniform(0, [(0.0, 1.0), (-1e308, 1e308)], 3)
    with pytest.raises(ValueError, match="hi < lo"):
        seeded_uniform(0, [(1.0, 0.0)], 3)


# ---------------------------------------------------------------------------
# compiled evaluation

def test_compile_exprs_matches_evaluate():
    exprs = (parse("k1*cA - k2*cB^2"), parse("exp(-cA)"))
    fn = compile_exprs(exprs, ["cA", "cB"], {"k1": 1.0, "k2": 0.5})
    out = fn([1.0, 0.2])
    assert out[0] == pytest.approx(0.98, rel=1e-15)
    assert out[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_compile_exprs_rejects_unbound_symbol():
    with pytest.raises(ExprError):
        compile_exprs((parse("x + missing"),), ["x"], {})


def test_compile_exprs_raises_eval_errors():
    fn = compile_exprs((parse("1/x"),), ["x"], {})
    with pytest.raises(ZeroDivisionError):
        fn([0.0])


def test_negated_quotient_is_one_shared_value():
    # (-x)/y and -(x/y) are emitted as one text and computed once; division
    # rounds symmetrically in sign, so both keep their values, zeros' signs
    # and division by zero
    from funcobs.expr import _py_block

    x, y = Sym("x"), Sym("y")
    forms = (Quot(Neg(x), y), Neg(Quot(x, y)))
    slots = {"x": "a", "y": "b"}
    assert _py_block([(e, slots) for e in forms], {}) == (["t0 = (-(a/b))"], ["t0", "t0"])
    fn = compile_exprs(forms, ["x", "y"])
    for xv, yv in [(1.0, 3.0), (-0.7, 1e-300), (0.0, -2.0), (-0.0, 5.0), (1e308, -1e-308)]:
        got, want = fn([xv, yv]), ((-xv) / yv, -(xv / yv))
        assert got == want and [math.copysign(1.0, g) for g in (*got, *want)] == [math.copysign(1.0, want[0])] * 4
    with pytest.raises(ZeroDivisionError):
        fn([1.0, 0.0])


def test_py_block_computes_repeats_once_per_slots():
    # one tree under two slot maps is two computations; a repeat within one
    # is a local, and an (expression, slots) slot is expanded in place
    from funcobs.expr import _py_block

    e = parse("exp(x)*exp(x) + y")
    roots = [
        (e, {"x": "a", "y": "b"}),
        (e, {"x": "c", "y": (parse("x*x"), {"x": "a"})}),
        (parse("w + w"), {"w": (parse("2*x"), {"x": "a"})}),
        "raw",
    ]
    lines, srcs = _py_block(roots, {})
    assert lines == ["t0 = _exp(a)", "t1 = _exp(c)", "t2 = ((2.0)*a)"]
    assert srcs == ["((t0*t0)+b)", "((t1*t1)+(a*a))", "(t2+t2)", "raw"]


# ---------------------------------------------------------------------------
# operand walker and constant arithmetic


@given(small_exprs())
def test_rebuild_from_operands_is_identity(e):
    ops = _operands(e)
    assert _rebuild(e, ops) == e
    if isinstance(e, (Const, Sym)):
        assert ops == ()
    fresh = [Sym(f"q{k}") for k in range(len(ops))]
    assert _operands(_rebuild(e, fresh)) == tuple(fresh)


# The helpers simplify used before it took Python's own Fraction/float
# arithmetic, kept as the oracle of that arithmetic.
def _is_zero(c) -> bool:
    return c == 0


def _cadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _cmul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _cdiv(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction) and b != 0:
        return a / b
    return float(a) / float(b)


CONSTANTS = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2), Fraction(10**400 + 1, 3),
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -2.5,
]


def _outcome(fn, a, b):
    try:
        v = fn(a, b)
    except ArithmeticError as exc:
        return type(exc)
    return type(v), repr(v)


@pytest.mark.parametrize("a", CONSTANTS, ids=repr)
def test_native_constant_arithmetic_matches_helpers(a):
    assert (a != 0) == (not _is_zero(a))
    for b in CONSTANTS:
        assert _outcome(lambda x, y: x + y, a, b) == _outcome(_cadd, a, b)
        assert _outcome(lambda x, y: x * y, a, b) == _outcome(_cmul, a, b)
        if b != 0:
            assert _outcome(lambda x, y: x / y, a, b) == _outcome(_cdiv, a, b)
