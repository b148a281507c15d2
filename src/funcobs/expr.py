"""Symbolic scalar expressions: parse, print, evaluate, differentiate.

The expression language covers rational/decimal constants, named scalars
(plant states and parameters), measurement-derivative variables written
``w<i>_<j>`` (the j-th measured signal differentiated i times), the four
elementary functions exp/ln/sin/cos, and +, -, *, /, integer powers.

Trees are immutable; every operation returns a new tree.  `simplify` does
constant folding and light algebraic cleanup only.  It is deliberately not
canonical, so identity checking goes through `equivalent_numeric`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

FUNCTIONS = ("exp", "ln", "sin", "cos")

_W_NAME = re.compile(r"w(\d+)_(\d+)\Z")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def w_index(name: str) -> tuple[int, int] | None:
    """(i, j) of a measurement-derivative name ``w<i>_<j>``, else None."""
    m = _W_NAME.match(name)
    return (int(m.group(1)), int(m.group(2))) if m else None


def w_name(i: int, j: int) -> str:
    """The name ``w<i>_<j>`` of output j differentiated i times."""
    return f"w{i}_{j}"


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} (column {pos} of {text!r})")
        self.text = text
        self.pos = pos


class EvalError(ExprError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class IndeterminateEquivalence(ExprError):
    """Too many sample points failed to evaluate to decide equivalence."""


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Expr:
    """An immutable expression-tree node; equal trees compare and hash equal."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    """A numeric constant, exact (a Fraction) unless it was given as a float."""

    value: Fraction | float

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, Fraction, float)):
            raise ExprError(f"bad constant {self.value!r}")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sym(Expr):
    """A named state, parameter or measurement derivative `wk_j`."""

    name: str

    def __post_init__(self):
        if not _IDENT.match(self.name):
            raise ExprError(f"bad symbol name {self.name!r}")
        w = w_index(self.name)
        if w is not None and (w[1] < 1 or self.name != w_name(*w)):
            # w1_0 or w01_1: no binding by a canonical name would reach it
            raise ExprError(f"bad measurement-derivative name {self.name!r}")


@dataclass(frozen=True)
class Neg(Expr):
    """The negation of `arg`."""

    arg: Expr


@dataclass(frozen=True)
class Sum(Expr):
    """The sum of `terms`."""

    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Product(Expr):
    """The product of `factors`."""

    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Quot(Expr):
    """The quotient `num / den`."""

    num: Expr
    den: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """`base` raised to an integer `exponent`."""

    base: Expr
    exponent: int

    def __post_init__(self):
        if isinstance(self.exponent, bool) or not isinstance(self.exponent, int):
            raise ExprError(f"power exponent must be an integer, got {self.exponent!r}")


@dataclass(frozen=True)
class Call(Expr):
    """A named elementary function of one argument, from FUNCTIONS."""

    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ExprError(f"unknown function {self.fn!r}")


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, Fraction, float)):
        return Const(x)
    raise ExprError(f"cannot interpret {x!r} as an expression")


def _operands(e: Expr) -> tuple[Expr, ...]:
    """The subexpressions of e in order; () for a leaf."""
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Quot):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _rebuild(e: Expr, ops) -> Expr:
    """e with its operands, in `_operands` order, replaced by ops."""
    if isinstance(e, (Sum, Product)):
        return type(e)(tuple(ops))
    if isinstance(e, (Neg, Quot)):
        return type(e)(*ops)
    if isinstance(e, Pow):
        return Pow(ops[0], e.exponent)
    if isinstance(e, Call):
        return Call(e.fn, ops[0])
    return e


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def fail(self, message):
        kind, val, pos = self.peek()
        raise ParseError(message, self.text, pos)

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.fail(f"unexpected trailing input {self.peek()[1]!r}")
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            t = self.term()
            terms.append(t if op == "+" else Neg(t))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        left = self.factor()
        run = [left]  # consecutive '*' factors collect into one n-ary product
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            f = self.factor()
            if op == "*":
                run.append(f)
            else:
                num = run[0] if len(run) == 1 else Product(tuple(run))
                run = [Quot(num, f)]
        return run[0] if len(run) == 1 else Product(tuple(run))

    def factor(self) -> Expr:
        b = self.base()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "op" and self.peek()[1] == "-":
                self.advance()
                sign = -1
            kind, val, pos = self.peek()
            if kind != "num" or "." in val or "e" in val or "E" in val:
                self.fail("exponent must be an integer literal")
            self.advance()
            return Pow(b, sign * int(val))
        return b

    def base(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.base())
        if kind == "num":
            self.advance()
            if "." in val or "e" in val or "E" in val:
                x = float(val)
                if math.isinf(x):  # inf would print as the symbol inf
                    raise ParseError(f"number {val} is outside the double range", self.text, pos)
                return Const(x)
            return Const(Fraction(int(val)))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", self.text, pos)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            w = w_index(val)
            if w is None:
                return Sym(val)
            if w[1] < 1:
                raise ParseError(f"output index in {val!r} must be >= 1", self.text, pos)
            return Sym(w_name(*w))  # w01_1 is w1_1
        if kind == "op" and val == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "eof":
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {val!r}")

    def expect(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            self.fail(f"expected {op!r}")
        self.advance()


def parse(text: str) -> Expr:
    """Parse an expression string into a tree (no simplification)."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}", repr(text), 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
#
# The printer inserts exactly the parentheses needed so that
# parse(to_text(parse(s))) == parse(s) for every parseable s.


def _fmt_const(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return repr(v)


def _const_nonneg(e: Expr) -> bool:
    return isinstance(e, Const) and e.value >= 0


def _is_atom(e: Expr) -> bool:
    return isinstance(e, (Sym, Call)) or _const_nonneg(e)


def _pow_base_ok(e: Expr) -> bool:
    # a bare base reparses correctly if it is a symbol, a call, a nonnegative
    # integer or decimal constant, or a negation (unary minus binds tighter
    # than '^' in this grammar) of anything but a fraction, whose '/' does not
    if isinstance(e, Neg):
        return not (isinstance(e.arg, Const) and "/" in _fmt_const(e.arg.value))
    if isinstance(e, (Sym, Call)):
        return True
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return v >= 0 and v.denominator == 1
        return v >= 0
    return False


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        return f"-{inner}" if _is_atom(e.arg) else f"-({inner})"
    if isinstance(e, Pow):
        b = to_text(e.base) if _pow_base_ok(e.base) else f"({to_text(e.base)})"
        return f"{b}^{e.exponent}"
    if isinstance(e, Quot):
        num = to_text(e.num) if not isinstance(e.num, Sum) else f"({to_text(e.num)})"
        # a fraction constant prints with its own '/', so it needs parentheses
        frac = isinstance(e.den, Const) and "/" in _fmt_const(e.den.value)
        den = (
            to_text(e.den)
            if (_is_atom(e.den) and not frac) or isinstance(e.den, Pow)
            else f"({to_text(e.den)})"
        )
        return f"{num}/{den}"
    if isinstance(e, Product):
        parts = []
        for idx, f in enumerate(e.factors):
            s = to_text(f)
            if isinstance(f, (Sum, Product)) or (idx > 0 and isinstance(f, (Neg, Quot))):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Sum):
        out = []
        for idx, t in enumerate(e.terms):
            if idx > 0 and isinstance(t, Neg):
                body = to_text(t.arg)
                if isinstance(t.arg, Sum):
                    body = f"({body})"
                out.append(f" - {body}")
            else:
                body = to_text(t)
                if isinstance(t, Sum):
                    body = f"({body})"
                out.append(f" + {body}" if idx > 0 else body)
        return "".join(out)
    raise ExprError(f"cannot print {e!r}")


# ---------------------------------------------------------------------------
# free symbols


def free_symbols(e: Expr) -> set[str]:
    """The names e reads: states, parameters and w<i>_<j> alike."""
    names: set[str] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Sym):
            names.add(x.name)
        stack.extend(_operands(x))
    return names


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, bindings: dict | None = None) -> float:
    """Evaluate to an IEEE double.

    `bindings` maps names to reals; a measurement-derivative variable is
    bound under its textual name ``w<i>_<j>``.
    """
    bindings = bindings or {}

    def ev(x) -> float:
        if isinstance(x, Const):
            try:
                return float(x.value)
            except OverflowError:
                raise EvalError("constant outside the double range", x) from None
        if isinstance(x, Sym):
            try:
                return float(bindings[x.name])
            except KeyError:
                raise EvalError(f"unbound symbol '{x.name}'", x) from None
        if isinstance(x, Neg):
            return -ev(x.arg)
        if isinstance(x, Sum):
            terms = [ev(t) for t in x.terms]
            try:
                return math.fsum(terms)
            except OverflowError:
                raise EvalError("overflow in sum", x) from None
            except ValueError:  # inf and -inf among the terms
                raise EvalError("undefined sum of infinities", x) from None
        if isinstance(x, Product):
            acc = 1.0
            for f in x.factors:
                acc *= ev(f)
            # finite factors whose product is not finite overflowed (inf, or
            # inf*0 = nan); they are evaluated again only on this rare path
            if not math.isfinite(acc) and all(math.isfinite(ev(f)) for f in x.factors):
                raise EvalError("overflow in product", x)
            return acc
        if isinstance(x, Quot):
            den = ev(x.den)
            if den == 0.0:
                raise EvalError("division by zero", x)
            num = ev(x.num)
            q = num / den
            if math.isinf(q) and math.isfinite(num) and math.isfinite(den):
                raise EvalError("overflow in quotient", x)
            return q
        if isinstance(x, Pow):
            b = ev(x.base)
            try:
                return float(b**x.exponent)
            except ZeroDivisionError:
                raise EvalError("zero raised to a negative power", x) from None
            except OverflowError:
                raise EvalError("overflow in power", x) from None
        if isinstance(x, Call):
            a = ev(x.arg)
            try:
                if x.fn == "exp":
                    return math.exp(a)
                if x.fn == "ln":
                    if a <= 0.0:
                        raise EvalError(f"ln of non-positive value {a!r}", x)
                    return math.log(a)
                if x.fn == "sin":
                    return math.sin(a)
                return math.cos(a)
            except OverflowError:
                raise EvalError("overflow in function evaluation", x) from None
            except ValueError:
                raise EvalError(f"{x.fn} of {a!r} is undefined", x) from None
        raise ExprError(f"cannot evaluate {x!r}")

    out = ev(e)
    if math.isnan(out) or math.isinf(out):
        raise EvalError("non-finite result", e)
    return out


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to the named variable.

    `var` may be a state/parameter name or a measurement-derivative name
    such as ``w1_2``.  Symbols other than `var` are treated as constants.
    """

    def d(x) -> Expr:
        if isinstance(x, Const):
            return Const(0)
        if isinstance(x, Sym):
            return Const(1) if x.name == var else Const(0)
        if isinstance(x, (Neg, Sum)):
            return _rebuild(x, [d(a) for a in _operands(x)])
        if isinstance(x, Product):
            terms = []
            for i in range(len(x.factors)):
                fs = list(x.factors)
                fs[i] = d(fs[i])
                terms.append(Product(tuple(fs)))
            return Sum(tuple(terms)) if len(terms) > 1 else terms[0]
        if isinstance(x, Quot):
            return Quot(
                Sum((Product((d(x.num), x.den)), Neg(Product((x.num, d(x.den)))))),
                Pow(x.den, 2),
            )
        if isinstance(x, Pow):
            return Product((Const(x.exponent), Pow(x.base, x.exponent - 1), d(x.base)))
        if isinstance(x, Call):
            da = d(x.arg)
            if x.fn == "exp":
                return Product((x, da))
            if x.fn == "ln":
                return Quot(da, x.arg)
            if x.fn == "sin":
                return Product((Call("cos", x.arg), da))
            return Neg(Product((Call("sin", x.arg), da)))
        raise ExprError(f"cannot differentiate {x!r}")

    return simplify(d(e))


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, repl: dict) -> Expr:
    """Simultaneous substitution, then simplification.

    Keys are names, measurement derivatives included (``w1_2``); values
    are expressions or strings.
    """
    by_name: dict[str, Expr] = {}
    for key, val in repl.items():
        if not isinstance(key, str):
            raise ExprError(f"bad substitution key {key!r}")
        by_name[key] = as_expr(val)

    def sub(x) -> Expr:
        if isinstance(x, Sym):
            return by_name.get(x.name, x)
        return _rebuild(x, [sub(a) for a in _operands(x)])

    return simplify(sub(e))


# ---------------------------------------------------------------------------
# simplification
#
# Bottom-up: fold constants (rationals exactly), flatten nested sums and
# products, collect like terms by structural equality, cancel shared
# multiplicative factors across numerator and denominator.


def simplify(e: Expr) -> Expr:
    """Simplified form of e.  Common factors cancel (x/x, (x-1)/(x-1) -> 1;
    0*ln(x) -> 0), so the result may be defined where e is not: checks on
    the simplified form can pass at points where e fails to evaluate."""
    try:
        return _simp(e)
    except OverflowError:
        # folding an exact constant past the double range into a float one
        raise ExprError(f"a constant in '{e}' is outside the double range") from None


def _simp(e: Expr) -> Expr:
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, Neg):
        a = _simp(e.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Call):
        a = _simp(e.arg)
        if isinstance(a, Const) and a.value == 0:
            if e.fn in ("exp", "cos"):
                return Const(1)
            if e.fn == "sin":
                return Const(0)
        if e.fn == "ln" and isinstance(a, Const) and a.value == 1:
            return Const(0)
        return Call(e.fn, a)
    if isinstance(e, Pow):
        return _simp_pow(e)
    if isinstance(e, Sum):
        return _simp_sum(e)
    if isinstance(e, (Product, Quot)):
        return _simp_mul(e)
    raise ExprError(f"cannot simplify {e!r}")


def _simp_pow(e: Pow) -> Expr:
    b = _simp(e.base)
    k = e.exponent
    if k == 0:
        return Const(1)
    if k == 1:
        return b
    if isinstance(b, Const):
        v = b.value
        if isinstance(v, Fraction):
            if v != 0 or k > 0:
                return Const(v**k)
            return Pow(b, k)  # 0^negative: leave, fails at evaluation
        try:
            return Const(v**k)
        except (OverflowError, ZeroDivisionError):
            return Pow(b, k)
    if isinstance(b, Pow):
        return _simp(Pow(b.base, b.exponent * k))
    if isinstance(b, Neg):
        inner = _simp(Pow(b.arg, k))
        return inner if k % 2 == 0 else _simp(Neg(inner))
    return Pow(b, k)


def _coeff_split(t: Expr):
    """Split a simplified term into (numeric coefficient, structural key)."""
    if isinstance(t, Const):
        return t.value, None
    if isinstance(t, Neg):
        c, key = _coeff_split(t.arg)
        return Fraction(-1) * c, key
    if isinstance(t, Product):
        c = Fraction(1)
        rest = []
        for f in t.factors:
            if isinstance(f, Const):
                c = c * f.value
            else:
                rest.append(f)
        if not rest:
            return c, None
        if len(rest) == 1:
            return c, rest[0]
        return c, Product(tuple(rest))
    if isinstance(t, Quot) and isinstance(t.den, Const) and t.den.value != 0:
        c, key = _coeff_split(t.num)
        return c / t.den.value, key
    return Fraction(1), t


def _coeff_term(c, key: Expr) -> Expr:
    if c == 1:
        return key
    if c == -1:
        return Neg(key)
    if isinstance(key, Product):
        return Product((Const(c),) + key.factors)
    return Product((Const(c), key))


def _simp_sum(e: Sum) -> Expr:
    flat: list[Expr] = []
    for t in e.terms:
        s = _simp(t)
        if isinstance(s, Sum):
            flat.extend(s.terms)
        else:
            flat.append(s)
    const = Fraction(0)
    order: list[Expr] = []
    coeffs: dict[Expr, object] = {}
    for t in flat:
        c, key = _coeff_split(t)
        if key is None:
            const = const + c
        else:
            if key not in coeffs:
                order.append(key)
                coeffs[key] = c
            else:
                coeffs[key] = coeffs[key] + c
    parts = [_coeff_term(coeffs[k], k) for k in order if coeffs[k] != 0]
    if const != 0 or not parts:
        parts.append(Const(const))
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def _simp_mul(e: Expr) -> Expr:
    if isinstance(e, Product):
        node: Expr = Product(tuple(_simp(f) for f in e.factors))
    else:
        node = Quot(_simp(e.num), _simp(e.den))

    sign = 1
    const = Fraction(1)
    factors: list[list] = []  # [base, net integer exponent]
    bad_div = False

    def bump_const(value, numside: bool, m: int):
        nonlocal const, bad_div
        if isinstance(value, Fraction):
            powed = value**m if (value != 0 or m > 0) else None
        else:
            try:
                powed = value**m
            except (OverflowError, ZeroDivisionError):
                powed = None
        if powed is None:
            bad_div = True
            return
        if numside:
            const = const * powed
        else:
            if powed == 0:
                bad_div = True
                return
            const = const / powed

    def add_factor(b: Expr, k: int):
        for item in factors:
            if item[0] == b:
                item[1] += k
                return
        factors.append([b, k])

    def walk(x: Expr, numside: bool, m: int):
        nonlocal sign
        if isinstance(x, Product):
            for f in x.factors:
                walk(f, numside, m)
        elif isinstance(x, Quot):
            walk(x.num, numside, m)
            walk(x.den, not numside, m)
        elif isinstance(x, Neg):
            if m % 2:
                sign = -sign
            walk(x.arg, numside, m)
        elif isinstance(x, Pow):
            mk = m * x.exponent
            if mk < 0:
                walk(x.base, not numside, -mk)
            elif mk > 0:
                walk(x.base, numside, mk)
        elif isinstance(x, Const):
            bump_const(x.value, numside, m)
        else:
            add_factor(x, m if numside else -m)

    walk(node, True, 1)
    if bad_div:
        return node
    if const == 0:
        return Const(0)

    num_parts: list[Expr] = []
    den_parts: list[Expr] = []
    for b, k in factors:
        if k > 0:
            num_parts.append(Pow(b, k) if k > 1 else b)
        elif k < 0:
            den_parts.append(Pow(b, -k) if k < -1 else b)

    c = const * Fraction(sign)
    negate = c < 0
    mag = -c if negate else c
    if mag != 1 or not num_parts:
        num_parts = [Const(mag)] + num_parts

    num_expr = num_parts[0] if len(num_parts) == 1 else Product(tuple(num_parts))
    if den_parts:
        den_expr = den_parts[0] if len(den_parts) == 1 else Product(tuple(den_parts))
        out: Expr = Quot(num_expr, den_expr)
    else:
        out = num_expr
    return Neg(out) if negate else out


# ---------------------------------------------------------------------------
# seeded samples

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_start(seed: int) -> tuple[int, int]:
    """(state, increment) of numpy's PCG64(SeedSequence(seed)).

    SeedSequence mixes the seed's 32-bit words into a pool of four and
    draws four 64-bit words from it: the initial state and the stream.
    PCG64 then seeds with two steps (O'Neill, HMC-CS-2014-0905)."""
    seed = operator.index(seed)  # a numpy integer would wrap in the products below
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)

    def hasher(h: int, mult: int):
        def hash32(value: int) -> int:
            nonlocal h
            value ^= h
            h = h * mult & _M32
            value = value * h & _M32
            return value ^ value >> 16

        return hash32

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    out = [draw(pool[i % 4]) for i in range(8)]
    w64 = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
    inc = (w64[2] << 65 | w64[3] << 1 | 1) & _M128
    state = ((inc + (w64[0] << 64 | w64[1])) * _PCG_MULT + inc) & _M128
    return state, inc


def seeded_uniform(seed: int, bounds, n: int) -> list[list[float]]:
    """n uniform draws on each (lo, hi) of bounds, one column per interval,
    drawn in order from one stream: bit for bit the columns of
    `numpy.random.default_rng(seed).uniform(lo, hi, size=n)` called on
    each interval in turn, without loading numpy.random.  Each draw is
    lo + (hi - lo) * u with u the top 53 bits of a PCG64 XSL-RR output
    over 2**53.  A negative seed raises ValueError, as numpy does, and so
    does hi < lo; a non-finite hi - lo raises OverflowError."""
    state, inc = _pcg64_start(seed)
    mult, m64, m128, unit = _PCG_MULT, _M64, _M128, 2.0**-53
    cols = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError(f"interval [{lo!r}, {hi!r}] is wider than the double range")
        if span < 0:
            raise ValueError(f"interval [{lo!r}, {hi!r}] has hi < lo")
        col = []
        append = col.append
        for _ in range(n):
            state = (state * mult + inc) & m128
            x = ((state >> 64) ^ state) & m64
            rot = state >> 122
            append(lo + span * (((((x >> rot) | (x << (64 - rot))) & m64) >> 11) * unit))
        cols.append(col)
    return cols


# ---------------------------------------------------------------------------
# numeric equivalence

EQUIV_RTOL = 1e-9


@dataclass
class EquivalenceReport:
    """Outcome of a sampled numeric comparison of two expressions."""

    equivalent: bool
    max_residual: float
    n_samples: int
    n_skipped: int
    worst_point: dict | None
    errors: list[str]


def equivalent_numeric(
    e1: Expr,
    e2: Expr,
    box: dict[str, tuple[float, float]],
    n: int = 100,
    seed: int = 42,
) -> EquivalenceReport:
    """Seeded randomized check that e1 and e2 agree numerically on a box.

    Agreement at a sample means |e1 - e2| <= EQUIV_RTOL * (1 + max(|e1|, |e2|)).
    Rational constants are exact, so residuals on purely rational inputs
    reflect only double rounding.  Sample points where either expression
    fails to evaluate are skipped and counted; if more than half of the
    samples are skipped the check refuses to conclude anything.
    """
    if n < 1:
        raise ExprError("n must be >= 1")
    names = sorted(free_symbols(e1) | free_symbols(e2))
    missing = [nm for nm in names if nm not in box]
    if missing:
        raise ExprError(f"box does not cover variable(s) {missing}")

    cols = dict(zip(names, seeded_uniform(seed, (box[nm] for nm in names), n)))

    max_res = 0.0
    worst_point = None
    skipped = 0
    errors: list[str] = []
    ok = True
    for k in range(n):
        point = {nm: cols[nm][k] for nm in names}
        try:
            v1 = evaluate(e1, point)
            v2 = evaluate(e2, point)
        except EvalError as exc:
            skipped += 1
            if len(errors) < 5:
                errors.append(str(exc))
            continue
        res = abs(v1 - v2) / (1.0 + max(abs(v1), abs(v2)))
        if res > max_res:
            max_res = res
            worst_point = point
        if res > EQUIV_RTOL:
            ok = False
    if skipped > n // 2:
        raise IndeterminateEquivalence(
            f"{skipped}/{n} sample points failed to evaluate: {errors[:3]}"
        )
    return EquivalenceReport(
        equivalent=ok,
        max_residual=max_res,
        n_samples=n,
        n_skipped=skipped,
        worst_point=worst_point,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# compilation to plain python source (the simulator kernels use `_py_block`)

_PYFN = {"exp": "_exp", "ln": "_log", "sin": "_sin", "cos": "_cos"}
_PY_NS = {"_exp": math.exp, "_log": math.log, "_sin": math.sin, "_cos": math.cos}


def _py_args(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Quot) and isinstance(e.num, Neg):  # the minus is emitted by _py_join
        return (e.num.arg, e.den)
    return _operands(e)


def _py_join(e: Expr, parts: list[str]) -> str:
    """Source of the compound node e over the sources of its operands."""
    if isinstance(e, Neg):
        return f"(-{parts[0]})"
    if isinstance(e, Sum):
        return "(" + "+".join(parts) + ")"
    if isinstance(e, Product):
        return "(" + "*".join(parts) + ")"
    if isinstance(e, Quot):
        # (-a)/b as -(a/b), the text of the same value written as Neg(Quot),
        # so _py_block shares the two: division rounds symmetrically in sign
        # and a zero b raises either way (a NaN made from infinities may
        # differ in its sign bit only)
        q = f"({parts[0]}/{parts[1]})"
        return f"(-{q})" if isinstance(e.num, Neg) else q
    if isinstance(e, Pow):
        return f"({parts[0]}**({e.exponent}))"
    return f"{_PYFN[e.fn]}({parts[0]})"


def _py_resolve(e: Expr, slots: dict):
    """Follow symbols whose slot is an (expression, slots) pair."""
    while isinstance(e, Sym) and isinstance(slots.get(e.name), tuple):
        e, slots = slots[e.name]
    return e, slots


def _py_src(e: Expr, slots: dict, consts: dict[str, float], memo: dict) -> str:
    """Python source of e.  A slot maps a symbol to its source text, or to an
    (expression, slots) pair that is expanded in its place; other symbols
    are looked up in `consts` and inlined as literals.  `memo` caches the
    source of compound nodes by node and slots identity."""
    e, slots = _py_resolve(e, slots)
    if isinstance(e, Const):
        return f"({float(e.value)!r})"
    if isinstance(e, Sym):
        nm = e.name
        if nm in slots:
            return slots[nm]
        if nm in consts:
            return f"({float(consts[nm])!r})"
        raise ExprError(f"unbound symbol '{nm}' at compile time")
    key = (id(e), id(slots))
    if key not in memo:
        memo[key] = _py_join(e, [_py_src(a, slots, consts, memo) for a in _py_args(e)])
    return memo[key]


def _py_block(roots, consts: dict[str, float]):
    """Straight-line source for several expressions with shared subtrees
    computed once.

    A root is an (expression, slots) pair as for `_py_src`, or source text
    passed through.  Returns (lines, srcs): `lines` assign each compound
    subtree whose expanded source occurs more than once to a local t<k>,
    operands first, and srcs[i] is the source of roots[i] over
    those locals.  A local holds the same operations on the same operands
    as the text it stands for, so every value is bit for bit that of the
    expanded source; only the order in which domain errors can surface
    changes.
    """
    memo: dict = {}
    uses: dict[str, int] = {}

    def count(e, slots):
        e, slots = _py_resolve(e, slots)
        if isinstance(e, (Const, Sym)):
            return
        key = _py_src(e, slots, consts, memo)
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1:  # operands of a repeat are shared with it
            for a in _py_args(e):
                count(a, slots)

    names: dict[str, str] = {}
    lines: list[str] = []

    def emit(e, slots) -> str:
        e, slots = _py_resolve(e, slots)
        if isinstance(e, (Const, Sym)):
            return _py_src(e, slots, consts, memo)
        key = _py_src(e, slots, consts, memo)
        if key in names:
            return names[key]
        src = _py_join(e, [emit(a, slots) for a in _py_args(e)])
        if uses[key] == 1:
            return src
        names[key] = f"t{len(names)}"
        lines.append(f"{names[key]} = {src}")
        return names[key]

    for r in roots:
        if not isinstance(r, str):
            count(*r)
    return lines, [r if isinstance(r, str) else emit(*r) for r in roots]


def compile_exprs(exprs, names, consts: dict[str, float] | None = None):
    """Compile expressions into one fast callable.

    Returns f(vals) -> tuple of floats, with `vals` indexed positionally by
    `names`.  Symbols listed in `consts` are inlined as literals.  Domain
    errors surface as ZeroDivisionError/ValueError/OverflowError.
    """
    consts = consts or {}
    slots = {nm: f"_a[{k}]" for k, nm in enumerate(names)}
    memo: dict = {}
    bodies = [_py_src(e, slots, consts, memo) for e in exprs]
    src = "def _f(_a):\n    return (" + ", ".join(bodies) + ("," if len(bodies) == 1 else "") + ")"
    ns = dict(_PY_NS)
    exec(compile(src, "<compiled-expr>", "exec"), ns)
    return ns["_f"]
