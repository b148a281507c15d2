"""Plant definitions.

A `SystemDef` is a smooth autonomous plant dx/dt = f(x) with measured
outputs h(x), a scalar target functional q(x) to be estimated, fixed named
parameters, and a sampling box used by the randomized local tests.
`LinearSystemDef` is the matrix-triple special case used by the linear
design pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .expr import (
    Expr,
    FUNCTIONS,
    as_expr,
    equivalent_numeric,
    free_symbols,
    parse,
    to_text,
    Const,
    Neg,
    Product,
    Sum,
    Sym,
    _IDENT,
    _W_NAME,
)


class SystemDefError(ValueError):
    pass


def _check_name(name: str, kind: str):
    if not isinstance(name, str) or not _IDENT.match(name):
        raise SystemDefError(f"{kind} name {name!r} is not a valid identifier")
    if _W_NAME.match(name):
        raise SystemDefError(
            f"{kind} name {name!r} collides with the measurement-derivative convention"
        )
    if name in FUNCTIONS:
        raise SystemDefError(f"{kind} name {name!r} shadows a function name")


@dataclass
class SystemDef:
    state_names: tuple[str, ...]
    params: dict[str, float]
    f: tuple[Expr, ...]
    h: tuple[Expr, ...]
    q: Expr
    box: dict[str, tuple[float, float]]

    def __post_init__(self):
        self.state_names = tuple(self.state_names)
        self.f = tuple(as_expr(e) for e in self.f)
        self.h = tuple(as_expr(e) for e in self.h)
        self.q = as_expr(self.q)
        self.params = {str(k): float(v) for k, v in self.params.items()}
        self.box = {str(k): (float(v[0]), float(v[1])) for k, v in self.box.items()}
        _validate(self)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def p(self) -> int:
        return len(self.h)

    def bindings(self, x) -> dict[str, float]:
        """Merge a state vector with the fixed parameter values."""
        out = dict(zip(self.state_names, (float(v) for v in x)))
        out.update(self.params)
        return out

    def to_dict(self) -> dict:
        return {
            "states": list(self.state_names),
            "params": dict(self.params),
            "f": [to_text(e) for e in self.f],
            "h": [to_text(e) for e in self.h],
            "q": to_text(self.q),
            "box": {k: [lo, hi] for k, (lo, hi) in self.box.items()},
        }


def _validate(sys: SystemDef):
    if len(sys.state_names) < 1:
        raise SystemDefError("a system needs at least one state")
    if len(set(sys.state_names)) != len(sys.state_names):
        raise SystemDefError("duplicate state names")
    for nm in sys.state_names:
        _check_name(nm, "state")
    for nm in sys.params:
        _check_name(nm, "parameter")
        if nm in sys.state_names:
            raise SystemDefError(f"parameter {nm!r} shadows a state")
        if not np.isfinite(sys.params[nm]):
            raise SystemDefError(f"parameter {nm!r} is not finite")
    if len(sys.f) != len(sys.state_names):
        raise SystemDefError(
            f"vector field has {len(sys.f)} rows for {len(sys.state_names)} states"
        )
    if len(sys.h) < 1:
        raise SystemDefError("at least one measured output is required")

    allowed = set(sys.state_names) | set(sys.params)
    for label, exprs in (("f", sys.f), ("h", sys.h), ("q", (sys.q,))):
        for idx, e in enumerate(exprs):
            names, wvars = free_symbols(e)
            if wvars:
                i, j = sorted(wvars)[0]
                raise SystemDefError(
                    f"measurement derivative w{i}_{j} not allowed in {label}[{idx}]"
                )
            for nm in sorted(names):
                if nm not in allowed:
                    raise SystemDefError(
                        f"unknown symbol '{nm}' in {label}[{idx}] = '{e}'"
                    )

    for nm in sys.box:
        if nm not in sys.state_names:
            raise SystemDefError(f"box entry {nm!r} is not a state")
    for nm in sys.state_names:
        if nm not in sys.box:
            raise SystemDefError(f"box does not cover state {nm!r}")
        lo, hi = sys.box[nm]
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise SystemDefError(f"box interval for {nm!r} must satisfy lo < hi")
        if not np.isfinite(hi - lo):
            raise SystemDefError(f"box interval for {nm!r} is wider than the double range")


def write_json(path, payload):
    """Write a JSON artifact: two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemDefError(f"{path}: invalid JSON ({exc})") from None


def shipped_schema(name: str) -> dict:
    """One of the JSON schemas shipped in the package, by file stem ("psi")."""
    return _read_json(resources.files("funcobs") / "schemas" / f"{name}.schema.json")


_TYPES = {"object": (dict, "an object"), "array": (list, "a list"), "string": (str, "a string"),
          "number": ((int, float), "a number"), "integer": (int, "an integer")}


def check_shape(doc, schema: dict, source, error=SystemDefError, key_path: str = ""):
    """Raise `error`, naming source, key path and value, where a JSON document
    breaks an input schema.  Reads type, required, properties, additionalProperties,
    items, minItems, maxItems and minimum.  1.0 is not an integer, True not a number."""
    where = f"{source}: " + (repr(key_path) if key_path else "top level")
    types, name = _TYPES.get(schema.get("type"), (object, ""))
    if name and (isinstance(doc, bool) or not isinstance(doc, types)):
        raise error(f"{where} must be {name}, got {doc!r}")
    if "minimum" in schema and doc < schema["minimum"]:
        raise error(f"{where} must be >= {schema['minimum']}, got {doc!r}")
    if isinstance(doc, dict):
        if missing := [k for k in schema.get("required", ()) if k not in doc]:
            raise error(f"{where} lacks {', '.join(map(repr, missing))}")
        for key, val in doc.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", {}))
            if sub is False:
                raise error(f"{where} has an unknown key {key!r}")
            check_shape(val, sub, source, error, f"{key_path}.{key}" if key_path else key)
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            raise error(f"{where} needs at least {schema['minItems']} items, got {doc!r}")
        if len(doc) > schema.get("maxItems", len(doc)):
            raise error(f"{where} allows at most {schema['maxItems']} items, got {doc!r}")
        for i, val in enumerate(doc if "items" in schema else ()):
            check_shape(val, schema["items"], source, error, f"{key_path}[{i}]")


def load_system(path) -> SystemDef:
    return system_from_dict(_read_json(path))


def system_from_dict(raw: dict) -> SystemDef:
    check_shape(raw, shipped_schema("system"), "system definition")
    return SystemDef(
        state_names=raw["states"],
        params=raw.get("params", {}),
        f=tuple(parse(s) for s in raw["f"]),
        h=tuple(parse(s) for s in raw["h"]),
        q=parse(raw["q"]),
        box=raw["box"],
    )


def save_system(sys: SystemDef, path):
    write_json(path, sys.to_dict())


def system_equivalence(
    sys: SystemDef, e1: Expr, e2: Expr, n: int = 100, seed: int = 42, rtol: float = 1e-9
):
    """Numeric equivalence of two state-space expressions over the system box,
    with the system's parameters pinned to their declared values."""
    box = {nm: sys.box[nm] for nm in sys.state_names}
    for nm, val in sys.params.items():
        box[nm] = (val, val)
    return equivalent_numeric(e1, e2, box, n=n, seed=seed, rtol=rtol)


# ---------------------------------------------------------------------------
# builtins


def builtin_batch_reactor(k1: float = 1.0, k2: float = 0.5, k3: float = 0.3) -> SystemDef:
    """Three-species series reaction A -> B -> C -> D with the middle step
    second order.  Measured output is cB; estimation target is cA."""
    if min(k1, k2, k3) <= 0:
        raise SystemDefError("rate constants must be positive")
    return SystemDef(
        state_names=("cA", "cB", "cC"),
        params={"k1": k1, "k2": k2, "k3": k3},
        f=(
            parse("-k1*cA"),
            parse("k1*cA - k2*cB^2"),
            parse("k2*cB^2 - k3*cC"),
        ),
        h=(parse("cB"),),
        q=parse("cA"),
        box={"cA": (0.05, 2.0), "cB": (0.05, 2.0), "cC": (0.05, 2.0)},
    )


def builtin_cstr(
    FV: float = 1.0,
    cA_in: float = 1.0,
    theta_in: float = 1.0,
    beta: float = 0.5,
    hA: float = 1.0,
    FjVj: float = 1.0,
    thetaj_in: float = 0.5,
    hAj: float = 1.0,
    k0: float = 1.0,
    EoverR: float = 1.0,
    box: dict | None = None,
) -> SystemDef:
    """Jacketed exothermic CSTR in dimensionless groups.

    States: reactant concentration cA, reactor temperature theta, jacket
    temperature thetaj.  Measured outputs are the two temperatures; the
    estimation target is cA.  Parameter groups: FV = feed flow over reactor
    volume, beta = adiabatic temperature rise group, hA / hAj = heat
    transfer over thermal capacity on the reactor / jacket side, k0 and
    EoverR the Arrhenius constants of the rate law k0*exp(-EoverR/theta).
    """
    vals = dict(
        FV=FV, cA_in=cA_in, theta_in=theta_in, beta=beta, hA=hA,
        FjVj=FjVj, thetaj_in=thetaj_in, hAj=hAj, k0=k0, EoverR=EoverR,
    )
    for nm, v in vals.items():
        if v <= 0:
            raise SystemDefError(f"parameter {nm} must be positive")
    if box is None:
        box = {"cA": (0.05, 2.0), "theta": (0.5, 1.5), "thetaj": (0.3, 1.2)}
    return SystemDef(
        state_names=("cA", "theta", "thetaj"),
        params=vals,
        f=(
            parse("FV*(cA_in - cA) - k0*exp(-EoverR/theta)*cA"),
            parse("FV*(theta_in - theta) + beta*k0*exp(-EoverR/theta)*cA - hA*(theta - thetaj)"),
            parse("FjVj*(thetaj_in - thetaj) + hAj*(theta - thetaj)"),
        ),
        h=(parse("theta"), parse("thetaj")),
        q=parse("cA"),
        box=box,
    )


# ---------------------------------------------------------------------------
# linear systems


def as_matrix(rows, name: str, error=SystemDefError) -> np.ndarray:
    """A float array from nested lists; a ragged one is an input error."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:
        raise error(f"{name!r} is not a rectangular matrix of numbers: {rows!r}") from None


@dataclass
class LinearSystemDef:
    F: np.ndarray
    H: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.F = as_matrix(self.F, "F")
        self.H = np.atleast_2d(as_matrix(self.H, "H"))
        self.q = np.atleast_2d(as_matrix(self.q, "q"))
        n = self.F.shape[0]
        if self.F.shape != (n, n):
            raise SystemDefError("F must be square")
        if self.H.shape[1] != n:
            raise SystemDefError("H must have one column per state")
        if self.q.shape != (1, n):
            raise SystemDefError("q must be a single row over the states")
        for nm, a in (("F", self.F), ("H", self.H), ("q", self.q)):
            if not np.all(np.isfinite(a)):
                raise SystemDefError(f"{nm} has non-finite entries")

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def p(self) -> int:
        return self.H.shape[0]


def load_linear_system(path) -> LinearSystemDef:
    raw = _read_json(path)
    check_shape(raw, shipped_schema("linear_system"), path)
    return LinearSystemDef(F=raw["F"], H=raw["H"], q=raw["q"])


def save_linear_system(lsys: LinearSystemDef, path):
    write_json(path, {"F": lsys.F.tolist(), "H": lsys.H.tolist(), "q": lsys.q.tolist()})


def _linear_row(coefs, names) -> Expr:
    terms = []
    for c, nm in zip(coefs, names):
        c = float(c)
        if c == 0.0:
            continue
        if c == 1.0:
            terms.append(Sym(nm))
        elif c == -1.0:
            terms.append(Neg(Sym(nm)))
        else:
            terms.append(Product((Const(c), Sym(nm))))
    if not terms:
        return Const(0)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def linear_to_system(lsys: LinearSystemDef, box: dict | None = None) -> SystemDef:
    """Express a matrix triple as a SystemDef with states x1..xn, so the
    nonlinear tooling (Lie tables, chain simulation) applies unchanged."""
    names = tuple(f"x{i+1}" for i in range(lsys.n))
    if box is None:
        box = {nm: (-2.0, 2.0) for nm in names}
    return SystemDef(
        state_names=names,
        params={},
        f=tuple(_linear_row(row, names) for row in lsys.F),
        h=tuple(_linear_row(row, names) for row in lsys.H),
        q=_linear_row(lsys.q[0], names),
        box=box,
    )


def with_target(sys: SystemDef, q) -> SystemDef:
    """Copy of a system with a different estimation target."""
    return replace(sys, q=as_expr(q))


# ---------------------------------------------------------------------------
# bundled data and the builtin registry


def data_path(name: str):
    """Path to a bundled data file (psi representations, linear systems)."""
    return resources.files("funcobs").joinpath("data", name)


def builtin_double_integrator() -> LinearSystemDef:
    """Position measured, velocity estimated: the linear example."""
    return load_linear_system(data_path("lin_double_integrator.json"))


# Builtin plants by the name `--builtin` takes.
BUILTINS = {
    "batch-reactor": builtin_batch_reactor,
    "cstr": builtin_cstr,
    "double-integrator": lambda: linear_to_system(builtin_double_integrator()),
}
