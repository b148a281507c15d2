"""funcobs: local functional observability analysis and functional observer
synthesis for smooth nonlinear systems, with verification by simulation.

The public names below load their submodule on first use, so `import
funcobs` loads no numpy and leaves the BLAS thread settings alone, and
`python -m funcobs.cli` does not find funcobs.cli already imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "expr": """Expr Const Sym parse to_text evaluate differentiate substitute
        simplify equivalent_numeric free_symbols ExprError ParseError EvalError""",
    "system": """SystemDef LinearSystemDef SystemDefError load_system save_system
        load_linear_system linear_to_system builtin_batch_reactor builtin_cstr
        builtin_double_integrator data_path system_equivalence""",
    "lie": """lie_derivative lie_table measured_derivatives target_derivatives
        lie_series_predict""",
    "observability": """RankReport SpanCheck FunctionalIndexScan
        PsiRepresentation analysis verify_psi load_psi numeric_rank""",
    "synthesis": """AlphaCoeffs ObserverIO LinearObserver UnstablePolesError
        SynthesisError poles_to_alphas make_alphas synthesize_nonlinear
        invariance_identity verify_invariance linear_functional_index compute_M
        compute_betas linear_realization design_linear_observer xi_from_chain
        linear_error_init save_observer load_observer""",
    "sim": """SimError SimTrace integrate_plant simulate_coupled
        simulate_custom_observer simulate_linear_observer chain_init_exact
        exact_error_grid error_decay_fit write_csv""",
    "jets": "",
    "cli": "main",
}
_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule
        return importlib.import_module(f".{name}", __name__)
    mod = _SUBMODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
