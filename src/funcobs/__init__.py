"""funcobs: local functional observability analysis and functional observer
synthesis for smooth nonlinear systems, with verification by simulation."""

from .expr import (
    Expr,
    Const,
    Sym,
    WVar,
    parse,
    to_text,
    evaluate,
    differentiate,
    substitute,
    simplify,
    equivalent_numeric,
    free_symbols,
    ExprError,
    ParseError,
    EvalError,
)
from .system import (
    SystemDef,
    LinearSystemDef,
    SystemDefError,
    load_system,
    save_system,
    load_linear_system,
    save_linear_system,
    linear_to_system,
    builtin_batch_reactor,
    builtin_cstr,
    builtin_double_integrator,
    data_path,
    system_equivalence,
    with_target,
)
from .lie import (
    ObservabilitySet,
    QDerivatives,
    lie_derivative,
    observability_set,
    observability_jacobian,
    q_derivatives,
    lie_series_predict,
)
from .observability import (
    RankReport,
    FunctionalRankCheck,
    FunctionalIndexScan,
    PsiRepresentation,
    PsiVerification,
    LiftResult,
    state_observability_rank,
    observability_index,
    functional_rank_check,
    functional_index_candidate,
    verify_psi,
    lift_psi,
    load_psi,
    save_psi,
    numeric_rank,
)
from .synthesis import (
    AlphaCoeffs,
    ObserverIO,
    LinearObserver,
    UnstablePolesError,
    SynthesisError,
    poles_to_alphas,
    make_alphas,
    synthesize_nonlinear,
    invariance_identity,
    verify_invariance,
    linear_functional_index,
    compute_M,
    compute_betas,
    linear_realization,
    design_linear_observer,
    linear_observer_chain_T,
    linear_observer_to_io,
    xi_from_chain,
    linear_error_init,
    save_observer,
    load_observer,
)
from .sim import (
    SimError,
    SimTrace,
    integrate_plant,
    simulate_coupled,
    simulate_custom_observer,
    simulate_linear_observer,
    chain_init_exact,
    exact_error_solution,
    exact_error_grid,
    error_decay_fit,
    write_csv,
)

__version__ = "0.1.0"


def __getattr__(name):
    # `main` loads on first use, so that `python -m funcobs.cli` does not
    # find funcobs.cli already imported by the package.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
