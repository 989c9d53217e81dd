"""fqlab: exact F_p[x] arithmetic and a desk-scale correlation laboratory."""

from .fieldpoly import (
    FieldSpec,
    Poly,
    PolyError,
    format_poly,
    monic_from_index,
    norm,
    parse_poly,
    poly_gcd_lcm,
)
from .sieve import (
    Factorization,
    IrreducibleTable,
    MemoryBudgetError,
    SieveError,
    TableTooSmallError,
    build_table,
    factorize,
    irreducible_count,
    residue_histogram,
)
from .arith import (
    AdditiveSpec,
    FunctionSpec,
    SpecError,
    builtin,
    builtin_additive,
    custom_from_table,
    exp_additive,
    parse_additive_spec,
    parse_function_spec,
    phi,
)
from .mainterm import (
    MainTermError,
    ShiftPair,
    TruncatedValue,
    main_term,
)
from .correlate import (
    CorrelationReport,
    CorrelationSpec,
    EngineError,
    correlate,
    crt_count,
)
from .stats import (
    CharFunctionGrid,
    EmpiricalDistribution,
    SieveDiagnostics,
    StatsError,
    TKReport,
    brun_titchmarsh_violations,
    charfn_comparison,
    empirical_charfn,
    empirical_distribution,
    ks_distance,
    limit_charfn,
    sieve_diagnostics,
    squarefree_weight_sum,
    tk_ratio,
)

__version__ = "0.1.0"
