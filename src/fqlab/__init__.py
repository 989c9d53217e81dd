"""fqlab: exact F_p[x] arithmetic and a desk-scale correlation laboratory."""

from .fieldpoly import (
    FieldSpec,
    Poly,
    PolyError,
    enumerate_monic,
    format_poly,
    monic_from_index,
    norm,
    parse_poly,
    poly_arith,
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
    necklace_check,
    prime_count_ap,
    residue_histogram,
)
from .arith import (
    AdditiveSpec,
    FunctionSpec,
    SpecError,
    builtin,
    builtin_additive,
    closeness_partial_sums,
    custom_from_table,
    distance,
    eval_additive_on,
    eval_on,
    exp_additive,
    mertens_sum,
    parse_additive_spec,
    parse_function_spec,
    phi,
)
from .mainterm import (
    MainTermError,
    ShiftPair,
    TruncatedValue,
    error_bound_shape,
    liouville_local_closed,
    local_factor,
    main_term,
)
from .correlate import (
    CorrelationReport,
    CorrelationSpec,
    EngineError,
    ScanPoint,
    correlate,
    crt_count,
    crt_count_enumerated,
    deviation_scan,
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
