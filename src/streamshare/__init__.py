"""Exact-arithmetic revenue sharing for streaming platforms.

The package divides subscription revenue among artists from a matrix of
stream counts.  It implements the two allocation schemes used in practice
(pro-rata and user-centric) plus a weighted family interpolating between
them, property checkers that probe any index for fairness defects with
concrete counterexamples, a cooperative-game view with two independent
stability oracles, and classic claims-rationing rules that reproduce both
standard schemes.  All computation is exact rational arithmetic.
"""
from importlib import import_module as _import_module

from .model import (
    Allocation,
    AllZeroMatrix,
    ArtistMismatch,
    DimensionMismatch,
    DuplicateIdentifier,
    EmptyUserColumn,
    FeeMismatch,
    IndexValues,
    InvalidPartition,
    InvalidProblem,
    ModelError,
    NonPositiveFee,
    NotInCore,
    OverlappingUsers,
    ParseError,
    PremiseViolated,
    StreamingProblem,
    TooManyPlayers,
    UnknownArtist,
    UnknownUser,
    WeightContractViolated,
    WouldBeEmpty,
    as_rational,
    decimal_display,
    merge_problems,
    new_problem,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
    reorder_users,
    serialize_problem,
    split_problem,
)
from .indices import (
    BandedWeightParams,
    Index,
    NonPositiveWeight,
    WeightSystem,
    ZeroIndexSum,
    banded_index,
    banded_weight_system,
    equal_split_index,
    index_from_weights,
    padded_share_index,
    pro_rata_index,
    rewards,
    squared_streams_index,
    standard_indices,
    stream_share_index,
    table_weight_system,
    uniform_index,
    user_centric_index,
    weighted_index,
    PRO_RATA,
    USER_CENTRIC,
    UNIFORM,
    PADDED_SHARE,
    SQUARED_STREAMS,
    STREAM_SHARE,
    EQUAL_SPLIT,
    REFERENCE_INDICES,
)

# The other three modules load on first use (PEP 562), so a command that only
# allocates never compiles them.  Their exception classes live in model.
_LAZY = {
    "game": (
        "CoalitionalGame", "CoreDecomposition", "DirectCoreResult", "DividendTable",
        "FlowCoreResult", "SupermodularityResult", "extract_decomposition",
        "harsanyi_dividends", "in_core_direct", "in_core_flow", "in_domain_pstar",
        "is_supermodular", "reconstruct_from_dividends", "streaming_game",
    ),
    "claims": (
        "BankruptcyProblem", "CeaAwards", "IssueWeightFunction", "MultiIssueClaims",
        "cea_awards", "cea_rule", "equal_issue_weights", "issue_size_weights",
        "proportional_rule", "streaming_to_bankruptcy", "streaming_to_claims",
        "two_stage_rule", "weighted_proportional",
    ),
    "axioms": (
        "AXIOM_NAMES", "AxiomVerdict", "ProblemGenerator", "Status", "axiom_matrix",
        "check_additivity", "check_click_fraud_proofness", "check_core_selection",
        "check_equal_global_impact", "check_equal_individual_impact", "check_homogeneity",
        "check_reasonable_lower_bound", "check_reasonable_lower_bound_all", "evaluate_axiom",
        "recheck_witness", "reference_problems", "search_witness",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"
