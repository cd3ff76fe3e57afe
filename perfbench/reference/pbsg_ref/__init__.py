"""Deciders and brute-force oracles for semigroups of partial bijections
given by generators."""

from .checkers import (
    CheckReport,
    IdentitySummary,
    check_band_semilattice,
    check_clifford,
    check_commutative,
    check_completely_regular,
    check_left_identity_exists,
    check_right_identity_exists,
    enumerate_identities,
    run_generator_check,
)
from .closure import (
    DEFAULT_LIMIT,
    GeneratorSet,
    IncompleteClosure,
    LimitExceeded,
    MemberResult,
    SemigroupClosure,
    close,
    evaluate_word,
    member,
)
from .identities import (
    EmptyWordError,
    Identity,
    IdentitySyntaxError,
    Literal,
    OccurrenceSets,
    PremiseMismatchError,
    Word,
    apply_assignment,
    format_identity,
    occurrence_sets,
    parse_identity,
)
from .model_checker import (
    ArityOverflow,
    BoundaryGuess,
    Counterexample,
    DEFAULT_BUDGET,
    ModelCheckResult,
    VariableRun,
    check_variable_run,
    models,
    realize_assignment,
)
from .oracle import (
    IdentityLists,
    OracleModelResult,
    oracle_check,
    oracle_identities,
    oracle_models,
    oracle_report,
)
from .pbij import PartialBijection, Transformation, all_partial_bijections
from .properties import PropertyName
