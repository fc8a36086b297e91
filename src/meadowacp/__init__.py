"""Meadow arithmetic and data-enriched process algebra.

Exact arithmetic for meadows (fields with a zero-totalized multiplicative
inverse), process terms with guarded commands and data-handling actions
over a meadow, canonical normalization, a bisimulation oracle, and
exhaustive/randomized verification of the defining axiom systems.
"""

from .meadow import (
    InfiniteCarrier,
    MeadowError,
    MeadowKind,
    MeadowValue,
    MixedMeadow,
    MEADOW_AXIOMS,
    NonPrimeModulus,
    QAdd,
    QConst,
    QInv,
    QMul,
    QNeg,
    QOne,
    QVar,
    QZero,
    QuantityTerm,
    UnboundVariable,
    check_meadow_axioms,
    enumerate_carrier,
    eval_quantity,
    meadow_add,
    meadow_inv,
    meadow_mul,
    meadow_neg,
    pretty_quantity,
    quantity_literal,
    random_rational,
)
from .terms import (
    Action,
    ActionLiteral,
    Alt,
    CommMerge,
    DataAction,
    Deadlock,
    Encap,
    Guard,
    LeftMerge,
    OpenTerm,
    Par,
    ProcVar,
    ProcessError,
    ProcessTerm,
    Seq,
    SpecContext,
    closed_ground_term,
    free_process_vars,
    free_quantity_vars,
    inline_definitions,
    validate_comm_spec,
)
from .normalize import (
    BasicTerm,
    Engine,
    GuardChainMismatch,
    Summand,
    equal_terms,
    normal_forms,
    normalize,
)
from .lts import LTS, bisimilar, build_lts, to_dot
from .axioms import (
    ACP_AXIOM_IDS,
    DERIVED_AXIOM_IDS,
    ENRICHED_AXIOM_IDS,
    OracleDisagreement,
    TermGen,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
    default_context,
)
from .report import AxiomReport, AxiomResult
from .speclang import SpecError, parse_spec, parse_term, pretty_term

__version__ = "0.1.0"
