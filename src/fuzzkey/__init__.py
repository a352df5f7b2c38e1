"""Fuzzy-relevance feature selection with keyed envelopes for the results.

The library ranks dataset features by fuzzy relevance (triangular
membership partitions, rule firing, centroid defuzzification), selects the
best by top-k or threshold, and can seal the serialized selection in a
key-cycled cipher envelope.  The cipher is educational only and NOT secure
against modern cryptanalysis.
"""

from .cipher import (
    CipherEnvelope,
    CipherKey,
    MODE_BYTE_SHIFT,
    MODE_LETTERS,
    decrypt,
    encrypt,
    make_tag,
    open_envelope,
    parse_selection,
    seal,
    serialize_selection,
    verify_tag,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DataFormatError,
    FuzzkeyError,
    IntegrityError,
    InvalidKeyError,
    InvalidPlaintextError,
)
from .fuzzy import (
    DefuzzConfig,
    FuzzyPartition,
    MembershipFunction,
    MembershipVector,
    RuleBase,
    defuzzify_centroid,
    eval_membership,
    evaluate_rules,
    fuzzify,
    make_uniform_partition,
)
from .network import DynamicFuzzyNetwork, PropagationStats
from .pipeline import PipelineConfig, PipelineOutcome, analyze, load_config_file, render_report
from .selection import (
    RelevanceScore,
    SelectionResult,
    rank_scores,
    relevance_inference,
    score_columns,
    select_threshold,
    select_topk,
)

__version__ = "0.1.0"

__all__ = [
    "CipherEnvelope",
    "CipherKey",
    "ConfigurationError",
    "ContractViolationError",
    "DataFormatError",
    "DefuzzConfig",
    "DynamicFuzzyNetwork",
    "FuzzkeyError",
    "FuzzyPartition",
    "IntegrityError",
    "InvalidKeyError",
    "InvalidPlaintextError",
    "MembershipFunction",
    "MembershipVector",
    "MODE_BYTE_SHIFT",
    "MODE_LETTERS",
    "PipelineConfig",
    "PipelineOutcome",
    "PropagationStats",
    "RelevanceScore",
    "RuleBase",
    "SelectionResult",
    "analyze",
    "decrypt",
    "defuzzify_centroid",
    "encrypt",
    "eval_membership",
    "evaluate_rules",
    "fuzzify",
    "load_config_file",
    "make_tag",
    "make_uniform_partition",
    "open_envelope",
    "parse_selection",
    "rank_scores",
    "relevance_inference",
    "render_report",
    "score_columns",
    "seal",
    "select_threshold",
    "select_topk",
    "serialize_selection",
    "verify_tag",
]
