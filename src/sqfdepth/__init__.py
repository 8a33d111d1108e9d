"""Depth and Stanley depth analysis for quotients of square-free monomial ideals."""

from .certificates import (
    ALTERNATING_DROP,
    BASE_DROP,
    LAYER_SANDWICH,
    LOWER_BOUND,
    PRINCIPAL_GAP,
    RANK_SPLIT,
    AnalysisReport,
    Certificate,
    Conclusion,
    analyze,
    check_alternating_drop,
    check_base_drop,
    check_layer_sandwich,
    check_lower_bound,
    check_principal_gap,
    check_rank_split,
    counting_certificates,
)
from .errors import InputError, InternalConsistencyError, TheoremViolationError, ValidationError
from .generate import GeneratorParams, default_params, random_instance
from .instancefile import instance_to_json, parse_instance
from .linalg import GF2, RATIONALS, FieldSpec
from .monomials import Monomial, MonomialIdeal, QuotientInstance, ideal_contains, minimalize, validate_pair
from .poset import PosetLayers, enumerate_quotient
from .scan import ScanReport, conjecture_scan
from .stanley import Interval, IntervalPartition, partition_exists, stanley_depth, verify_partition
from .strands import StrandComplex, build_strand, exact_depth_multi

__version__ = "0.1.0"

__all__ = [
    "ALTERNATING_DROP",
    "BASE_DROP",
    "LAYER_SANDWICH",
    "LOWER_BOUND",
    "PRINCIPAL_GAP",
    "RANK_SPLIT",
    "AnalysisReport",
    "Certificate",
    "Conclusion",
    "FieldSpec",
    "GF2",
    "GeneratorParams",
    "InputError",
    "InternalConsistencyError",
    "Interval",
    "IntervalPartition",
    "Monomial",
    "MonomialIdeal",
    "PosetLayers",
    "QuotientInstance",
    "RATIONALS",
    "ScanReport",
    "StrandComplex",
    "TheoremViolationError",
    "ValidationError",
    "analyze",
    "build_strand",
    "check_alternating_drop",
    "check_base_drop",
    "check_layer_sandwich",
    "check_lower_bound",
    "check_principal_gap",
    "check_rank_split",
    "conjecture_scan",
    "counting_certificates",
    "default_params",
    "enumerate_quotient",
    "exact_depth_multi",
    "ideal_contains",
    "instance_to_json",
    "minimalize",
    "parse_instance",
    "partition_exists",
    "random_instance",
    "stanley_depth",
    "validate_pair",
    "verify_partition",
]
