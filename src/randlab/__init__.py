"""Finite-stage laboratory for effective randomness constructions.

Everything here is exact: cylinder sets are canonical prefix-free
antichains, measures are dyadic rationals, and staged objects are read off
snapshots accumulated from their event lists.  No floats, no sampling noise.
"""

from .bitstring import BitString, EMPTY, to_nat, from_nat, self_delimit, read_self_delimited, encode_pair, decode_pair
from .dyadic import Dyadic
from .cylinders import CylinderSet, EMPTY_SET, FULL_SET, uniform_suffix_set
from .errors import (
    RandlabError,
    InconsistentFunctional,
    GuardExceeded,
    DepthExhausted,
    SchemeError,
    DensityError,
    ScenarioError,
)
from .staged import Enumerator, StagedOpenSet, TuringFunctional, Pi01Tree, ValuedOpenSet
from .demuth import (
    VersionedOpenSet,
    DemuthTest,
    DiffPair,
    DiffUnionTest,
    LevelReport,
    TestReport,
    verify_demuth,
    verify_diffunion,
    demuth_to_diffunion,
    diffunion_to_demuth,
    solovay_membership_profile,
)
from .fireworks import (
    Outcome,
    Requirement,
    FireworksConfig,
    FireworksRun,
    StrategyRecord,
    FailureSets,
    default_cap_bounds,
    oracle_block_caps,
    caps_from_seed,
    run_fireworks,
    Sweep,
    sweep,
    check_requirement,
)
from .coding import (
    kucera_depth,
    kg_encode,
    kg_decode,
    kg_decode_prefix,
    OpenFamily,
    W2RScheme,
    W2REncoding,
    LayerRecord,
    GammaResult,
    g_lsc,
    w2r_encode,
    w2r_extend,
    stabilization_stage,
    gamma_decode,
    shifted_core,
    extend_into_open,
)
from .scenario import (
    Experiment,
    Scenario,
    ScenarioResult,
    bundled_scenarios,
    load_scenario,
    run_scenario,
)
from .minpair import (
    PairFamily,
    FApprox,
    BranchIsolation,
    IsolationAnalysis,
    CaseReport,
    find_family,
    f_approx,
    induced_demuth_level,
    isolated_path_analysis,
    output_tree,
    classify_case,
)

__version__ = "0.1.0"

__all__ = [
    "BitString", "EMPTY", "to_nat", "from_nat", "self_delimit",
    "read_self_delimited", "encode_pair", "decode_pair",
    "Dyadic",
    "CylinderSet", "EMPTY_SET", "FULL_SET", "uniform_suffix_set",
    "RandlabError", "InconsistentFunctional", "GuardExceeded",
    "DepthExhausted", "SchemeError", "DensityError", "ScenarioError",
    "Enumerator", "StagedOpenSet", "TuringFunctional", "Pi01Tree", "ValuedOpenSet",
    "VersionedOpenSet", "DemuthTest", "DiffPair", "DiffUnionTest",
    "LevelReport", "TestReport", "verify_demuth", "verify_diffunion",
    "demuth_to_diffunion", "diffunion_to_demuth", "solovay_membership_profile",
    "Outcome", "Requirement", "FireworksConfig", "FireworksRun",
    "StrategyRecord", "FailureSets", "default_cap_bounds", "oracle_block_caps",
    "caps_from_seed", "run_fireworks",
    "Sweep", "sweep", "check_requirement",
    "kucera_depth", "kg_encode", "kg_decode", "kg_decode_prefix",
    "OpenFamily", "W2RScheme", "W2REncoding", "LayerRecord", "GammaResult",
    "g_lsc", "w2r_encode", "w2r_extend", "stabilization_stage", "gamma_decode",
    "shifted_core", "extend_into_open",
    "Experiment", "Scenario", "ScenarioResult", "bundled_scenarios",
    "load_scenario", "run_scenario",
    "PairFamily", "FApprox", "BranchIsolation", "IsolationAnalysis",
    "CaseReport", "find_family", "f_approx", "induced_demuth_level",
    "isolated_path_analysis", "output_tree", "classify_case",
]
