"""Exact tools for measurement contextuality.

Scenarios and empirical models are exact-rational; contextuality is decided
both by linear programming (contextual fraction) and by exhaustive support
scans, and the two routes are cross-checked.  Construction helpers generate
maximally contextual models from parity systems and Boolean constraint
choices, and application helpers certify marginal randomness and simulate a
secret-sharing protocol.
"""

from .analysis import (
    AvnCertificate,
    ClassificationReport,
    avn_certificate,
    classify,
    contextual_fraction,
    incidence_matrix,
    is_strongly_contextual,
)
from .applications import (
    EntropyReport,
    SecretShareResult,
    ShareRound,
    certify_amcc_entropy,
    guessing_probability,
    min_entropy,
    secret_share_simulate,
)
from .catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from .construct import (
    CspEnumeration,
    ParityEnumeration,
    ParitySystem,
    ScanReport,
    boolean_no_signaling,
    candidate_model,
    csp_enumerate_extension,
    csp_extension_preset,
    eight_param_family,
    enumerate_parity,
    parity_consistent,
    parity_preset_from_dict,
    parity_preset_to_dict,
    parity_system,
    parity_to_possibilistic,
    scan_eight_param,
    scan_eight_param_pairs,
    three_param_family,
    twentysix_param_family,
    twentysix_params_from_model,
)
from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    deterministic_model,
    format_rational,
    from_global_distribution,
    is_maximal_marginal,
    is_no_signaling,
    lift_uniform,
    make_model,
    marginal,
    mix,
    model_from_dict,
    model_to_dict,
    parse_rational,
    possibilistic_collapse,
    possibilistic_from_dict,
    possibilistic_to_dict,
)
from .errors import ContextualityError, InternalConsistencyError
from .ratlp import LinearProgram, LpOutcome, LpStatus, maximize, solve_feasibility
from .scenario import (
    MeasurementScenario,
    bell_scenario,
    make_scenario,
    polytope_dimension,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
