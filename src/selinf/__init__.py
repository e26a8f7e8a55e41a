"""Tests of selective influences for finite discrete input-output systems.

Given one joint output distribution per allowable treatment, the package
decides consistency with selective influences via the coupling-existence
criterion (a linear feasibility problem) and a battery of necessary
conditions: marginal selectivity, distance chain inequalities, cosphericity,
and interaction-contrast analysis for composed response times.
"""

from .architectures import (
    ContrastProfile,
    RtSystem,
    classify_architecture,
    compose_rt,
    interaction_contrast,
    jump_points,
)
from .cosphericity import (
    CosphericityResult,
    cosphericity_report,
    run_cosphericity,
)
from .distances import (
    ChainViolation,
    ClassificationMetric,
    PowerMetric,
    enumerate_test_sequences,
    pairwise_distance,
    run_distance_test,
)
from .errors import (
    CapacityError,
    InapplicableError,
    SelinfError,
    SolverError,
    UsageError,
)
from .feasibility import (
    CouplingWitness,
    FeasibilitySystem,
    FineViolation,
    LpVerdict,
    build_feasibility_system,
    extract_coupling_marginals,
    fine_inequality_check,
    lp_report,
    make_witness,
    solve_feasibility,
)
from .marginal import MarginalReport, check_marginal_selectivity
from .model import (
    Design,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    System,
    generate_system,
    marginalize,
    validate_system,
)
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .transforms import (
    OutputTransform,
    TransformSpec,
    apply_transform,
    generate_battery,
    identity_transform,
    run_battery,
)

__version__ = "0.1.0"

__all__ = [
    "CONSISTENT",
    "INAPPLICABLE",
    "RULED_OUT",
    "CapacityError",
    "ChainViolation",
    "ClassificationMetric",
    "ContrastProfile",
    "CosphericityResult",
    "CouplingWitness",
    "Design",
    "FeasibilitySystem",
    "FineViolation",
    "InapplicableError",
    "InputSpec",
    "JointPmf",
    "LatentModel",
    "LpVerdict",
    "MarginalReport",
    "OutputSpec",
    "OutputTransform",
    "PowerMetric",
    "RtSystem",
    "SelinfError",
    "SolverError",
    "System",
    "TestReport",
    "TransformSpec",
    "UsageError",
    "apply_transform",
    "build_feasibility_system",
    "check_marginal_selectivity",
    "classify_architecture",
    "compose_rt",
    "cosphericity_report",
    "enumerate_test_sequences",
    "extract_coupling_marginals",
    "fine_inequality_check",
    "generate_battery",
    "generate_system",
    "identity_transform",
    "interaction_contrast",
    "jump_points",
    "lp_report",
    "make_witness",
    "marginalize",
    "pairwise_distance",
    "run_battery",
    "run_cosphericity",
    "run_distance_test",
    "solve_feasibility",
    "validate_system",
]
