"""regscan: local regularity analysis of discretized velocity fields.

The package measures weak-Lebesgue norms, scaling-invariant local
quantities, and nested-cube singularity localizations of sampled
incompressible velocity fields, and verifies the local pressure
decomposition and energy balance they rest on.
"""

__version__ = "0.1.0"

from .grid import (
    Ball,
    Box3,
    Cube,
    Cylinder,
    ScalarGrid,
    SpaceTimeField,
    VectorGrid,
    gradient,
    region_measure,
    restrict,
    scalar_gradient,
)
from .lorentz import (
    LevelSetProfile,
    NormReport,
    distribution,
    equivalent_norm,
    l4_interpolation_check,
    local_l2_check,
    lp_norm,
    weak_norm,
)
from .localquant import (
    AnalysisConfig,
    QuantReport,
    caccioppoli_sides,
    criterion_e16,
    energy_sup,
    q3,
    quant_report,
    rescale,
)
from .dyadic import (
    CandidateSet,
    CountBoundError,
    DyadicCube,
    SelectionFamily,
    build_chains,
    build_cover,
    count_bound,
    localize,
    select_f0,
    select_fk,
)
from .stokes import (
    BumpTestFunction,
    LocalPressure,
    StokesError,
    StokesSolution,
    check_bump,
    estar,
    harmonic_residual,
    harmonic_rigidity_check,
    local_energy_residual,
    pressure_parts,
    projection_residual,
    restrict_to_cube,
)
from .synth import (
    SolverConfig,
    SolverError,
    SolverRun,
    SpikeSpec,
    default_box,
    random_solenoidal,
    run_solver,
    spike_field,
    taylor_green,
)
from .fieldio import FieldFormatError, read_field, write_field

__all__ = [
    "__version__",
    # grid
    "Ball", "Box3", "Cube", "Cylinder", "ScalarGrid", "SpaceTimeField",
    "VectorGrid", "gradient", "region_measure", "restrict", "scalar_gradient",
    # lorentz
    "LevelSetProfile", "NormReport", "distribution", "equivalent_norm",
    "l4_interpolation_check", "local_l2_check", "lp_norm", "weak_norm",
    # localquant
    "AnalysisConfig", "QuantReport", "caccioppoli_sides", "criterion_e16",
    "energy_sup", "q3", "quant_report", "rescale",
    # dyadic
    "CandidateSet", "CountBoundError", "DyadicCube", "SelectionFamily",
    "build_chains", "build_cover", "count_bound", "localize", "select_f0",
    "select_fk",
    # stokes
    "BumpTestFunction", "LocalPressure", "StokesError", "StokesSolution",
    "check_bump", "estar", "harmonic_residual", "harmonic_rigidity_check",
    "local_energy_residual", "pressure_parts", "projection_residual",
    "restrict_to_cube",
    # synth
    "SolverConfig", "SolverError", "SolverRun", "SpikeSpec", "default_box",
    "random_solenoidal", "run_solver", "spike_field", "taylor_green",
    # io
    "FieldFormatError", "read_field", "write_field",
]
