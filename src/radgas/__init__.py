"""1D Lagrangian solver and diagnostics for a viscous, radiative, reactive gas."""

from .constitutive import (
    GasParameters,
    conduction_potential,
    conductivity,
    constitutive_partials,
    entropy_eta,
    internal_energy,
    pressure,
    reaction_rate,
)
from .domain import (
    Grid,
    ScenarioSpec,
    State,
    build_grid,
    make_initial_data,
    validate_initial_data,
    validate_parameters,
)
from .errors import (
    BlowUpError,
    ConfigError,
    ConvergenceError,
    InsufficientHistory,
    PositivityError,
    SingularMatrixError,
    WindowOutOfDomain,
)
from .functionals import (
    DiagnosticsRecord,
    ProbeWindow,
    RepresentationProbe,
    WindowHistory,
    interval_probe,
    representation_check,
    temperature_envelope_check,
    theta_bound_from_Y,
)
from .integrator import (
    RunResult,
    StepOutcome,
    heat_step,
    hydro_step,
    run_simulation,
    select_timestep,
    species_step,
    strang_step,
    tridiagonal_solve,
)

__version__ = "0.1.0"
