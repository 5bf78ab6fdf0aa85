"""Truncated Lagrangian domain, staggered mesh, discrete state, initial data.

The infinite line is truncated to [-L, L] with the far-field rest state
(v, u, theta, z) = (1, 0, 1, 0) imposed through fixed boundary nodes
(u = 0) and ghost cells (v = 1, theta = 1, z = 0).  Velocity lives on the
N+1 mesh nodes; volume, temperature, and reactant fraction live on the N
cell centers.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .constitutive import GasParameters
from .errors import ConfigError

__all__ = [
    "Grid",
    "State",
    "ScenarioSpec",
    "ParameterReport",
    "InitialDataReport",
    "build_grid",
    "make_initial_data",
    "validate_parameters",
    "validate_initial_data",
    "boundary_band_cells",
    "boundary_deviation",
    "norms",
]

INITIAL_FAR_FIELD_TOL = 1e-8
# Largest cell count build_grid accepts: a field array then holds 8 MB, and
# no shipped config, test or benchmark workload uses more than N = 2048
MAX_CELLS = 2**20
# Largest Picard sweep cap a scenario accepts: 20x the shipped 50, while the
# canonical run averages 2.94 sweeps per heat substep
MAX_PICARD_ITERS = 1000


@dataclass(frozen=True)
class Grid:
    """Uniform staggered mesh on [-L, L]: N cells, N+1 nodes."""

    L: float
    N: int
    dx: float
    cell_centers: np.ndarray
    node_positions: np.ndarray


@dataclass
class State:
    """Discrete fields at one instant: v, theta, z on cells, u on nodes."""

    t: float
    v: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class ScenarioSpec:
    """Gaussian initial data plus domain, mesh, and solver configuration, validated when built.

    The defaults, all amplitudes 0.0, are the exact rest state.
    """

    amplitude_v: float = 0.0
    amplitude_u: float = 0.0
    amplitude_theta: float = 0.0
    amplitude_z: float = 0.0
    width: float = 1.0
    params: GasParameters = field(default_factory=GasParameters)
    L: float = 20.0
    N: int = 512
    T_end: float = 20.0
    cfl: float = 0.5
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    floor_v: float = 1e-6
    floor_theta: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.width <= 0:
            raise ConfigError("width must be > 0")
        if self.T_end <= 0:
            raise ConfigError("T_end must be > 0")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("cfl must lie in (0, 1]")
        if not (self.floor_v > 0 and self.floor_theta > 0):
            raise ConfigError("positivity floors must be > 0")
        if not (self.picard_tol > 0 and self.picard_max_iters >= 1):
            raise ConfigError("Picard tolerance must be > 0 and iteration cap >= 1")
        if self.picard_max_iters > MAX_PICARD_ITERS:
            raise ConfigError(f"picard_max_iters must be <= {MAX_PICARD_ITERS}, "
                              f"got {self.picard_max_iters}")
        grid = build_grid(self.L, self.N)  # build_grid owns the L and N checks
        state = make_initial_data(self, grid)
        report = validate_initial_data(state, grid)
        if not report.passed:
            raise ConfigError("initial data rejected: " + "; ".join(report.failures))
        for name, floor, values in (("floor_v", self.floor_v, state.v),
                                    ("floor_theta", self.floor_theta, state.theta)):
            if not values.min() > floor:
                raise ConfigError(f"{name} = {floor:g} is not below the initial minimum "
                                  f"{values.min():.6g}")
        # The first step's species update, halved down to DT_MIN / 2, must fit
        # the subcycle cap, or every attempt is rejected (the integrator
        # imports this module, so its names are imported here)
        from .integrator import DT_MIN, MAX_SUBCYCLES, _species_rates

        with np.errstate(over="ignore", invalid="ignore"):
            needed = _species_rates(state, grid, self.params, 0.5 * DT_MIN)[3]
        if not needed <= MAX_SUBCYCLES:
            raise ConfigError(f"the species update needs {needed:.3g} subcycles even at "
                              f"dt_min = {DT_MIN:g} (at most {MAX_SUBCYCLES}); "
                              f"K_react or d is too large")


def build_grid(L: float, N: int) -> Grid:
    """Build the uniform staggered grid; N must be even, at least 8 and at most MAX_CELLS."""
    if L <= 0:
        raise ConfigError(f"domain half-width must be > 0, got {L}")
    if N < 8 or N % 2 != 0:
        raise ConfigError(f"cell count must be even and >= 8, got {N}")
    if N > MAX_CELLS:
        raise ConfigError(f"cell count must be <= {MAX_CELLS}, got {N}")
    dx = 2.0 * L / N
    nodes = -L + dx * np.arange(N + 1)
    cells = 0.5 * (nodes[:-1] + nodes[1:])
    return Grid(L=float(L), N=int(N), dx=dx, cell_centers=cells, node_positions=nodes)


def _gaussian_profile(x, width):
    return np.exp(-(x**2) / width**2)


def make_initial_data(spec: ScenarioSpec, grid: Grid) -> State:
    """Sample the Gaussian perturbation of the rest state onto the grid.

    The profile exp(-x^2 / width^2) multiplies each amplitude, so zero
    amplitudes give the exact rest state.  Raises ConfigError when an
    amplitude would violate positivity of v or theta or push z out of [0, 1].
    """
    # the profile peaks at 1, so the amplitude alone decides positivity
    if spec.amplitude_v <= -1.0:
        raise ConfigError("amplitude_v would make the initial volume nonpositive")
    if spec.amplitude_theta <= -1.0:
        raise ConfigError("amplitude_theta would make the initial temperature nonpositive")
    if not (0.0 <= spec.amplitude_z <= 1.0):
        raise ConfigError("amplitude_z must lie in [0, 1] to keep z within bounds")
    profile_c = _gaussian_profile(grid.cell_centers, spec.width)
    profile_n = _gaussian_profile(grid.node_positions, spec.width)

    v = 1.0 + spec.amplitude_v * profile_c
    theta = 1.0 + spec.amplitude_theta * profile_c
    z = spec.amplitude_z * profile_c
    u = spec.amplitude_u * profile_n
    u[0] = 0.0
    u[-1] = 0.0
    return State(t=0.0, v=v, theta=theta, z=z, u=u)


@dataclass(frozen=True)
class ParameterReport:
    """Admissibility report for the conductivity/rate exponents (b, beta)."""

    b: float
    beta: float
    admissible: bool
    conditions: dict
    regions: dict

    def summary(self) -> str:
        verdict = "admissible" if self.admissible else "inadmissible"
        lines = [f"(b, beta) = ({self.b}, {self.beta}): {verdict}"]
        for name, ok in self.conditions.items():
            lines.append(f"  condition {name}: {'pass' if ok else 'fail'}")
        for name, ok in self.regions.items():
            lines.append(f"  region {name}: {'inside' if ok else 'outside'}")
        return "\n".join(lines)


def validate_parameters(params: GasParameters) -> ParameterReport:
    """Check (b, beta) admissibility; also classify against older, narrower ranges."""
    b, beta = params.b, params.beta
    conditions = {
        "b > 12/7": b > 12.0 / 7.0,
        "0 <= beta < b + 9": 0.0 <= beta < b + 9.0,
    }
    regions = {
        "b >= 11/3, beta <= b + 9": b >= 11.0 / 3.0 and 0.0 <= beta <= b + 9.0,
        "9/4 < b < 3, beta < 2b + 6": 9.0 / 4.0 < b < 3.0 and 0.0 <= beta < 2.0 * b + 6.0,
        "b >= 3, beta < b + 9": b >= 3.0 and 0.0 <= beta < b + 9.0,
    }
    return ParameterReport(
        b=b,
        beta=beta,
        admissible=all(conditions.values()),
        conditions=conditions,
        regions=regions,
    )


def boundary_band_cells(N: int) -> int:
    """Number of cells per side making up the outermost 5% band."""
    return max(1, int(round(0.05 * N)))


def boundary_deviation(state: State, grid: Grid) -> float:
    """Largest deviation from the far-field state over the outer 5% band."""
    band = boundary_band_cells(grid.N)
    worst = 0.0
    for f in (state.v - 1.0, state.theta - 1.0, state.z):
        worst = max(worst, float(np.max(np.abs(f[:band]))), float(np.max(np.abs(f[-band:]))))
    worst = max(
        worst,
        float(np.max(np.abs(state.u[: band + 1]))),
        float(np.max(np.abs(state.u[-band - 1:]))),
    )
    return worst


def _u_on_cells(u: np.ndarray) -> np.ndarray:
    """The node velocity averaged onto the cells."""
    return 0.5 * (u[:-1] + u[1:])


def norms(state: State, grid: Grid) -> dict:
    """Deviation norms of (v-1, u, theta-1, z) and their discrete gradients."""
    dx = grid.dx
    devs = (state.v - 1.0, _u_on_cells(state.u), state.theta - 1.0, state.z)
    p2 = sum(np.sum(f**2) for f in devs) * dx
    p4 = sum(np.sum(f**4) for f in devs) * dx
    linf = max(float(np.max(np.abs(f))) for f in devs)
    grads2 = sum(np.sum((np.diff(f) / dx) ** 2) for f in (state.v, state.theta, state.z)) * dx
    grads2 += np.sum((np.diff(state.u) / dx) ** 2) * dx
    return {
        "L2": float(np.sqrt(p2)),
        "L4": float(p4**0.25),
        "Linf": linf,
        "grad_L2": float(np.sqrt(grads2)),
    }


@dataclass(frozen=True)
class InitialDataReport:
    """Positivity, confinement, far-field, and norm checks on initial data."""

    far_field_deviation: float
    norms: dict
    passed: bool
    failures: tuple


def validate_initial_data(state: State, grid: Grid) -> InitialDataReport:
    """Report-only validation; callers treat a failed report as fatal."""
    if state.v.shape != (grid.N,) or state.u.shape != (grid.N + 1,):
        raise ConfigError("state shape does not match grid")
    failures = []
    # written so that a NaN fails each test
    if not np.min(state.v) > 0:
        failures.append("v0 not strictly positive")
    if not np.min(state.theta) > 0:
        failures.append("theta0 not strictly positive")
    if not (np.min(state.z) >= 0 and np.max(state.z) <= 1):
        failures.append("z0 leaves [0, 1]")

    far = boundary_deviation(state, grid)
    if far >= INITIAL_FAR_FIELD_TOL:
        failures.append(f"far-field deviation {far:.3e} exceeds {INITIAL_FAR_FIELD_TOL:.0e}")

    dev = norms(state, grid)
    initial_norms = {
        "z_L1": float(np.sum(np.abs(state.z)) * grid.dx),
        "dev_L2": dev["L2"],
        "dev_H1": float(np.sqrt(dev["L2"] ** 2 + dev["grad_L2"] ** 2)),
    }
    for key, val in initial_norms.items():
        if not np.isfinite(val):
            failures.append(f"norm {key} not finite")

    return InitialDataReport(
        far_field_deviation=far,
        norms=initial_norms,
        passed=not failures,
        failures=tuple(failures),
    )
