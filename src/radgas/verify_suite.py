"""Named correctness checks behind the ``verify`` command.

Each check returns (passed, detail).  The suite combines constitutive
oracles, solver property checks, manufactured-solution refinement studies,
and the qualitative large-time checks on the configured scenario.  The
checks run as six independent jobs, in worker processes when more than one
CPU is allowed; the seeded ones share one job, so all randomness is drawn
in a fixed order and reruns are bit-identical.  The acceptance tests
call the same checks and large-time helpers, so each property is
implemented here only.
"""

import math
from dataclasses import replace

import numpy as np

from .constitutive import (
    conduction_potential,
    conductivity,
    constitutive_partials,
    entropy_eta,
    internal_energy,
    pressure,
)
from .domain import State, build_grid, make_initial_data
from .errors import ConfigError, InsufficientHistory, WindowOutOfDomain
from .functionals import (
    WindowHistory,
    representation_check,
    temperature_envelope_check,
    theta_bound_from_Y,
)
from .integrator import (
    MAX_SUBCYCLES,
    _species_rates,
    run_simulation,
    select_timestep,
    species_step,
    strang_step,
    tridiagonal_solve,
)
from .verification import (
    ManufacturedSolution,
    convergence_study,
    oracle_compare,
    temporal_convergence_study,
)


def _check_partials_fd(params, rng):
    pts = rng.uniform(0.1, 10.0, size=(1000, 2))
    v, th = pts[:, 0], pts[:, 1]
    h = 1e-6
    exact = constitutive_partials(params, v, th)
    fd = (
        (pressure(params, v + h, th) - pressure(params, v - h, th)) / (2 * h),
        (pressure(params, v, th + h) - pressure(params, v, th - h)) / (2 * h),
        (internal_energy(params, v + h, th) - internal_energy(params, v - h, th)) / (2 * h),
        (internal_energy(params, v, th + h) - internal_energy(params, v, th - h)) / (2 * h),
    )
    worst = max(float(np.max(np.abs(e - a) / np.maximum(1.0, np.abs(e))))
                for e, a in zip(exact, fd))
    return worst < 1e-5, f"max relative mismatch {worst:.2e} (tol 1e-5)"


def _check_conduction_potential(params, rng):
    worst = 0.0
    for v, th in rng.uniform(0.1, 10.0, size=(20, 2)):
        n = 10000
        xs = np.linspace(0.0, th, 2 * n + 1)[1:]
        ys = conductivity(params, v, xs) / v
        simpson = (th / (2 * n)) / 3.0 * (
            conductivity(params, v, 1e-300) / v
            + 4.0 * np.sum(ys[0::2])
            + 2.0 * np.sum(ys[1:-1:2])
            + ys[-1]
        )
        exact = conduction_potential(params, v, th)
        worst = max(worst, abs(simpson - exact) / abs(exact))
    return worst < 1e-8, f"max relative quadrature mismatch {worst:.2e} (tol 1e-8)"


def _check_entropy_nonneg(params, rng):
    pts = rng.uniform(0.1, 10.0, size=(10000, 2))
    vals = entropy_eta(params, pts[:, 0], pts[:, 1])
    at_rest = entropy_eta(params, 1.0, 1.0)
    return bool(np.min(vals) >= 0.0 and at_rest == 0.0), (
        f"min over sample {np.min(vals):.3e}, value at rest state {at_rest:g}"
    )


def _check_equilibrium_fixed_point(spec, steps):
    spec = replace(spec, amplitude_v=0.0, amplitude_u=0.0, amplitude_theta=0.0,
                   amplitude_z=0.0)
    grid = build_grid(spec.L, spec.N)
    state = make_initial_data(spec, grid)
    for _ in range(steps):
        dt = select_timestep(state, grid, spec)
        state = strang_step(state, grid, spec, dt).new_state
    drift = max(
        float(np.max(np.abs(state.v - 1.0))),
        float(np.max(np.abs(state.theta - 1.0))),
        float(np.max(np.abs(state.z))),
        float(np.max(np.abs(state.u))),
    )
    return drift <= 1e-12, f"max field drift over {steps} steps {drift:.2e} (tol 1e-12)"


def _check_tridiagonal(rng):
    worst = 0.0
    for _ in range(5):
        n = 50
        # the symmetric part of two random off-diagonals; |off| < 1 keeps the
        # diagonal (>= 3) strictly dominant, so the system is positive definite
        off = 0.5 * (rng.uniform(-1.0, 1.0, n - 1) + rng.uniform(-1.0, 1.0, n - 1))
        diag = 3.0 + rng.uniform(0.0, 1.0, n)
        rhs = rng.uniform(-5.0, 5.0, n)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        ref = np.linalg.solve(dense, rhs)
        got = tridiagonal_solve(off, diag, rhs)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst < 1e-10, f"max deviation from dense solve {worst:.2e} (tol 1e-10)"


# The maximum-principle check draws v and theta from _SPECIES_RANGE and dt
# below _SPECIES_DT_MAX, on this grid.
_SPECIES_GRID = (10.0, 64)
_SPECIES_RANGE = (0.3, 3.0)
_SPECIES_DT_MAX = 0.5


def _check_species_max_principle(spec, rng):
    grid = build_grid(*_SPECIES_GRID)
    violations = 0.0
    for _ in range(25):
        state = State(
            t=0.0,
            v=rng.uniform(*_SPECIES_RANGE, grid.N),
            theta=rng.uniform(*_SPECIES_RANGE, grid.N),
            z=rng.uniform(0.0, 1.0, grid.N),
            u=np.zeros(grid.N + 1),
        )
        zmax = float(np.max(state.z))
        new = species_step(state, grid, spec, dt=rng.uniform(0.001, _SPECIES_DT_MAX))
        violations = max(violations, -float(np.min(new.z)), float(np.max(new.z)) - zmax)
    return violations <= 1e-13, f"worst confinement excursion {violations:.2e} (tol 1e-13)"


def _check_mms_spatial(params):
    ms = ManufacturedSolution()
    report = convergence_study(ms, params, [64, 128, 256], T=0.5)
    orders = {f: report.orders[f][-1] for f in report.orders}
    ok = all(1.8 <= o <= 2.2 for o in orders.values())
    detail = ", ".join(f"{f} {o:.2f}" for f, o in orders.items())
    return ok, f"spatial orders ({detail}) must lie in [1.8, 2.2]"


def _check_mms_temporal(params):
    ms = ManufacturedSolution()
    report = temporal_convergence_study(ms, params, N=256, dts=[0.006, 0.003, 0.0015], T=0.3)
    orders = {f: min(report.orders[f]) for f in report.orders}
    ok = all(o >= 1.8 for o in orders.values())
    detail = ", ".join(f"{f} {o:.2f}" for f, o in orders.items())
    return ok, f"temporal orders ({detail}) must be >= 1.8"


# The oracle check runs the scenario in this box at these (coarse, fine) pairs.
_ORACLE_BOX = {"L": 10.0, "T_end": 2.0}
_ORACLE_PAIRS = ((64, 256), (128, 512))


def _check_oracle_consistency(spec):
    spec = replace(spec, **_ORACLE_BOX)
    coarse, fine = (oracle_compare(spec, *pair) for pair in _ORACLE_PAIRS)
    ratios = {f: coarse[f]["L2"] / fine[f]["L2"] for f in coarse}
    ok = all(r >= 3.0 for r in ratios.values())
    detail = ", ".join(f"{f} {r:.2f}" for f, r in ratios.items())
    return ok, f"refinement-pair shrink factors ({detail}) must be >= 3"


def _check_energy_drift_convergence(spec, caps):
    """Total-energy drift over the run at the three global timestep caps."""
    drifts = []
    for cap in caps:
        res = run_simulation(spec, sample_cadence=spec.T_end, dt_max=cap)
        E = res.column("total_energy")
        drifts.append(abs(E[-1] - E[0]))
    r1 = drifts[0] / max(drifts[1], 1e-300)
    r2 = drifts[1] / max(drifts[2], 1e-300)
    ok = r1 >= 3.5 and r2 >= 3.5
    return ok, (
        f"energy drifts {drifts[0]:.3e} / {drifts[1]:.3e} / {drifts[2]:.3e}, "
        f"halving ratios {r1:.2f}, {r2:.2f} (need >= 3.5)"
    )


# Large-time properties of a run, read from its records and from what
# _LargeTimeSamples keeps of its states.  Each helper returns its measured
# numbers; the tolerances below are the pass conditions.
PLATEAU_TOL = 0.05  # relative extremum drift between [T/4, T/2] and [T/2, T]
Z_SLACK = 1e-12  # allowed z undershoot and max_z rise between samples
GROWTH_TOL = 0.10  # second-half growth of X+Y and of the theta-bound ratio
ENVELOPE_MIN = 0.1  # lower-envelope constant
CADENCE_TOL = 0.10  # relative envelope change when the cadence doubles
REPRESENTATION_TOL = 0.01  # k=2 volume-representation relative error
REPRESENTATION_HALVING = 0.5  # error ratio against the cadence-doubled probe


def _plateau_drifts(res):
    """Relative change of each extremum between the windows [T/4, T/2] and [T/2, T]."""
    t = res.column("t")
    T = res.spec.T_end
    drifts = {}
    for col, agg in (("min_v", np.min), ("max_v", np.max),
                     ("min_theta", np.min), ("max_theta", np.max)):
        series = res.column(col)
        w1 = agg(series[(t >= T / 4) & (t <= T / 2)])
        w2 = agg(series[(t >= T / 2)])
        drifts[col] = abs(w2 - w1) / abs(w1)
    return drifts


class _LargeTimeSamples:
    """What the large-time check keeps of each sampled state: the least z so
    far and the rows of the k = 2 volume representation."""

    def __init__(self, grid, params):
        self.z_min = math.inf
        self.window = WindowHistory(grid, params, 2)

    def __call__(self, state):
        self.z_min = min(self.z_min, float(np.min(state.z)))
        self.window.append(state)


def _confinement(res):
    """Largest max_z rise between samples, and whether z_L1 strictly decreases."""
    max_z_rise = float(np.max(np.diff(res.column("max_z"))))
    z_l1_decreasing = bool(np.all(np.diff(res.column("z_L1")) < 0))
    return max_z_rise, z_l1_decreasing


def _functional_growth(res):
    """Second-half relative growth of X+Y and of the running max of max_theta / bound(Y)."""
    half = np.searchsorted(res.column("t"), res.spec.T_end / 2)
    XY = res.column("X") + res.column("Y")
    ratio = res.column("max_theta") / np.array(
        [theta_bound_from_Y(res.spec.params, y) for y in res.column("Y")]
    )
    run_max = np.maximum.accumulate(ratio)
    return (XY[-1] - XY[half]) / XY[half], (run_max[-1] - run_max[half]) / run_max[half]


def _envelope(res):
    """Lower-envelope constant from every sample and from every other one."""
    return temperature_envelope_check(res.records), temperature_envelope_check(res.records[::2])


def _representation(window, t):
    """Representation error at time t from every sample and from every other one."""
    fine = representation_check(window, t)
    coarse = representation_check(window.every(2), t)
    return fine.max_rel_error, coarse.max_rel_error


def _check_large_time(config):
    spec = config.scenario
    samples = _LargeTimeSamples(build_grid(spec.L, spec.N), spec.params)
    res = run_simulation(spec, sample_cadence=min(config.sample_cadence, 0.05),
                         on_sample=samples)
    problems = []

    for col, drift in _plateau_drifts(res).items():
        if not drift < PLATEAU_TOL:
            problems.append(f"{col} window drift {drift:.1%}")

    max_z_rise, z_l1_decreasing = _confinement(res)
    if not max_z_rise <= Z_SLACK:
        problems.append("max_z increased between samples")
    if samples.z_min < -Z_SLACK:
        problems.append("reactant fraction went negative")
    if not z_l1_decreasing:
        problems.append("z_L1 not strictly decreasing")

    growth, ratio_growth = _functional_growth(res)
    if not growth < GROWTH_TOL:
        problems.append(f"X+Y second-half growth {growth:.1%}")
    if not ratio_growth < GROWTH_TOL:
        problems.append("temperature-bound ratio still growing")

    env, env_half = _envelope(res)
    if not (env > ENVELOPE_MIN and abs(env - env_half) / env <= CADENCE_TOL):
        problems.append(f"envelope constant {env:.3f} unstable or too small")

    try:
        fine, coarse = _representation(samples.window, spec.T_end)
        if not fine < REPRESENTATION_TOL:
            problems.append(f"representation error {fine:.2e}")
        if fine > REPRESENTATION_HALVING * coarse:
            problems.append("representation error not halving with cadence")
    except (WindowOutOfDomain, InsufficientHistory) as exc:
        problems.append(f"representation probe failed: {exc}")

    if problems:
        return False, "; ".join(problems)
    return True, f"bounds plateaued, confinement exact, X+Y growth {growth:.2%}, envelope {env:.3f}"


def _seeded_rows(spec):
    """Rows of the five seeded checks, drawing from one generator in report order,
    and of the equilibrium fixed point, which sits between them in the report."""
    params = spec.params
    rng = np.random.default_rng(20240817)
    return [
        ("constitutive partials vs central differences", *_check_partials_fd(params, rng)),
        ("conduction potential vs Simpson quadrature", *_check_conduction_potential(params, rng)),
        ("entropy density nonnegative", *_check_entropy_nonneg(params, rng)),
        ("equilibrium is a fixed point", *_check_equilibrium_fixed_point(spec, 200)),
        ("tridiagonal solver vs dense elimination", *_check_tridiagonal(rng)),
        ("species update maximum principle", *_check_species_max_principle(spec, rng)),
    ]


def _rows(name, check, *args):
    return [(name, *check(*args))]


def _jobs(config):
    """The suite as independent ``(function, args)`` jobs in report order.

    Each job returns its (name, passed, detail) rows.  Every scenario a check
    derives from the configured one is built here, so one that is invalid
    raises ConfigError before any check runs; so does a species update that
    the maximum-principle check's worst draw (least v, greatest theta,
    longest dt) would need more than MAX_SUBCYCLES subcycles for.
    """
    spec = config.scenario
    params = spec.params
    drift_spec = replace(spec, L=10.0, N=128, T_end=2.0)
    oracle_box = replace(spec, **_ORACLE_BOX)
    for pair in _ORACLE_PAIRS:
        for N in pair:
            replace(oracle_box, N=N)  # built to be validated; the check builds its own
    grid = build_grid(*_SPECIES_GRID)
    least, greatest = _SPECIES_RANGE
    worst = State(0.0, np.full(grid.N, least), np.full(grid.N, greatest), np.zeros(grid.N),
                  np.zeros(grid.N + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        needed = _species_rates(worst, grid, params, _SPECIES_DT_MAX)[3]
    if not needed <= MAX_SUBCYCLES:
        raise ConfigError(f"the species maximum-principle check needs {needed:.3g} subcycles "
                          f"at v = {least:g}, theta = {greatest:g}, dt = {_SPECIES_DT_MAX:g} "
                          f"(at most {MAX_SUBCYCLES}); K_react or d is too large")
    return [
        (_seeded_rows, (spec,)),
        (_rows, ("manufactured-solution spatial order", _check_mms_spatial, params)),
        (_rows, ("manufactured-solution temporal order", _check_mms_temporal, params)),
        (_rows, ("fine-grid oracle consistency", _check_oracle_consistency, spec)),
        (_rows, ("energy drift halves at second order", _check_energy_drift_convergence,
                 drift_spec, (0.04, 0.02, 0.01))),
        (_rows, ("large-time behavior of the scenario", _check_large_time, config)),
    ]
