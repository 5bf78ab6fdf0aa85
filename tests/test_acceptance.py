"""Acceptance gate: every criterion at its stated tolerance, one line each.

The canonical scenario throughout is ``configs/canonical.cfg``: unit
constants with b = 3, beta = 2, A = 1; Gaussian data with amplitudes
(0.1, 0.1, 0.2, 0.5), width 1, on L = 20 with N = 512 cells, integrated to
T_end = 20 at cfl = 0.5.  Every criterion that ``radgas verify`` also checks
calls the same check or helper from ``radgas.verify_suite``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import CONFIGS, oscillation_ratio

from radgas import verify_suite as vs
from radgas.cli import EXIT_OK, EXIT_VERIFY, main
from radgas.verification import oracle_compare

# frozen fine-grid regression values: canonical scenario, N=256 vs N=1024,
# T=5, max-norm discrepancy per field (recorded from a converged build)
FROZEN_ORACLE_LINF = {"v": 4.136512e-4, "u": 3.626726e-5, "theta": 9.733443e-5, "z": 2.883140e-6}


@pytest.fixture(scope="module")
def canonical_samples(canonical_run, canonical_states):
    """What verify's large-time check keeps of the canonical states, by the same fold."""
    samples = vs._LargeTimeSamples(canonical_run.grid, canonical_run.spec.params)
    for state in canonical_states:
        samples(state)
    return samples


def _criterion(num, name, ok, detail):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_equilibrium_fixed_point(canonical_spec):
    _criterion(1, "equilibrium fixed point over 1000 steps",
               *vs._check_equilibrium_fixed_point(canonical_spec, 1000))


def test_c02_mass_conservation(canonical_run):
    mass = canonical_run.column("mass_dev")
    rel = float(np.max(np.abs(mass - mass[0]))) / abs(mass[0])
    _criterion(2, "mass deviation constant", rel <= 1e-13,
               f"max relative change {rel:.3e} (tol 1e-13)")


def test_c02_momentum_conservation(canonical_run):
    """Discrete momentum constancy while the truncated box stands for the line.

    On the whole line momentum is conserved.  The L = 20 box pins u = 0 at
    both walls, so the node-mass momentum sum is conserved only for
    far-field-clean states: the pressure gradient telescopes to the end-cell
    pressures, which balance only while the outer cells are at rest.  The
    check therefore covers the leading samples whose boundary deviation is
    still at round-off (<= 1e-13), a window taken from the outer band and not
    from the momentum series.  At least 50 samples (t >= 1) must qualify, so
    the window cannot be empty.  On the canonical run it holds 112 samples,
    up to t = 2.22.  Later, the diffusion-wave precursor reaches the outer
    band; the walls then exert force, and by T_end = 20 the momentum has
    reversed.  The full-run change is printed so that this stays visible.
    """
    mom = canonical_run.column("momentum")
    bdry = canonical_run.column("boundary_dev")
    t = canonical_run.column("t")
    rel = np.abs(mom - mom[0]) / abs(mom[0])
    n = int(np.cumprod(bdry <= 1e-13).sum())
    worst = float(np.max(rel[:n])) if n else math.inf
    window = f"t <= {t[n - 1]:.2f}" if n else "no sample"
    _criterion(2, "momentum constant while the outer band is at rest",
               n >= 50 and worst <= 1e-13,
               f"max relative change {worst:.3e} (tol 1e-13) over {n} samples "
               f"({window}; at least 50 required) with boundary deviation <= 1e-13; "
               f"full run: relative change {float(np.max(rel)):.3g}, boundary "
               f"deviation {float(np.max(bdry)):.2e}, so the walls exert force later")


def test_c02_species_balance_identity(canonical_run, canonical_states):
    dx = canonical_run.grid.dx
    z0 = float(np.sum(canonical_states[0].z)) * dx
    zT = float(np.sum(canonical_run.final_state.z)) * dx
    residual = abs(zT + canonical_run.species_consumed - z0) / z0
    _criterion(2, "species balance identity", residual <= 1e-10,
               f"relative residual {residual:.3e} (tol 1e-10)")


def test_c03_species_confinement(canonical_run, canonical_samples):
    z_min = canonical_samples.z_min
    z_max = float(np.max(canonical_run.column("max_z")))
    max_z_rise, _ = vs._confinement(canonical_run)
    monotone = max_z_rise <= vs.Z_SLACK
    ok = z_min >= -vs.Z_SLACK and z_max <= 1.0 + vs.Z_SLACK and monotone
    _criterion(3, "species confinement and monotone maximum", ok,
               f"z range [{z_min:.2e}, {z_max:.6f}], max_z nonincreasing {monotone}")


def test_c04_energy_drift_second_order(canonical_spec):
    _criterion(4, "energy drift shrinks at second order",
               *vs._check_energy_drift_convergence(canonical_spec, (0.02, 0.01, 0.005)))


def test_c05_uniform_bounds_plateau(canonical_run):
    drifts = vs._plateau_drifts(canonical_run)
    ok = all(rel < vs.PLATEAU_TOL for rel in drifts.values())
    _criterion(5, "extrema plateau between run halves", ok,
               ", ".join(f"{col} {rel:.2%}" for col, rel in drifts.items())
               + f" (tol {vs.PLATEAU_TOL:.0%})")


def test_c06_decay_toward_equilibrium(canonical_run):
    checks = []
    ok = True
    for col in ("dev_Linf", "dev_L4", "grad_L2"):
        series = canonical_run.column(col)
        frac = float(series[-1] / np.max(series))
        ok = ok and frac < 0.5
        checks.append(f"{col.removeprefix('dev_')} final/max {frac:.1%}")
    strictly_down = vs._confinement(canonical_run)[1]
    ok = ok and strictly_down
    checks.append(f"z_L1 strictly decreasing {strictly_down}")
    _criterion(6, "decay toward the rest state", ok, ", ".join(checks))


def test_c07_functional_boundedness(canonical_run):
    growth, ratio_growth = vs._functional_growth(canonical_run)
    ok = growth < vs.GROWTH_TOL and ratio_growth < vs.GROWTH_TOL
    _criterion(7, "X + Y and the temperature-bound ratio plateau", ok,
               f"X+Y second-half growth {growth:.2%}, ratio growth {ratio_growth:.2%} "
               f"(tol {vs.GROWTH_TOL:.0%})")


def test_c08_volume_representation(canonical_run, canonical_samples):
    fine, coarse = vs._representation(canonical_samples.window, canonical_run.spec.T_end)
    ok = fine < vs.REPRESENTATION_TOL and fine <= vs.REPRESENTATION_HALVING * coarse
    _criterion(8, "volume representation on the k=2 window", ok,
               f"error {fine:.2e} (tol {vs.REPRESENTATION_TOL:g}), halving check "
               f"{fine:.2e} <= {vs.REPRESENTATION_HALVING} * {coarse:.2e}")


def test_c09_oscillation_bound_shadow(canonical_run, canonical_states):
    spec = canonical_run.spec
    m_exp = 0.5 * (spec.params.b + 4.0)
    series = np.array([
        oscillation_ratio(s, canonical_run.grid, spec.params, m_exp, 2)
        for s in canonical_states
    ])
    run_max = np.maximum.accumulate(series)
    half = len(series) // 2
    growth = float((run_max[-1] - run_max[half]) / run_max[half])
    _criterion(9, "temperature oscillation ratio plateaus", growth < 0.10,
               f"second-half running-max growth {growth:.2%} (tol 10%)")


def test_c10_temperature_lower_envelope(canonical_run):
    env, env_coarse = vs._envelope(canonical_run)
    ok = env > vs.ENVELOPE_MIN and abs(env - env_coarse) / env <= vs.CADENCE_TOL
    _criterion(10, "temperature lower envelope certified", ok,
               f"constant {env:.4f} (need > {vs.ENVELOPE_MIN}), "
               f"cadence-doubled value {env_coarse:.4f}")


def test_c11_manufactured_solution_orders(canonical_spec):
    spatial_ok, spatial = vs._check_mms_spatial(canonical_spec.params)
    temporal_ok, temporal = vs._check_mms_temporal(canonical_spec.params)
    _criterion(11, "manufactured-solution convergence orders", spatial_ok and temporal_ok,
               f"{spatial}; {temporal}")


def test_c12_oracle_consistency(canonical_spec):
    ok, detail = vs._check_oracle_consistency(canonical_spec)
    frozen = oracle_compare(replace(canonical_spec, T_end=5.0), 256, 1024)
    for f, expected in FROZEN_ORACLE_LINF.items():
        ok = ok and frozen[f]["Linf"] < 1e-3
        ok = ok and math.isclose(frozen[f]["Linf"], expected, rel_tol=0.02)
    detail += "; canonical 256v1024 Linf " + ", ".join(
        f"{f}={frozen[f]['Linf']:.2e}" for f in frozen)
    _criterion(12, "fine-grid oracle consistency", ok, detail)


def test_c13_parameter_sweep(tmp_path):
    code = main(["sweep", str(CONFIGS / "sweep.cfg"), "--output-dir", str(tmp_path / "sweep")])
    summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    rows = [line.split(",") for line in summary[1:]]
    all_completed = all(r[3] == "completed" for r in rows if r[2] == "true")
    n_admissible = sum(1 for r in rows if r[2] == "true")
    ok = code == EXIT_OK and len(rows) == 12 and all_completed and n_admissible == 12
    _criterion(13, "parameter sweep completes on the admissible grid", ok,
               f"exit {code}, {len(rows)} cells, {n_admissible} admissible, "
               f"all completed {all_completed}")


def test_probe_window_values_stay_near_unity(canonical_run, canonical_states):
    """Window averages of v and theta, and the values at the cells attaining
    them, stay within [0.5, 2] across the canonical run."""
    from radgas.functionals import interval_probe

    for k in (0, 2):
        for state in canonical_states[:: max(1, len(canonical_states) // 50)]:
            probe = interval_probe(state, canonical_run.grid, k)
            for val in (probe.avg_v, probe.avg_theta):
                assert 0.5 <= val <= 2.0
            i_a = int(np.argmin(np.abs(canonical_run.grid.cell_centers - probe.a_k)))
            i_b = int(np.argmin(np.abs(canonical_run.grid.cell_centers - probe.b_k)))
            assert 0.5 <= state.v[i_a] <= 2.0
            assert 0.5 <= state.theta[i_b] <= 2.0


def test_verify_command_passes_on_shipped_config(tmp_path):
    code = main(["verify", str(CONFIGS / "verify.cfg"), "--output-dir", str(tmp_path / "verify")])
    report = (tmp_path / "verify" / "verify_report.txt").read_text()
    assert "[FAIL]" not in report, report
    assert code == EXIT_OK


def test_verify_command_catches_loose_picard_tolerance(tmp_path):
    """An absurdly loose implicit tolerance degrades the composed step to
    first order, which the energy-drift check flags."""
    text = (CONFIGS / "verify.cfg").read_text()
    text = text.replace("picard_tol = 1e-10", "picard_tol = 1")
    text = text.replace("T_end = 20.0", "T_end = 5.0")
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(text)
    code = main(["verify", str(cfg), "--output-dir", str(tmp_path / "loose")])
    report = (tmp_path / "loose" / "verify_report.txt").read_text()
    assert code == EXIT_VERIFY
    assert "[FAIL] energy drift halves at second order" in report
