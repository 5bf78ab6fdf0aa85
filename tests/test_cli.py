"""Config parsing, command exit codes, artifact formats, determinism."""

import dataclasses
import filecmp
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import radgas
import radgas.integrator
from radgas import verify_suite
from radgas.cli import (
    _PARSERS,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    SweepConfig,
    _run_jobs,
    _worker_count,
    load_run_config,
    load_sweep_config,
    main,
    run_command,
    sweep_command,
)
from radgas.constitutive import GasParameters
from radgas.domain import ScenarioSpec
from radgas.errors import BlowUpError, ConfigError, SingularMatrixError, WindowOutOfDomain

SMALL_SCENARIO = """
[scenario]
amplitude_v = 0.1
amplitude_u = 0.1
amplitude_theta = 0.2
amplitude_z = 0.5
width = 1.0
L = 10.0
N = 64
T_end = 0.5
cfl = 0.5

[params]
b = 3.0
beta = 2.0

[run]
output_dir = {out}
sample_cadence = 0.1
probes = 0, 2
emit_snapshots = true
snapshot_times = 0, 0.5
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_run_config_roundtrip(tmp_path):
    cfg = load_run_config(write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "o")))
    assert cfg.scenario.N == 64
    assert cfg.scenario.params.b == 3.0
    assert cfg.probes == [0, 2]
    assert cfg.emit_snapshots
    assert cfg.snapshot_times == [0.0, 0.5]


@pytest.mark.parametrize("cls", [GasParameters, ScenarioSpec, RunConfig, SweepConfig],
                         ids=lambda cls: cls.__name__)
def test_every_config_key_has_a_parser(cls):
    """Every field ``_read_section`` reads as a key, that is every field but the one
    dataclass it is given, converts by its ``parse`` metadata or a ``_PARSERS`` type.
    Without either, setting the key would end in a KeyError traceback."""
    for f in dataclasses.fields(cls):
        if not dataclasses.is_dataclass(f.type):
            assert "parse" in f.metadata or f.type in _PARSERS, f"{cls.__name__}.{f.name}"


def test_unknown_key_is_fatal(tmp_path):
    bad = SMALL_SCENARIO.format(out=tmp_path) + "\n[scenario]\nwidht = 2\n"
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, bad.replace("[scenario]\nwidht", "[run]\nwidht")))
    bad = SMALL_SCENARIO.format(out=tmp_path).replace("width = 1.0", "widht = 1.0")
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, bad))


def test_unknown_parameter_key_is_fatal(tmp_path):
    bad = SMALL_SCENARIO.format(out=tmp_path).replace("b = 3.0", "conductivity_b = 3.0")
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("section, key", [
    ("scenario", "dt_max"),
    ("scenario", "dt_min"),
    ("scenario", "max_step_rejections"),
    ("scenario", "family"),
    ("params", "lam"),
])
def test_config_keys_are_the_documented_ones(tmp_path, section, key):
    """Solver-internal controls, ``family`` (the initial data are always Gaussian)
    and the Python spelling of lambda are not keys."""
    text = SMALL_SCENARIO.format(out=tmp_path).replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_run_config(write_config(tmp_path, text))


def test_lambda_key_sets_reaction_heat(tmp_path):
    text = SMALL_SCENARIO.format(out=tmp_path).replace("[params]\n", "[params]\nlambda = 2.5\n")
    assert load_run_config(write_config(tmp_path, text)).scenario.params.lam == 2.5


def test_missing_config_exits_2(tmp_path):
    assert run_command(str(tmp_path / "absent.cfg")) == EXIT_CONFIG


def test_run_command_produces_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    code = run_command(write_config(tmp_path, SMALL_SCENARIO.format(out=out)))
    assert code == EXIT_OK
    assert (out / "diagnostics.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "snapshot_t0.dat").exists()
    assert (out / "snapshot_t0.5.dat").exists()

    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("t,mass_dev,momentum,total_energy,G,V,X,Y,min_v,max_v,"
                      "min_theta,max_theta,max_z,z_L1,dev_L2,dev_L4,dev_Linf,"
                      "grad_L2,boundary_dev")

    snap = (out / "snapshot_t0.dat").read_text().splitlines()
    assert snap[0].startswith("# t=")
    assert len(snap) == 1 + 64
    assert len(snap[1].split()) == 5


def test_run_command_equilibrium_deviations_zero(tmp_path):
    text = re.sub(r"(amplitude_\w+) = \S+", r"\1 = 0.0", SMALL_SCENARIO.format(out=tmp_path / "eq"))
    assert run_command(write_config(tmp_path, text)) == EXIT_OK
    rows = (tmp_path / "eq" / "diagnostics.csv").read_text().splitlines()[1:]
    dev_cols = [row.split(",")[14:18] for row in rows]
    assert all(float(x) <= 1e-12 for cols in dev_cols for x in cols)


def test_run_command_reruns_bit_identical(tmp_path):
    c1 = write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "a"), "a.cfg")
    c2 = write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "b"), "b.cfg")
    assert run_command(c1) == EXIT_OK
    assert run_command(c2) == EXIT_OK
    assert filecmp.cmp(tmp_path / "a" / "diagnostics.csv",
                       tmp_path / "b" / "diagnostics.csv", shallow=False)


def test_run_command_blowup_exits_3(tmp_path):
    """An inward velocity compresses the gas from v >= 1 through the floor at about t = 0.25."""
    text = SMALL_SCENARIO.format(out=tmp_path / "boom")
    text = text.replace("amplitude_u = 0.1", "amplitude_u = -1.0")
    text = text.replace("cfl = 0.5", "cfl = 0.5\nfloor_v = 0.9")
    text = text.replace("b = 3.0", "b = 1.0").replace("beta = 2.0", "beta = 12.0")
    assert run_command(write_config(tmp_path, text)) == EXIT_BLOWUP
    note = (tmp_path / "boom" / "report.txt").read_text()
    assert "aborted" in note and "floor" in note


def test_output_dir_override(tmp_path):
    cfg = write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "ignored"))
    code = main(["run", cfg, "--output-dir", str(tmp_path / "override")])
    assert code == EXIT_OK
    assert (tmp_path / "override" / "diagnostics.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_failed_write_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "w"
    (out / "report.txt").mkdir(parents=True)
    assert main(["run", write_config(tmp_path, SMALL_SCENARIO.format(out=out))]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:"), err
    assert not list(out.glob("*.tmp-*"))


def test_run_memory_does_not_grow_with_grid_times_samples(tmp_path):
    """Of each sample a run keeps its record and probe-window rows, not its state.

    Peak traced memory of an N = 512 run grows by less than a quarter of one
    state, (4N+1) * 8 bytes, per extra sample when the horizon is quadrupled
    at the same cadence.
    """
    N = 512
    text = SMALL_SCENARIO.replace("N = 64", f"N = {N}").replace("L = 10.0", "L = 20.0")
    text = text.replace("sample_cadence = 0.1", "sample_cadence = 0.005")
    text = text.replace("probes = 0, 2", "probes = 0").replace("emit_snapshots = true", "")
    peaks, samples = [], []
    for T_end in (0.1, 0.4):
        out = tmp_path / f"T{T_end:g}"
        cfg = write_config(tmp_path, text.replace("T_end = 0.5", f"T_end = {T_end}")
                           .format(out=out))
        tracemalloc.start()
        try:
            assert run_command(cfg) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        samples.append(len((out / "diagnostics.csv").read_text().splitlines()) - 1)
    per_sample = (peaks[1] - peaks[0]) / (samples[1] - samples[0])
    assert per_sample < (4 * N + 1) * 8 / 4, f"{per_sample:.0f} bytes per extra sample"


SWEEP_TAIL = """
[sweep]
b_values = {bvals}
beta_values = {betavals}
max_parallel = {workers}
"""


def test_sweep_degenerate_single_cell(tmp_path):
    text = SMALL_SCENARIO.format(out=tmp_path / "s1") + SWEEP_TAIL.format(
        bvals="3", betavals="2", workers="1")
    assert sweep_command(write_config(tmp_path, text)) == EXIT_OK
    lines = (tmp_path / "s1" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "b,beta,admissible,status,final_Linf_dev,X_final,Y_final,min_theta,max_theta"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[2] == "true" and fields[3] == "completed"
    assert (tmp_path / "s1" / "cell_b3_beta2" / "diagnostics.csv").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    base = SMALL_SCENARIO.format(out=tmp_path / "sp") + SWEEP_TAIL.format(
        bvals="2, 3", betavals="0, b+8", workers="4")
    serial = SMALL_SCENARIO.format(out=tmp_path / "ss") + SWEEP_TAIL.format(
        bvals="2, 3", betavals="0, b+8", workers="1")
    assert sweep_command(write_config(tmp_path, base, "p.cfg")) == EXIT_OK
    assert sweep_command(write_config(tmp_path, serial, "s.cfg")) == EXIT_OK
    assert (tmp_path / "sp" / "sweep_summary.csv").read_text() == (
        tmp_path / "ss" / "sweep_summary.csv").read_text()


def test_sweep_respects_thread_cap(monkeypatch):
    """The sweep's threads, like verify's processes, number ``_worker_count(requested)``:
    at least one and at most the usable CPUs."""
    assert 1 <= _worker_count(8) <= len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _worker_count(8) == 1
    assert _worker_count(0) == 1


def test_sweep_beta_token_expansion(tmp_path):
    text = SMALL_SCENARIO.format(out=tmp_path / "tok") + SWEEP_TAIL.format(
        bvals="2, 4", betavals="b+8", workers="1")
    cfg = load_sweep_config(write_config(tmp_path, text))
    betas = [fn(b) for fn, b in zip(config_betas(cfg), (2.0, 4.0))]
    assert betas == [10.0, 12.0]


def config_betas(cfg):
    # single token repeated over the b grid
    return [cfg.beta_values[0], cfg.beta_values[0]]


def test_sweep_records_inadmissible_cells_without_failing(tmp_path):
    """Cells outside the admissible exponent range run and get recorded; even
    a blow-up there is not fatal for the sweep."""
    text = SMALL_SCENARIO.format(out=tmp_path / "inad")
    text = text.replace("amplitude_u = 0.1", "amplitude_u = -1.0")
    text = text.replace("cfl = 0.5", "cfl = 0.5\nfloor_v = 0.9")
    text += SWEEP_TAIL.format(bvals="1", betavals="0", workers="1")
    assert sweep_command(write_config(tmp_path, text)) == EXIT_OK
    lines = (tmp_path / "inad" / "sweep_summary.csv").read_text().splitlines()
    fields = lines[1].split(",")
    assert fields[2] == "false"
    assert fields[3] == "blowup"


def _refused_at_load(tmp_path, edits, reason):
    """Run the canonical config with ``edits`` in a fresh process: it must exit 2
    at load with one ``config error:`` line naming ``reason`` and no output
    directory.  The timeout turns a config that runs without end into a failure."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "canonical.cfg").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = write_config(tmp_path, text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(radgas.__file__)))
    out = subprocess.run([sys.executable, "-m", "radgas.cli", "run", cfg,
                          "--output-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == EXIT_CONFIG
    assert out.stderr.startswith("config error:") and out.stderr.count("\n") == 1
    assert reason in out.stderr and "Traceback" not in out.stderr
    assert "Warning" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_huge_reaction_rate_is_refused_at_load(tmp_path):
    """K_react = 1e200 would need about 1e187 species subcycles even at DT_MIN."""
    _refused_at_load(tmp_path, (("N = 512", "N = 32"), ("T_end = 20.0", "T_end = 0.2"),
                                ("K_react = 1.0", "K_react = 1e200")), "subcycles")


def test_tiny_sample_cadence_is_refused_at_load(tmp_path):
    """sample_cadence = 1e-9 caps every dt at the cadence: about 2e10 steps to T_end = 20."""
    _refused_at_load(tmp_path, (("sample_cadence = 0.05", "sample_cadence = 1e-9"),),
                     "sample_cadence")


def test_underflowing_width_is_refused_at_load(tmp_path):
    """width = 1e-200 squares to 0, so the profile would divide by zero and warn."""
    _refused_at_load(tmp_path, (("width = 1.0", "width = 1e-200"),), "width")


def test_overflowing_width_ratio_is_refused_at_load(tmp_path):
    """width = 1e-160 squares to a subnormal, so (L / width)**2 overflows in the profile."""
    _refused_at_load(tmp_path, (("width = 1.0", "width = 1e-160"),), "width")


def test_overflowing_fourth_powers_are_refused_at_load(tmp_path):
    """u of order 1e100 has finite squares but fourth powers that overflow, which
    would make dev_L4 infinite from the first sample."""
    _refused_at_load(tmp_path, (("amplitude_u = 0.1", "amplitude_u = 1e100"),
                                ("width = 1.0", "width = 0.5")),
                     "u0 sum of fourth powers overflows")


def test_singular_solve_exits_3(tmp_path, monkeypatch, capsys):
    """A singular tridiagonal system ends a run, one sweep cell, or verify as a blow-up."""
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot at row 3")

    monkeypatch.setattr(radgas.integrator, "tridiagonal_solve", singular)
    text = SMALL_SCENARIO.format(out=tmp_path / "run")
    assert run_command(write_config(tmp_path, text)) == EXIT_BLOWUP
    assert "zero pivot at row 3" in (tmp_path / "run" / "report.txt").read_text()
    text = SMALL_SCENARIO.format(out=tmp_path / "sweep") + SWEEP_TAIL.format(
        bvals="3", betavals="2", workers="1")
    assert sweep_command(write_config(tmp_path, text, "sweep.cfg")) == EXIT_BLOWUP
    lines = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert lines[1].split(",")[3] == "blowup"
    capsys.readouterr()
    text = SMALL_SCENARIO.format(out=tmp_path / "verify")
    assert main(["verify", write_config(tmp_path, text, "verify.cfg")]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up:" in err and "Traceback" not in err


def test_sweep_invalid_cell_exits_2_before_any_cell_runs(tmp_path, capsys):
    for bvals, betavals in (("3", "0, -1"), ("-1, 3", "2"), ("3", "0, 1000")):
        text = SMALL_SCENARIO.format(out=tmp_path / "bad") + SWEEP_TAIL.format(
            bvals=bvals, betavals=betavals, workers="2")
        assert sweep_command(write_config(tmp_path, text)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("bvals, betavals, workers", [
    ("3.0000001, 3.0000002", "2", "1"),  # two b values that print alike
    ("3", "11, b+8", "2"),  # the same cell twice
])
def test_sweep_cells_sharing_an_output_directory_exit_2(tmp_path, capsys, bvals, betavals,
                                                        workers):
    """Two cells that name the same ``cell_b{b:g}_beta{beta:g}`` directory would
    overwrite each other's diagnostics.csv or race on its temporary file."""
    text = SMALL_SCENARIO.format(out=tmp_path / "dup") + SWEEP_TAIL.format(
        bvals=bvals, betavals=betavals, workers=workers)
    assert sweep_command(write_config(tmp_path, text)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cell_b3_beta" in err
    assert not (tmp_path / "dup").exists()


INVALID_SCENARIOS = {
    "odd N": {"N = 64": "N = 7"},
    "huge N": {"N = 64": "N = 1000000000000"},
    "zero L": {"L = 10.0": "L = 0"},
    "far field": {"width = 1.0": "width = 5.0"},
    "empty probe window": {"L = 10.0": "L = 20.0", "N = 64": "N = 8", "probes = 0, 2": "probes = 0"},
    "floor above the initial temperature": {"cfl = 0.5": "cfl = 0.5\nfloor_theta = 2"},
    "cfl above 1": {"cfl = 0.5": "cfl = 1.5"},
    "zero floor": {"cfl = 0.5": "cfl = 0.5\nfloor_v = 0"},
    "no Picard sweep": {"cfl = 0.5": "cfl = 0.5\npicard_max_iters = 0"},
    "huge Picard cap": {"cfl = 0.5": "cfl = 0.5\npicard_max_iters = 1000000000"},
}
# Valid as configured, but not in the L = 10 box where verify runs some checks.
INVALID_IN_VERIFY_BOX = {"far field in the L = 10 box": {"L = 10.0": "L = 20.0",
                                                         "width = 1.0": "width = 3.0"},
                         "species check past the subcycle cap": {"b = 3.0": "b = 3.0\nd = 1000"}}


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_invalid_scenario_exits_2_before_any_work(tmp_path, capsys, command):
    """Each scenario is rejected at load: exit 2, one stderr line, no output directory."""
    cases = INVALID_SCENARIOS | (INVALID_IN_VERIFY_BOX if command == "verify" else {})
    for case, edits in cases.items():
        text = SMALL_SCENARIO.format(out=tmp_path / "bad") + SWEEP_TAIL.format(
            bvals="3", betavals="2", workers="1")
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        assert main([command, write_config(tmp_path, text)]) == EXIT_CONFIG, case
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, (case, err)
        assert not (tmp_path / "bad").exists(), case


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "N", "sixty-four"),
    ("scenario", "cfl", "half"),
    ("run", "sample_cadence", "abc"),
    ("run", "probes", "x"),
    ("run", "emit_snapshots", "maybe"),
    ("sweep", "max_parallel", "two"),
    ("sweep", "b_values", "3, x"),
])
def test_malformed_value_exits_2(tmp_path, capsys, section, key, value):
    text = SMALL_SCENARIO.format(out=tmp_path / "m") + SWEEP_TAIL.format(
        bvals="3", betavals="2", workers="1")
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    command = "sweep" if section == "sweep" else "run"
    assert main([command, write_config(tmp_path, text)]) == EXIT_CONFIG
    assert f"{key} = {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("t_snap", ["-5", "nan", "0.0"])
def test_invalid_snapshot_time_exits_2(tmp_path, capsys, t_snap):
    text = SMALL_SCENARIO.format(out=tmp_path / "s").replace(
        "snapshot_times = 0, 0.5", f"snapshot_times = 0, {t_snap}")
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="snapshot time"):
        load_run_config(path)
    assert main(["run", path]) == EXIT_CONFIG
    assert "snapshot time" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_snapshot_time_past_end_warns(tmp_path, capsys):
    out = tmp_path / "s"
    text = SMALL_SCENARIO.format(out=out).replace(
        "snapshot_times = 0, 0.5", "snapshot_times = 0, 100")
    assert main(["run", write_config(tmp_path, text)]) == EXIT_OK
    assert "snapshot time 100 is past T_end = 0.5" in capsys.readouterr().err
    assert (out / "snapshot_t100.dat").read_text().startswith("# t=0.5\n")


def test_verify_rejects_zero_horizon(tmp_path):
    text = SMALL_SCENARIO.format(out=tmp_path / "v0").replace("T_end = 0.5", "T_end = 0")
    assert main(["verify", write_config(tmp_path, text)]) == EXIT_CONFIG


def test_sweep_io_error_exits_1(tmp_path, capsys):
    """An admissible cell whose outputs cannot be written is an I/O failure, not a blow-up."""
    out = tmp_path / "io"
    out.mkdir()
    (out / "cell_b3_beta2").write_text("a file where the cell directory goes\n")
    text = SMALL_SCENARIO.format(out=out) + SWEEP_TAIL.format(bvals="3", betavals="2", workers="1")
    assert sweep_command(write_config(tmp_path, text)) == EXIT_IO
    assert "admissible cell (b=3, beta=2) io-error" in capsys.readouterr().err
    assert (out / "sweep_summary.csv").read_text().splitlines()[1].split(",")[3] == "io-error"


def _square_after(delay, x):
    time.sleep(delay)
    return x * x


def _raise(error_type, message, delay=0.0):
    time.sleep(delay)
    raise error_type(message)


def _mark_after(delay, path):
    with open(path, "w"):
        pass
    time.sleep(delay)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_jobs_returns_results_in_job_order(workers):
    # later jobs finish first when they run side by side
    jobs = [(_square_after, (0.05 * (4 - x), x)) for x in range(5)]
    assert _run_jobs(jobs, workers) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("error_type", [BlowUpError, ConfigError])
def test_run_jobs_reraises_the_error_of_a_job(workers, error_type):
    jobs = [(_square_after, (0.0, 2)), (_raise, (error_type, "step 7 failed at x = 1.5"))]
    with pytest.raises(error_type, match=r"^step 7 failed at x = 1\.5$"):
        _run_jobs(jobs, workers)
    assert multiprocessing.active_children() == []


def test_run_jobs_reraises_the_first_failed_job_in_job_order():
    """As when the jobs run in turn, though the second job fails first."""
    jobs = [(_raise, (BlowUpError, "first job failed", 0.2)),
            (_raise, (ConfigError, "second job failed"))]
    with pytest.raises(BlowUpError, match="first job failed"):
        _run_jobs(jobs, 2)
    assert multiprocessing.active_children() == []


def test_run_jobs_does_not_start_jobs_after_a_failure(tmp_path):
    """Only the job running when one fails still runs; the workers exit before it returns."""
    marks = [tmp_path / f"job{i}" for i in range(1, 10)]
    jobs = [(_raise, (BlowUpError, "first job failed"))]
    jobs += [(_mark_after, (0.5, str(path))) for path in marks]
    with pytest.raises(BlowUpError, match="first job failed"):
        _run_jobs(jobs, 2)
    assert multiprocessing.active_children() == []
    # a job is handed out only when a worker is free
    assert not any(path.exists() for path in marks[1:])


def test_import_does_not_load_multiprocessing():
    """The worker pool is imported only when jobs run side by side."""
    code = (
        "import sys\n"
        "import radgas.cli, radgas.verify_suite\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
    )
    src = os.path.dirname(os.path.dirname(radgas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def _stub_check(*args):
    """A cheap check whose detail shows its arguments and its draw, if it has a generator."""
    rng = args[-1] if isinstance(args[-1], np.random.Generator) else None
    draw = rng.uniform() if rng is not None else None
    return True, f"{len(args)} arguments, draw {draw!r}"


def test_verification_rows_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """Forked workers see the stubs, and the rows keep report order and the seeded draws."""
    names = [name for name in vars(verify_suite) if name.startswith("_check_")]
    assert len(names) == 11
    for name in names:
        monkeypatch.setattr(verify_suite, name, _stub_check)
    config = load_run_config(write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "v")))
    rows = {}
    for workers in (1, 2):
        jobs = verify_suite._jobs(config)
        rows[workers] = [row for job_rows in _run_jobs(jobs, workers) for row in job_rows]
    assert rows[1] == rows[2]
    assert [name for name, _, _ in rows[1]] == [
        "constitutive partials vs central differences",
        "conduction potential vs Simpson quadrature",
        "entropy density nonnegative",
        "equilibrium is a fixed point",
        "tridiagonal solver vs dense elimination",
        "species update maximum principle",
        "manufactured-solution spatial order",
        "manufactured-solution temporal order",
        "fine-grid oracle consistency",
        "energy drift halves at second order",
        "large-time behavior of the scenario",
    ]
    draws = [detail for _, _, detail in rows[1] if "draw None" not in detail]
    assert len(draws) == len(set(draws)) == 5


def _raising(exc):
    def probe(*args):
        raise exc
    return probe


def test_large_time_check_fails_only_on_typed_probe_errors(tmp_path, monkeypatch):
    """A typed error in the representation probe is a FAIL line; any other keeps its traceback."""
    config = load_run_config(write_config(tmp_path, SMALL_SCENARIO.format(out=tmp_path / "o")))
    monkeypatch.setattr(verify_suite, "representation_check",
                        _raising(WindowOutOfDomain("window [9, 11] contains no cells")))
    passed, detail = verify_suite._check_large_time(config)
    assert not passed
    assert detail.endswith("representation probe failed: window [9, 11] contains no cells")
    monkeypatch.setattr(verify_suite, "representation_check", _raising(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        verify_suite._check_large_time(config)
