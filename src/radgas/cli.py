"""Command-line entry point: run, sweep, and verify pipelines.

Configuration is flat ``key = value`` text with bracketed section headers
([scenario], [params], [run], [sweep]); the keys of a section are the field
names of its dataclass (``lambda`` spells ``lam``), each value is converted by
its field's type, and unknown keys are hard errors so a misspelled physics
constant can never silently fall back to a default.  All output files are
written to a temporary name and renamed on completion; a write that fails
removes its temporary file.
"""

import argparse
import configparser
import contextlib
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

from .constitutive import GasParameters
from .domain import ScenarioSpec, _midpoints, build_grid, validate_parameters
from .errors import BlowUpError, ConfigError, WindowOutOfDomain
from .functionals import (
    CSV_COLUMNS,
    WindowHistory,
    _window_cells,
    interval_probe,
    representation_check,
    temperature_envelope_check,
    theta_bound_from_Y,
)
from .integrator import run_simulation

__all__ = ["RunConfig", "SweepConfig", "load_run_config", "load_sweep_config",
           "run_command", "sweep_command", "verify_command", "main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4
# Most samples a run may take.  Each sample ends a step, so a tiny
# sample_cadence would otherwise cap dt and run without end.
MAX_SAMPLES = 100_000


@dataclass
class RunConfig:
    """A scenario plus output and probe settings for one simulation."""

    scenario: ScenarioSpec
    output_dir: str = "out"
    sample_cadence: float = 0.1
    probes: list[int] = field(default_factory=lambda: [2])
    emit_snapshots: bool = False
    snapshot_times: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.sample_cadence > 0:
            raise ConfigError("sample_cadence must be > 0")
        # the same test as ceil(T/c) > MAX_SAMPLES, without ceil's OverflowError at T/c = inf
        if self.scenario.T_end / self.sample_cadence > MAX_SAMPLES:
            raise ConfigError(f"sample_cadence = {self.sample_cadence:g} would take more than "
                              f"{MAX_SAMPLES} samples to T_end = {self.scenario.T_end:g}")
        grid = build_grid(self.scenario.L, self.scenario.N)
        for k in self.probes:
            try:
                _window_cells(grid, k)
            except WindowOutOfDomain as exc:
                raise ConfigError(f"probe {k}: {exc}") from exc
        if self.emit_snapshots:
            owners = {}
            for t in self.snapshot_times:
                if not t >= 0:
                    raise ConfigError(f"snapshot time {t:g} must be >= 0")
                name = self.snapshot_name(t)
                if name in owners:
                    raise ConfigError(f"snapshot times {owners[name]!r} and {t!r} "
                                      f"would both write {name}")
                owners[name] = t

    @staticmethod
    def snapshot_name(t):
        """The file the snapshot nearest time t is written to, relative to the run's directory."""
        return f"snapshot_t{t:g}.dat"


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_list(text, conv):
    items = [s.strip() for s in text.split(",") if s.strip()]
    return [conv(s) for s in items]


def _parse_beta_token(token):
    token = token.strip()
    if token.startswith("b+"):
        try:
            offset = float(token[2:])
        except ValueError as exc:
            raise ConfigError(f"bad beta token {token!r}") from exc
        return lambda b: b + offset
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"bad beta token {token!r}") from exc
    return lambda b: value


@dataclass
class SweepConfig:
    """Grid of conductivity/rate exponents layered over a base run.

    Each cell's scenario is built, so validated, with the config and kept in
    ``specs``, in ``cells()`` order; a plain attribute, as every field is a key.
    """

    base: RunConfig
    b_values: list[float]
    # each entry maps b to beta: "2" is a constant, "b+8" an offset from b
    beta_values: list = field(metadata={"parse": lambda text: _parse_list(text, _parse_beta_token)})
    max_parallel: int = 1

    def __post_init__(self):
        if not self.b_values or not self.beta_values:
            raise ConfigError("sweep value lists must be nonempty")
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be >= 1")
        base = self.base.scenario
        self.specs = []
        owners = {}
        for b, beta in self.cells():
            try:
                self.specs.append(replace(base, params=replace(base.params, b=b, beta=beta)))
            except ConfigError as exc:
                raise ConfigError(f"sweep cell (b={b:g}, beta={beta:g}): {exc}") from exc
            name, cell = self.cell_dir(b, beta), f"(b={b!r}, beta={beta!r})"
            if name in owners:
                raise ConfigError(f"sweep cells {owners[name]} and {cell} would both write {name}")
            owners[name] = cell

    def cells(self):
        """(b, beta) of every grid cell, b-major in config order."""
        return [(b, beta_fn(b)) for b in self.b_values for beta_fn in self.beta_values]

    @staticmethod
    def cell_dir(b, beta):
        """The output directory of cell (b, beta), relative to the sweep's."""
        return f"cell_b{b:g}_beta{beta:g}"


_PARSERS = {
    str: str.strip,
    int: int,
    float: float,
    bool: _parse_bool,
    list[int]: lambda text: _parse_list(text, int),
    list[float]: lambda text: _parse_list(text, float),
}
_CONFIG_KEY = {"lam": "lambda"}


def _read_ini(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    return parser


def _read_section(parser, section, cls, **given):
    """Build dataclass ``cls`` from ``given`` plus the keys of ``[section]``.

    Every field not in ``given`` is a key, spelled as the field name except
    where ``_CONFIG_KEY`` renames it.  Values are converted by the field's
    type (or its ``parse`` metadata); any failure is a ConfigError.
    """
    keyed = {_CONFIG_KEY.get(f.name, f.name): f for f in fields(cls) if f.name not in given}
    items = parser.items(section) if parser.has_section(section) else []
    unknown = {key for key, _ in items} - set(keyed)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    kwargs = dict(given)
    for key, text in items:
        f = keyed[key]
        try:
            kwargs[f.name] = (f.metadata.get("parse") or _PARSERS[f.type])(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc
    missing = [key for key, f in keyed.items() if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"[{section}] needs {', '.join(missing)}")
    return cls(**kwargs)


def _load_run(parser) -> RunConfig:
    for section in parser.sections():
        if section not in ("scenario", "params", "run", "sweep"):
            raise ConfigError(f"unknown section [{section}]")
    params = _read_section(parser, "params", GasParameters)
    scenario = _read_section(parser, "scenario", ScenarioSpec, params=params)
    return _read_section(parser, "run", RunConfig, scenario=scenario)


def load_run_config(path) -> RunConfig:
    return _load_run(_read_ini(path))


def load_sweep_config(path) -> SweepConfig:
    parser = _read_ini(path)
    return _read_section(parser, "sweep", SweepConfig, base=_load_run(parser))


def _atomic_write(path, text):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_diagnostics_csv(path, records):
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in records)
    _atomic_write(path, "\n".join(lines) + "\n")


class _NearestSamples:
    """For each requested time, the sampled state nearest to it: the first of
    equally near ones, as ``np.argmin`` over the sample times picks."""

    def __init__(self, times):
        self.times = list(times)
        self.states = [None] * len(self.times)

    def __call__(self, state):
        for i, t in enumerate(self.times):
            kept = self.states[i]
            if kept is None or abs(state.t - t) < abs(kept.t - t):
                self.states[i] = state


def _write_snapshot(path, grid, state):
    xc = grid.cell_centers
    u_c = _midpoints(state.u)
    lines = [f"# t={state.t:.17g}"]
    for i in range(xc.size):
        lines.append(
            f"{xc[i]:.17g} {state.v[i]:.17g} {u_c[i]:.17g} {state.theta[i]:.17g} {state.z[i]:.17g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _report_text(config: RunConfig, result, windows) -> str:
    spec = config.scenario
    blocks = [validate_parameters(spec.params).summary()]
    final = result.records[-1]
    blocks.append(
        "run summary\n"
        f"  t final = {final.t:.6g}, steps sampled = {len(result.records)}\n"
        f"  mass deviation = {final.mass_dev:.10g} (initial {result.records[0].mass_dev:.10g})\n"
        f"  momentum = {final.momentum:.10g} (initial {result.records[0].momentum:.10g})\n"
        f"  total energy = {final.total_energy:.10g} (initial {result.records[0].total_energy:.10g})\n"
        f"  reactant burned (time-integrated sink) = {result.species_consumed:.10g}"
    )
    run_min_v = min(r.min_v for r in result.records)
    run_max_v = max(r.max_v for r in result.records)
    run_min_th = min(r.min_theta for r in result.records)
    run_max_th = max(r.max_theta for r in result.records)
    ratio = final.max_theta / theta_bound_from_Y(spec.params, final.Y)
    blocks.append(
        "bound summary\n"
        f"  v range over run = [{run_min_v:.6g}, {run_max_v:.6g}]\n"
        f"  theta range over run = [{run_min_th:.6g}, {run_max_th:.6g}]\n"
        f"  max_z over run = {max(r.max_z for r in result.records):.6g}\n"
        f"  X final = {final.X:.6g}, Y final = {final.Y:.6g}\n"
        f"  max_theta / theta-bound ratio = {ratio:.6g}\n"
        f"  boundary deviation max = {max(r.boundary_dev for r in result.records):.3e}"
    )
    if len(result.records) >= 2:
        blocks.append(
            "temperature lower envelope constant = "
            f"{temperature_envelope_check(result.records):.6g}"
        )
    for window in windows:
        blocks.append(interval_probe(result.final_state, result.grid, window.k).block())
        try:
            blocks.append(representation_check(window, result.final_state.t).block())
        except WindowOutOfDomain as exc:
            blocks.append(f"volume representation k = {window.k}: skipped ({exc})")
    blocks.append(
        "final deviation norms\n"
        + "\n".join(f"  {name.removeprefix('dev_')} = {getattr(final, name):.10g}"
                    for name in ("dev_L2", "dev_L4", "dev_Linf", "grad_L2"))
    )
    return "\n\n".join(blocks) + "\n"


def _exit_code(command):
    """Turn each typed failure of ``command`` into one stderr line and its exit code.

    Any other exception is a bug and keeps its traceback.
    """
    @functools.wraps(command)
    def wrapper(config_path, output_dir=None) -> int:
        try:
            return command(config_path, output_dir)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except BlowUpError as exc:
            print(f"blow-up: {exc}", file=sys.stderr)
            return EXIT_BLOWUP
    return wrapper


def _write_abort_report(out_dir, exc):
    """Best-effort report.txt for a run that blew up; a write failure is ignored."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(os.path.join(out_dir, "report.txt"), f"aborted: {exc}\n")
    except OSError:
        pass


@_exit_code
def run_command(config_path, output_dir=None) -> int:
    """Execute one simulation and write diagnostics.csv, snapshots, report.txt.

    Of each sample the run keeps its record and its probe-window rows; whole
    states only for the snapshot times.
    """
    config = load_run_config(config_path)
    spec = config.scenario
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    grid = build_grid(spec.L, spec.N)
    windows = [WindowHistory(grid, spec.params, k) for k in config.probes]
    snapshots = _NearestSamples(config.snapshot_times if config.emit_snapshots else ())

    def sample(state):
        snapshots(state)
        for window in windows:
            window.append(state)

    try:
        result = run_simulation(spec, sample_cadence=config.sample_cadence, on_sample=sample)
    except BlowUpError as exc:
        _write_abort_report(out_dir, exc)
        raise
    _write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), result.records)
    for t_req, state in zip(snapshots.times, snapshots.states):
        name = config.snapshot_name(t_req)
        if t_req > spec.T_end:
            print(f"warning: snapshot time {t_req:g} is past T_end = "
                  f"{spec.T_end:g}; {name} holds the final state",
                  file=sys.stderr)
        _write_snapshot(os.path.join(out_dir, name), result.grid, state)
    _atomic_write(os.path.join(out_dir, "report.txt"), _report_text(config, result, windows))
    return EXIT_OK


def _worker_count(requested):
    """How many workers to run for ``requested``: at least one, at most the usable CPUs.

    This is the only place that reads the CPU count; ``taskset`` or a cpuset
    lowers it.
    """
    return max(1, min(requested, len(os.sched_getaffinity(0))))


def _run_jobs(jobs, workers):
    """``fn(*args)`` for each ``(fn, args)`` in ``jobs``, returned in job order.

    At most ``min(workers, len(jobs))`` jobs run at once.  With one, they run
    here in turn.  With more, each runs in a worker process forked from this
    one, so it starts with the modules already imported; ``fn`` and ``args``
    must pickle.  A job is handed out only when a worker is free, and none is
    started once a job has raised: the jobs already running finish, the
    workers exit, and the error of the first failed job in job order is
    re-raised with its type and message.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*args) for fn, args in jobs]
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    futures = []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        running = set()
        for fn, args in jobs:
            if len(running) == workers:
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() for future in finished):
                    break
            futures.append(pool.submit(fn, *args))
            running.add(futures[-1])
    return [future.result() for future in futures]


def _sweep_cell(spec: ScenarioSpec, sample_cadence: float, out_dir: str):
    """Run one cell's validated scenario into ``out_dir``; returns its summary row."""
    params = spec.params
    row = {
        "b": params.b, "beta": params.beta, "admissible": validate_parameters(params).admissible,
        "status": "completed",
        "final_Linf_dev": math.nan, "X_final": math.nan, "Y_final": math.nan,
        "min_theta": math.nan, "max_theta": math.nan,
    }
    try:
        result = run_simulation(spec, sample_cadence=sample_cadence)
    except BlowUpError as exc:
        row["status"] = "blowup"
        _write_abort_report(out_dir, exc)
        return row
    final = result.records[-1]
    row.update(
        final_Linf_dev=final.dev_Linf,
        X_final=final.X,
        Y_final=final.Y,
        min_theta=min(r.min_theta for r in result.records),
        max_theta=max(r.max_theta for r in result.records),
    )
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), result.records)
    except OSError:
        row["status"] = "io-error"
    return row


@_exit_code
def sweep_command(config_path, output_dir=None) -> int:
    """Run the (b, beta) grid and write sweep_summary.csv."""
    config = load_sweep_config(config_path)
    workers = _worker_count(config.max_parallel)
    out_root = output_dir or config.base.output_dir
    os.makedirs(out_root, exist_ok=True)

    cadences = [config.base.sample_cadence] * len(config.specs)
    out_dirs = [os.path.join(out_root, config.cell_dir(b, beta)) for b, beta in config.cells()]
    if workers == 1:
        rows = list(map(_sweep_cell, config.specs, cadences, out_dirs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, config.specs, cadences, out_dirs))

    rows.sort(key=lambda r: (r["b"], r["beta"]))
    lines = ["b,beta,admissible,status,final_Linf_dev,X_final,Y_final,min_theta,max_theta"]
    for r in rows:
        lines.append(
            f"{r['b']:.17g},{r['beta']:.17g},{str(r['admissible']).lower()},{r['status']},"
            f"{r['final_Linf_dev']:.17g},{r['X_final']:.17g},{r['Y_final']:.17g},"
            f"{r['min_theta']:.17g},{r['max_theta']:.17g}"
        )
    _atomic_write(os.path.join(out_root, "sweep_summary.csv"), "\n".join(lines) + "\n")
    failed_admissible = [r for r in rows if r["admissible"] and r["status"] != "completed"]
    for r in failed_admissible:
        print(f"admissible cell (b={r['b']:g}, beta={r['beta']:g}) {r['status']}", file=sys.stderr)
    if any(r["status"] == "blowup" for r in failed_admissible):
        return EXIT_BLOWUP
    return EXIT_IO if failed_admissible else EXIT_OK


@_exit_code
def verify_command(config_path, output_dir=None) -> int:
    """Run the verification suite and write verify_report.txt."""
    from .verify_suite import _jobs

    config = load_run_config(config_path)
    jobs = _jobs(config)
    workers = _worker_count(len(jobs))
    out_dir = output_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    checks = [row for rows in _run_jobs(jobs, workers) for row in rows]
    lines = []
    for name, ok, detail in checks:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    all_ok = all(ok for _, ok, _ in checks)
    lines.append(f"\n{'all checks passed' if all_ok else 'VERIFICATION FAILED'}")
    _atomic_write(os.path.join(out_dir, "verify_report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radgas",
        description="1D Lagrangian viscous radiative reactive gas simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate one scenario and write diagnostics"),
        ("sweep", "run a (b, beta) parameter grid"),
        ("verify", "run the verification suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the config file")
        p.add_argument("--output-dir", default=None,
                       help="override the configured output directory")
    args = parser.parse_args(argv)
    command = {"run": run_command, "sweep": sweep_command, "verify": verify_command}[args.command]
    return command(args.config, output_dir=args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
