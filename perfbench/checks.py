"""Output checks for one radgas CLI invocation.

Every invocation is checked for its exit code, the expected files and row
counts, the discrete invariants the diagnostics must show (mass constant to
round-off, ``max_z`` never increasing, ``z_L1`` strictly decreasing), every
admissible sweep cell completing, and ``verify`` passing all its checks.  On
seed 0 the outputs are also compared with ``reference.json``: text must match
and every number must agree within ``RTOL * |ref| + ATOL`` plus one unit in
the last printed digit, which admits a round-off-level change of the solver
(about 4e-15 in the final state) and rejects a wrong answer.
"""

import configparser
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

MASS_TOL = 1e-12
MAX_Z_TOL = 1e-12
RTOL = 1e-9
ATOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


@dataclass
class Outcome:
    """Operations attempted and failed by one invocation, with the reasons."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)


def read_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(path)
    return parser


def expected_samples(parser):
    """Number of diagnostics rows a run of this config writes."""
    T = parser.getfloat("scenario", "T_end")
    cadence = parser.getfloat("run", "sample_cadence")
    return math.ceil(T / cadence - 1e-9) + 1


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_diagnostics(path, rows_expected):
    """Problems found in one diagnostics.csv."""
    if not Path(path).is_file():
        return [f"{path} missing"]
    rows = _read_csv(path)
    if len(rows) != rows_expected:
        return [f"{path}: {len(rows)} rows, expected {rows_expected}"]
    problems = []
    mass = [float(r["mass_dev"]) for r in rows]
    drift = max(abs(m - mass[0]) for m in mass)
    if not drift <= MASS_TOL:
        problems.append(f"{path}: mass_dev drifts by {drift:.3e}")
    max_z = [float(r["max_z"]) for r in rows]
    if any(not b - a <= MAX_Z_TOL for a, b in zip(max_z, max_z[1:])):
        problems.append(f"{path}: max_z increases")
    z_L1 = [float(r["z_L1"]) for r in rows]
    if any(not b < a for a, b in zip(z_L1, z_L1[1:])):
        problems.append(f"{path}: z_L1 not strictly decreasing")
    return problems


def _check_run(parser, out_dir):
    problems = check_diagnostics(out_dir / "diagnostics.csv", expected_samples(parser))
    report = out_dir / "report.txt"
    if not report.is_file() or "run summary" not in report.read_text():
        problems.append("report.txt missing or without run summary")
    if parser.getboolean("run", "emit_snapshots", fallback=False):
        N = parser.getint("scenario", "N")
        for text in parser.get("run", "snapshot_times").split(","):
            path = out_dir / f"snapshot_t{float(text):g}.dat"
            if not path.is_file():
                problems.append(f"{path.name} missing")
                continue
            lines = path.read_text().splitlines()
            if len(lines) != N + 1 or not lines[0].startswith("# t="):
                problems.append(f"{path.name}: {len(lines)} lines, expected {N + 1}")
    return Outcome(1, 1 if problems else 0, problems)


def _check_sweep(parser, out_dir):
    cells = (len(parser.get("sweep", "b_values").split(","))
             * len(parser.get("sweep", "beta_values").split(",")))
    summary = out_dir / "sweep_summary.csv"
    if not summary.is_file():
        return Outcome(cells, cells, ["sweep_summary.csv missing"])
    rows = _read_csv(summary)
    if len(rows) != cells:
        return Outcome(cells, cells, [f"sweep_summary.csv: {len(rows)} rows, expected {cells}"])
    outcome = Outcome(cells)
    samples = expected_samples(parser)
    for row in rows:
        b, beta = float(row["b"]), float(row["beta"])
        cell_dir = out_dir / f"cell_b{b:g}_beta{beta:g}"
        if row["admissible"] == "true" and row["status"] != "completed":
            problems = [f"admissible cell {cell_dir.name} {row['status']}"]
        elif row["status"] == "completed":
            problems = check_diagnostics(cell_dir / "diagnostics.csv", samples)
        else:
            problems = []
        if problems:
            outcome.failed += 1
            outcome.problems.extend(problems)
    return outcome


def _check_verify(stdout, out_dir):
    lines = [l for l in stdout.splitlines() if l.startswith(("[PASS]", "[FAIL]"))]
    outcome = Outcome(max(1, len(lines)))
    outcome.failed = sum(l.startswith("[FAIL]") for l in lines)
    outcome.problems = [l for l in lines if l.startswith("[FAIL]")]
    if "all checks passed" not in stdout:
        outcome.problems.append("verify did not print 'all checks passed'")
    report = out_dir / "verify_report.txt"
    if not report.is_file() or report.read_text().strip() != stdout.strip():
        outcome.problems.append("verify_report.txt missing or differs from stdout")
    return outcome


def _unit_in_last_place(token):
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def numbers_match(got, ref):
    """Whether two text lines agree: equal text, numbers within tolerance."""
    if _NUMBER.split(got) != _NUMBER.split(ref):
        return False
    for g, r in zip(_NUMBER.findall(got), _NUMBER.findall(ref)):
        tol = RTOL * abs(float(r)) + ATOL
        if "." in r or "e" in r.lower():
            tol += _unit_in_last_place(r)
        if not abs(float(g) - float(r)) <= tol:
            return False
    return True


def compare_reference(out_dir, reference):
    """Problems where the outputs under out_dir differ from the reference."""
    problems = []
    for name, expected in reference.items():
        path = Path(out_dir) / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        lines = path.read_text().splitlines()
        if len(lines) != expected["lines"]:
            problems.append(f"{name}: {len(lines)} lines, reference has {expected['lines']}")
            continue
        for index, text in expected["sample"].items():
            if not numbers_match(lines[int(index)], text):
                problems.append(f"{name} line {int(index) + 1} differs from the reference: "
                                f"{lines[int(index)][:120]!r} vs {text[:120]!r}")
                break
    return problems


def load_reference(workload):
    return json.loads(REFERENCE_PATH.read_text())[workload]


def check_outputs(command, config_path, out_dir, returncode, stdout, reference=None):
    """Check one invocation of ``radgas <command> <config>``; returns an Outcome."""
    out_dir = Path(out_dir)
    parser = read_config(config_path)
    if command == "run":
        outcome = _check_run(parser, out_dir)
    elif command == "sweep":
        outcome = _check_sweep(parser, out_dir)
    else:
        outcome = _check_verify(stdout, out_dir)
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    if reference is not None:
        problems.extend(compare_reference(out_dir, reference))
    outcome.problems = problems + outcome.problems
    if problems or (outcome.problems and not outcome.failed):
        # A failure that concerns the whole invocation fails every operation in it.
        outcome.failed = outcome.attempted
    return outcome
