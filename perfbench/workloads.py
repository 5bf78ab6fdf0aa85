"""Seeded workload configs, generated from the shipped ``configs/*.cfg``.

Seed 0 keeps every key and value of the shipped config (plus the workload's
fixed overrides).  Any other seed scales the Gaussian amplitudes and width by
independent factors in [1 - JITTER, 1 + JITTER], so the initial data differ
while every operation stays admissible.  The program only ever sees the
generated file.
"""

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

JITTERED_KEYS = ("amplitude_v", "amplitude_u", "amplitude_theta", "amplitude_z", "width")
JITTER = 0.03

_ASSIGNMENT = re.compile(r"^(\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*=\s*)(.*?)(\s*)$")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a radgas subcommand on a generated config."""

    command: str
    source: str
    overrides: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "canonical": Workload("run", "canonical.cfg"),
    "sweep": Workload("sweep", "sweep.cfg"),
    "verify": Workload("verify", "verify.cfg"),
    "large_n": Workload(
        "run", "canonical.cfg", {"N": "2048", "T_end": "1", "emit_snapshots": "false"}
    ),
}


def generate_config(name, seed, configs_dir, out_path, overrides=None):
    """Write the config of workload ``name`` for ``seed`` to ``out_path``.

    ``overrides`` replaces further values (tests use it to shrink a run);
    every overridden key must exist in the source config.
    """
    workload = WORKLOADS[name]
    replace = dict(workload.overrides)
    replace.update(overrides or {})
    rng = random.Random(seed)
    seen = set()
    lines = []
    for line in (Path(configs_dir) / workload.source).read_text().splitlines():
        match = _ASSIGNMENT.match(line)
        if match:
            indent, key, sep, value, _ = match.groups()
            if key in replace:
                value = replace[key]
                seen.add(key)
            elif seed != 0 and key in JITTERED_KEYS:
                value = repr(float(value) * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))
            line = f"{indent}{key}{sep}{value}"
        lines.append(line)
    missing = set(replace) - seen
    if missing:
        raise KeyError(f"{workload.source} has no keys {sorted(missing)}")
    Path(out_path).write_text("\n".join(lines) + "\n")
    return Path(out_path)
