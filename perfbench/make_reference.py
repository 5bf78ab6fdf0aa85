"""Regenerate reference.json from one seed-0 run of every workload.

Usage: python3 perfbench/make_reference.py

Run it only for a change to radgas that is meant to change its answers, and
say so where the change is described.  Text reports are kept whole; of each
data file (.csv, .dat) the header and SAMPLED_LINES evenly spaced lines are
kept, with the file's line count.
"""

import json

import checks
from run import ROOT, Bench, work_dir
from workloads import WORKLOADS, generate_config

SAMPLED_LINES = 8


def sample(path):
    lines = path.read_text().splitlines()
    if path.suffix == ".txt" or len(lines) <= SAMPLED_LINES + 1:
        picks = range(len(lines))
    else:
        step = (len(lines) - 2) / (SAMPLED_LINES - 1)
        picks = [0] + [1 + round(i * step) for i in range(SAMPLED_LINES)]
    return {"lines": len(lines), "sample": {str(i): lines[i] for i in picks}}


def main():
    reference = {}
    with work_dir("reference-") as work:
        for name in WORKLOADS:
            config = generate_config(name, 0, ROOT / "configs", work / f"{name}.cfg")
            bench = Bench(name, config, work, None)
            out = work / name
            bench.untraced(out)
            if bench.problems:
                raise SystemExit(f"{name}: " + "; ".join(bench.problems))
            reference[name] = {str(p.relative_to(out)): sample(p)
                               for p in sorted(out.rglob("*")) if p.is_file()}
            print(f"{name}: {len(reference[name])} files")
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
