"""Benchmark of the radgas CLI on seeded workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload config is generated from the shipped ``configs/*.cfg`` and the
seed (see workloads.py).  ``--trace 0`` runs ``radgas <command> <config>``
in a fresh, untraced process again and again for about ``--seconds`` seconds,
times the set-up of a run (interpreter start, ``import radgas``, config
parse, initial data) in SETUP_REPEATS fresh processes, half before and half
after, and reports medians of wall time, set-up time and peak resident
memory.
``--trace 1`` runs pairs of one untraced and one traced invocation instead,
checks that both wrote byte-identical outputs, and reports the per-layer
metrics of the traced run plus the tracing overhead.  Every invocation's
outputs are checked (checks.py).  The metric names and units are those
declared in BENCHMARK.json; the last line of standard output is the JSON
result, and the line before it holds the full record with the environment.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, generate_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 10
INVOCATION_TIMEOUT_S = 150

CLI_CODE = "import sys; from radgas.cli import main; sys.exit(main())"
# Everything `radgas <command>` does before its first step, then exit.
SETUP_CODE = """
import sys
from radgas.cli import load_run_config, load_sweep_config
from radgas.domain import build_grid, make_initial_data, validate_initial_data
command, path = sys.argv[1:]
if command == "verify":
    import radgas.verify_suite
config = load_sweep_config(path).base if command == "sweep" else load_run_config(path)
spec = config.scenario
grid = build_grid(spec.L, spec.N)
sys.exit(0 if validate_initial_data(make_initial_data(spec, grid), grid).passed else 1)
"""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@contextlib.contextmanager
def work_dir(prefix):
    """A scratch directory inside the benchmark's own tree, removed afterwards."""
    parent = BENCH_DIR / "_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def invoke(argv, env, cwd):
    """Run argv to completion; wall time is from spawn to exit."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read(), err.read())


def same_tree(a, b):
    """Whether two output directories hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    return files_a == files_b and all(
        (Path(a) / f).read_bytes() == (Path(b) / f).read_bytes() for f in files_a)


class Bench:
    """One benchmark run of one workload; tallies operations and problems."""

    def __init__(self, workload, config, work, reference):
        self.command = WORKLOADS[workload].command
        self.config = config
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        nproc = len(os.sched_getaffinity(0))
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, RADGAS_THREADS=str(nproc), PYTHONPATH=(
            str(ROOT / "src") + (os.pathsep + path if path else "")))

    def _radgas(self, prefix, out_dir):
        argv = [*prefix, self.command, str(self.config), "--output-dir", str(out_dir)]
        inv = invoke(argv, self.env, self.work)
        outcome = checks.check_outputs(self.command, self.config, out_dir, inv.returncode,
                                       inv.stdout, self.reference)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if inv.returncode != 0:
            self.problems.append(inv.stderr.strip()[-2000:])
        return inv

    def untraced(self, out_dir):
        return self._radgas([sys.executable, "-c", CLI_CODE], out_dir)

    def traced(self, out_dir, spans):
        return self._radgas([sys.executable, str(BENCH_DIR / "traced_main.py"), str(spans)],
                            out_dir)

    def setup(self):
        inv = invoke([sys.executable, "-c", SETUP_CODE, self.command, str(self.config)],
                     self.env, self.work)
        if inv.returncode != 0:
            self.problems.append(f"set-up failed: {inv.stderr.strip()[-2000:]}")
        return inv.wall_s


def repeat(seconds, once):
    """Call once(i) until another call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        once(len(durations))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure_end_to_end(bench, seconds):
    bench.setup()  # fills the bytecode caches, which users also have warm
    # Half the set-up samples before the invocations and half after, so that
    # their median spans the whole run rather than its first seconds.
    setup = [bench.setup() for _ in range(SETUP_REPEATS // 2)]
    walls, rss = [], []

    def once(i):
        out = bench.work / f"out{i}"
        inv = bench.untraced(out)
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        shutil.rmtree(out, ignore_errors=True)

    repeat(seconds, once)
    setup += [bench.setup() for _ in range(SETUP_REPEATS - len(setup))]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def measure_per_layer(bench, seconds):
    bench.setup()
    layers = []

    def once(i):
        plain, traced = bench.work / f"plain{i}", bench.work / f"traced{i}"
        spans = bench.work / f"spans{i}.npz"
        plain_inv = bench.untraced(plain)
        traced_inv = bench.traced(traced, spans)
        if not same_tree(plain, traced):
            bench.failed += 1
            bench.problems.append("traced outputs differ from untraced outputs")
        metrics = tracer.per_layer_metrics(spans)
        metrics["trace.overhead_s"] = traced_inv.wall_s - plain_inv.wall_s
        metrics["wall_s"] = plain_inv.wall_s
        layers.append(metrics)
        for path in (plain, traced):
            shutil.rmtree(path, ignore_errors=True)
        spans.unlink()

    repeat(seconds, once)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    samples = {"wall_s": [m["wall_s"] for m in layers],
               "trace.overhead_s": [m["trace.overhead_s"] for m in layers]}
    return metrics, samples


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    """Commit, host and library versions recorded with every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.cfg")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radgas" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no radgas sources under {ROOT}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]
    reference = checks.load_reference(args.workload) if args.seed == 0 else None

    signal.signal(signal.SIGTERM, _terminate)
    with work_dir(f"{args.workload}-") as work:
        config = generate_config(args.workload, args.seed, ROOT / "configs",
                                 work / f"{args.workload}.cfg")
        bench = Bench(args.workload, config, work, reference)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, samples = measure(bench, args.seconds)

    error_rate = bench.failed / bench.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples['wall_s'])} runs, {bench.failed} of {bench.attempted} operations "
          f"failed (error_rate {error_rate:g})")
    for problem in bench.problems[:20]:
        print(f"  problem: {problem}")
    for entry in declared:
        n = len(samples.get(entry["name"], ()))
        count = f"  (median of {n})" if n else ""
        print(f"  {entry['name']} = {metrics[entry['name']]:.6g} {entry['unit']}{count}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "error_rate": error_rate,
        "metrics": metrics, "samples": samples,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
