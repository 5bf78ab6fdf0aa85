"""Tests of the benchmark's config generator, output checks and tracer.

They run the radgas CLI on tiny configs (N=32, T=0.2), so they take seconds.
"""

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import checks
import tracer
from make_reference import sample
from run import BENCH_DIR, ROOT, Bench, same_tree
from workloads import JITTER, JITTERED_KEYS, WORKLOADS, generate_config

TINY = {"N": "32", "T_end": "0.2"}


def _values(path):
    parser = checks.read_config(path)
    return {(s, k): v for s in parser.sections() for k, v in parser.items(s)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_reproduces_the_shipped_config(tmp_path, name):
    workload = WORKLOADS[name]
    got = _values(generate_config(name, 0, ROOT / "configs", tmp_path / "w.cfg"))
    expected = _values(ROOT / "configs" / workload.source)
    for (section, key) in expected:
        if key in workload.overrides:
            expected[(section, key)] = workload.overrides[key]
    assert got == expected


def test_other_seeds_jitter_only_the_gaussian_shape(tmp_path):
    first = generate_config("canonical", 7, ROOT / "configs", tmp_path / "a.cfg")
    again = generate_config("canonical", 7, ROOT / "configs", tmp_path / "b.cfg")
    other = generate_config("canonical", 8, ROOT / "configs", tmp_path / "c.cfg")
    assert first.read_bytes() == again.read_bytes() != other.read_bytes()
    shipped, got = _values(ROOT / "configs" / "canonical.cfg"), _values(first)
    assert got.keys() == shipped.keys()
    for (section, key), value in shipped.items():
        if key in JITTERED_KEYS:
            ratio = float(got[(section, key)]) / float(value)
            assert ratio != 1.0 and abs(ratio - 1.0) <= JITTER
        else:
            assert got[(section, key)] == value


def test_unknown_override_is_rejected(tmp_path):
    with pytest.raises(KeyError):
        generate_config("canonical", 0, ROOT / "configs", tmp_path / "w.cfg", {"NN": "8"})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One untraced and one traced tiny canonical run."""
    work = tmp_path_factory.mktemp("tiny")
    config = generate_config("canonical", 0, ROOT / "configs", work / "tiny.cfg", TINY)
    bench = Bench("canonical", config, work, None)
    bench.untraced(work / "plain")
    bench.traced(work / "traced", work / "spans.npz")
    return bench, work


def test_tiny_run_passes_the_output_checks(tiny_run):
    bench, _ = tiny_run
    assert bench.problems == []
    assert (bench.attempted, bench.failed) == (2, 0)


def _outcome(bench, out_dir, reference=None):
    return checks.check_outputs("run", bench.config, out_dir, 0, "", reference)


def _corrupt_copy(work, name, edit):
    """Copy of the plain outputs with ``edit`` applied to diagnostics.csv lines."""
    out = work / name
    shutil.copytree(work / "plain", out)
    path = out / "diagnostics.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return out


def test_corrupted_outputs_fail_the_checks(tiny_run):
    bench, work = tiny_run

    def shift_mass(lines):
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) + 1e-9)
        return lines[:-1] + [",".join(fields)]

    drifted = _outcome(bench, _corrupt_copy(work, "drifted", shift_mass))
    assert drifted.failed == 1 and "mass_dev drifts" in drifted.problems[0]
    truncated = _outcome(bench, _corrupt_copy(work, "truncated", lambda lines: lines[:-1]))
    assert truncated.failed == 1 and "rows, expected" in truncated.problems[0]
    failed_exit = checks.check_outputs("run", bench.config, work / "plain", 3, "")
    assert failed_exit.failed == 1 and failed_exit.problems[0] == "exit code 3"


def test_reference_admits_round_off_and_rejects_a_wrong_answer(tiny_run):
    bench, work = tiny_run
    plain = work / "plain"
    reference = {str(p.relative_to(plain)): sample(p) for p in plain.rglob("*") if p.is_file()}
    assert _outcome(bench, plain, reference).problems == []

    def scale_energy(factor):
        def edit(lines):
            fields = lines[-1].split(",")
            fields[3] = repr(float(fields[3]) * factor)
            return lines[:-1] + [",".join(fields)]
        return edit

    round_off = _corrupt_copy(work, "round_off", scale_energy(1 + 4e-15))
    assert _outcome(bench, round_off, reference).problems == []
    wrong = _corrupt_copy(work, "wrong", scale_energy(1 + 1e-6))
    outcome = _outcome(bench, wrong, reference)
    assert outcome.failed == 1 and "differs from the reference" in outcome.problems[0]


def test_numbers_match_allows_one_unit_in_the_last_printed_digit():
    assert checks.numbers_match("mismatch 2.07e-07 (tol 1e-5)", "mismatch 2.06e-07 (tol 1e-5)")
    assert not checks.numbers_match("mismatch 2.09e-07 (tol 1e-5)",
                                    "mismatch 2.06e-07 (tol 1e-5)")
    assert not checks.numbers_match("steps sampled = 402", "steps sampled = 401")
    assert not checks.numbers_match("status blowup", "status completed")


def test_traced_outputs_are_byte_identical_and_work_is_counted(tiny_run):
    _, work = tiny_run
    assert same_tree(work / "plain", work / "traced")
    m = tracer.per_layer_metrics(work / "spans.npz")
    N = int(TINY["N"])
    assert m["integrator.steps"] > 0 and m["integrator.rejections"] == 0
    assert m["integrator.accept_ratio"] == 1.0
    assert m["integrator.hydro.calls"] == m["integrator.steps"]
    assert m["integrator.heat.calls"] == m["integrator.species.calls"] == 2 * m["integrator.steps"]
    solves = (m["integrator.hydro.calls"] + m["integrator.heat.picard_sweeps"]
              + m["integrator.species.subcycles"])
    assert m["integrator.tridiagonal.calls"] == solves
    assert m["integrator.tridiagonal.rows"] == (
        (N - 1) * m["integrator.hydro.calls"]
        + N * (m["integrator.heat.picard_sweeps"] + m["integrator.species.subcycles"]))
    assert m["functionals.make_record.calls"] == 5
    written = sum(p.stat().st_size for p in (work / "plain").rglob("*") if p.is_file())
    assert m["cli.write.bytes"] == written
    assert 0 < m["integrator.tridiagonal.self_s"] <= m["integrator.species.total_s"] + \
        m["integrator.heat.total_s"] + m["integrator.hydro.total_s"]
    assert m["verify_suite.mms_temporal.total_s"] == 0.0


def test_sweep_spans_are_attributed_per_thread(tmp_path):
    config = generate_config("sweep", 0, ROOT / "configs", tmp_path / "sweep.cfg",
                             {"N": "32", "T_end": "0.5"})
    bench = Bench("sweep", config, tmp_path, None)
    bench.traced(tmp_path / "out", tmp_path / "spans.npz")
    assert bench.problems == [] and bench.attempted == 12
    m = tracer.per_layer_metrics(tmp_path / "spans.npz")
    assert m["cli.sweep.workers"] == min(4, len(os.sched_getaffinity(0)))
    assert m["cli.sweep.cell_s.max"] >= m["cli.sweep.cell_s.p50"] > 0
    with np.load(tmp_path / "spans.npz") as spans:
        names = list(spans["names"])
        name, parent = spans["name"], spans["parent"]
    steps = name == names.index("integrator.step")
    assert steps.sum() == m["integrator.steps"] > 0
    # run_simulation is not traced, so every step's parent is the cell that ran it.
    assert (name[parent[steps]] == names.index("cli.sweep.cell")).all()


def test_tracer_keeps_stacks_per_thread(tmp_path):
    spans = tracer.Tracer()
    inner = spans.wrap("inner", lambda x: x + 1, work=lambda args, result: result)
    outer = spans.wrap("outer", lambda x: inner(x) * 2)
    threads = [threading.Thread(target=lambda: [outer(i) for i in range(300)])
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    spans.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        name, parent, start, end, work = (
            data[key] for key in ("name", "parent", "start", "end", "work"))
    inner_spans = name == 0
    assert inner_spans.sum() == (name == 1).sum() == 8 * 300
    assert (parent[~inner_spans] == -1).all()
    outer_of = parent[inner_spans]
    assert (name[outer_of] == 1).all() and len(set(outer_of)) == 8 * 300
    assert (start[outer_of] <= start[inner_spans]).all()
    assert (end[inner_spans] <= end[outer_of]).all()
    assert sorted(work[inner_spans]) == sorted(list(range(1, 301)) * 8)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "canonical",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
