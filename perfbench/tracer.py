"""Span tracer for the radgas layers, installed from outside the package.

``install`` wraps module-level functions of radgas and rebinds every name
that refers to one of them, in every loaded ``radgas`` namespace: the
defining module, the modules that imported the function by name, and the
package itself.  A call through any of those names therefore records a span.
Nothing under ``src/`` changes, and the wrappers pass arguments and results
through untouched, so traced outputs are byte-identical to untraced ones.

A span holds a name, start and end (``perf_counter_ns``), its parent span in
the same thread, and one integer of work the layer reports: tridiagonal rows,
Picard sweeps, step rejections, bytes written, sweep workers, or process CPU
nanoseconds.  Spans stay in per-thread arrays, so threads never share a stack
or a buffer, until ``dump`` writes them to an ``.npz`` file when the run ends.
``per_layer_metrics`` turns that file into the per-layer metrics.
"""

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np


class _ThreadSpans:
    """Spans recorded by one thread, with that thread's open-span stack."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.stack = []


class Tracer:
    """Records spans per thread; ``wrap`` returns a traced function."""

    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, name, fn, work=None, cpu=False):
        """Trace ``fn`` as spans named ``name``.

        ``work(args, result)`` gives the span's work count after a successful
        call; with ``cpu`` the span records the process CPU time it covered.
        """
        with self._lock:
            name_id = len(self.names)
            self.names.append(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            index = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(spans.stack[-1] if spans.stack else -1)
            spans.end.append(0)
            spans.work.append(0)
            spans.stack.append(index)
            cpu_start = time.process_time_ns() if cpu else 0
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                spans.stack.pop()
            if cpu:
                spans.work[index] = time.process_time_ns() - cpu_start
            elif work is not None:
                spans.work[index] = work(args, result)
            return result

        return traced

    def dump(self, path):
        """Write every span, parents re-indexed across threads, to ``path``."""
        with self._lock:
            threads = list(self._threads)
        columns = {"name": [], "parent": [], "start": [], "end": [], "work": []}
        offset = 0
        for spans in threads:
            parent = np.frombuffer(spans.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            columns["parent"].append(parent)
            for key in ("name", "start", "end", "work"):
                columns[key].append(np.frombuffer(getattr(spans, key), dtype=np.int64
                                                  if key != "name" else np.int32))
            offset += len(spans.name)
        arrays = {key: np.concatenate(parts) if parts else np.zeros(0, np.int64)
                  for key, parts in columns.items()}
        np.savez(path, names=np.array(self.names, dtype=str), **arrays)


def _rows(args, _):
    return len(args[1])


def _targets():
    """(owner, attribute, span name, work, cpu) for every traced function."""
    import radgas.cli
    import radgas.constitutive
    import radgas.functionals
    import radgas.integrator
    import radgas.verification
    import radgas.verify_suite

    integ, cli = radgas.integrator, radgas.cli
    targets = [
        (integ, "tridiagonal_solve", "integrator.tridiagonal", _rows, False),
        (integ, "_species_update", "integrator.species", None, False),
        (integ, "heat_step", "integrator.heat", lambda args, result: result[1], False),
        (integ, "hydro_step", "integrator.hydro", None, False),
        (integ, "strang_step", "integrator.step",
         lambda args, result: result.rejected_count, False),
        (integ, "select_timestep", "integrator.select_timestep", None, False),
        (radgas.verification, "integrate_manufactured", "verification.integrate", None, False),
        (radgas.functionals, "make_record", "functionals.make_record", None, False),
        (radgas.functionals, "accumulate_XY_increment", "functionals.xy_increment", None, False),
        (cli, "_report_text", "functionals.report", None, False),
        (cli, "_write_diagnostics_csv", "cli.write.diagnostics", None, False),
        (cli, "_write_snapshot", "cli.write.snapshot", None, False),
        (cli, "_atomic_write", "cli.write.file", lambda args, _: len(args[1].encode()), False),
        (cli, "_worker_count", "cli.sweep.workers", lambda args, result: result, False),
        (cli, "_sweep_cell", "cli.sweep.cell", None, False),
        (cli, "sweep_command", "cli.sweep", None, True),
    ]
    constitutive = radgas.constitutive
    for attr, fn in vars(constitutive).items():
        if (inspect.isfunction(fn) and fn.__module__ == constitutive.__name__
                and not attr.startswith("_")):
            targets.append((constitutive, attr, f"constitutive.{attr}", None, False))
    for attr in ("Sv", "Su", "Stheta", "Sz"):
        targets.append((radgas.verification.ManufacturedSources, attr,
                        f"verification.sources.{attr}", None, False))
    for attr, fn in vars(radgas.verify_suite).items():
        if inspect.isfunction(fn) and attr.startswith("_check_"):
            targets.append((radgas.verify_suite, attr,
                            f"verify_suite.{attr[len('_check_'):]}", None, False))
    return targets


def install(tracer):
    """Wrap every target and rebind it in all radgas namespaces."""
    for owner, attr, name, work, cpu in _targets():
        original = getattr(owner, attr, None)
        if original is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} not found, "
                  "not traced", file=sys.stderr)
            continue
        traced = tracer.wrap(name, original, work=work, cpu=cpu)
        setattr(owner, attr, traced)
        for module_name, module in list(sys.modules.items()):
            if module_name == "radgas" or module_name.startswith("radgas."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def per_layer_metrics(path):
    """Per-layer metrics from a span file written by ``Tracer.dump``."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        duration = (data["end"] - data["start"]) * 1e-9
        work = data["work"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = duration - child

    def named(span_name):
        return name == names.index(span_name) if span_name in names else np.zeros_like(nested)

    def group(prefix):
        return np.isin(name, [i for i, n in enumerate(names) if n.startswith(prefix + ".")])

    def calls(spans):
        return int(spans.sum())

    def self_s(spans):
        return float(self_time[spans].sum())

    def total_s(spans):
        return float(duration[spans].sum())

    def percentile(values, q):
        return float(np.percentile(values, q)) if values.size else 0.0

    tri, species = named("integrator.tridiagonal"), named("integrator.species")
    heat, hydro, step = named("integrator.heat"), named("integrator.hydro"), named("integrator.step")
    sweep, cells = named("cli.sweep"), named("cli.sweep.cell")
    constitutive, sources = group("constitutive"), group("verification.sources")
    rows, steps, rejections = int(work[tri].sum()), calls(step), int(work[step].sum())
    metrics = {
        "integrator.tridiagonal.calls": calls(tri),
        "integrator.tridiagonal.rows": rows,
        "integrator.tridiagonal.self_s": self_s(tri),
        "integrator.tridiagonal.us_per_row": self_s(tri) * 1e6 / rows if rows else 0.0,
        "integrator.species.calls": calls(species),
        # Each subcycle is one tridiagonal solve called by the species substep.
        "integrator.species.subcycles": calls(tri & nested & species[np.maximum(parent, 0)]),
        "integrator.species.self_s": self_s(species),
        "integrator.species.total_s": total_s(species),
        "integrator.heat.calls": calls(heat),
        "integrator.heat.picard_sweeps": int(work[heat].sum()),
        "integrator.heat.self_s": self_s(heat),
        "integrator.heat.total_s": total_s(heat),
        "integrator.hydro.calls": calls(hydro),
        "integrator.hydro.self_s": self_s(hydro),
        "integrator.hydro.total_s": total_s(hydro),
        "integrator.steps": steps,
        "integrator.rejections": rejections,
        "integrator.accept_ratio": steps / (steps + rejections) if steps else 0.0,
        "integrator.step_ms.p50": percentile(duration[step] * 1e3, 50),
        "integrator.step_ms.p99": percentile(duration[step] * 1e3, 99),
        "integrator.step.self_s": self_s(step),
        "integrator.select_timestep.self_s": self_s(named("integrator.select_timestep")),
        "constitutive.calls": calls(constitutive),
        "constitutive.self_s": self_s(constitutive),
        "verification.sources.calls": calls(sources),
        "verification.sources.self_s": self_s(sources),
        "verification.integrate.total_s": total_s(named("verification.integrate")),
        "functionals.make_record.calls": calls(named("functionals.make_record")),
        "functionals.make_record.self_s": self_s(named("functionals.make_record")),
        "functionals.xy_increment.self_s": self_s(named("functionals.xy_increment")),
        "functionals.report.total_s": total_s(named("functionals.report")),
        "cli.write.self_s": self_s(group("cli.write")),
        "cli.write.bytes": int(work[named("cli.write.file")].sum()),
        "cli.sweep.workers": int(work[named("cli.sweep.workers")].max(initial=0)),
        "cli.sweep.cell_s.p50": percentile(duration[cells], 50),
        "cli.sweep.cell_s.max": float(duration[cells].max(initial=0.0)),
        "cli.sweep.cpu_over_wall":
            float(work[sweep].sum()) * 1e-9 / total_s(sweep) if total_s(sweep) else 0.0,
    }
    for span_name in names:
        if span_name.startswith("verify_suite."):
            metrics[f"{span_name}.total_s"] = total_s(named(span_name))
    return metrics
