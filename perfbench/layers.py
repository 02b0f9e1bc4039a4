"""In-memory span recorder and the benchmark-side wrappers around each layer.

The program under test carries no spans of its own for this benchmark: the
traced run installs the wrappers below into an imported ``repro`` from the
outside, records one span per wrapped call (name, start, end, parent) in a
list, and hands the list back when the workload ends.  Only the traced run
imports this module's :func:`install`; the timed runs never do.

A span's *self time* is its duration minus the part of it covered by its
child spans; summing self times per layer and adding the time no root span
covers gives back the traced wall exactly (integer nanoseconds).
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Span name -> the per-layer self-time metric it feeds.
SPAN_METRICS = {
    "workloads.trace": "workloads.trace_s",
    "cpu.sim": "cpu.sim_s",
    "dram.energy": "dram.energy_s",
    "ecc.encode": "ecc.encode_s",
    "ecc.correct": "ecc.correct_s",
    "gf.encode": "gf.encode_s",
    "gf.decode": "gf.decode_s",
    "gf.syndromes": "gf.syndromes_s",
    "faults.mc": "faults.mc_s",
    "util.cache_write": "util.cache_write_s",
    "util.cache_read": "util.cache_read_s",
    "experiments.dispatch": "experiments.dispatch_s",
    "experiments.render": "experiments.render_s",
    "experiments.task": "experiments.task_s",
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "workloads.trace_s": "s",
    "workloads.refs": "count",
    "cpu.sim_s": "s",
    "cpu.sims": "count",
    "cpu.native_share": "ratio",
    "cpu.host_ns_per_instr": "ns/instr",
    "cpu.sim_cell_p50_s": "s",
    "cpu.sim_cell_p95_s": "s",
    "cpu.llc_miss_rate": "ratio",
    "dram.energy_s": "s",
    "dram.accesses": "count",
    "dram.ecc_share": "ratio",
    "ecc.encode_s": "s",
    "ecc.correct_s": "s",
    "ecc.lines": "count",
    "ecc.per_line_share": "ratio",
    "ecc.corrected": "count",
    "ecc.detected": "count",
    "ecc.silent": "count",
    "gf.encode_s": "s",
    "gf.encode_words": "count",
    "gf.decode_s": "s",
    "gf.decode_words": "count",
    "gf.syndromes_s": "s",
    "gf.native_share": "ratio",
    "faults.mc_s": "s",
    "faults.trials": "count",
    "util.cache_write_s": "s",
    "util.cache_writes": "count",
    "util.cache_bytes_written": "count",
    "util.cache_read_s": "s",
    "experiments.dispatch_s": "s",
    "experiments.tasks": "count",
    "experiments.render_s": "s",
    "experiments.task_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index]`` plus counters."""

    def __init__(self):
        self.spans: "list[list]" = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def parent_name(self, rec) -> "str | None":
        return self.spans[rec[3]][0] if rec[3] >= 0 else None

    def wrap(self, fn, name: str, hook=None):
        """Wrap *fn* in a span; ``hook(tracer, rec, args, kwargs, out)`` counts work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, rec, args, kwargs, out)
            return out

        return wrapper


def _covered(intervals, lo: int, hi: int) -> int:
    """Nanoseconds of ``[lo, hi]`` covered by the union of *intervals*."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, t0: int, t1: int) -> "tuple[dict[str, int], int]":
    """Per-name self time and the unattributed part of the window ``[t0, t1]``.

    Self time = span duration minus the union of its direct children; the
    unattributed part = window minus the union of the root spans.  For
    properly nested spans the self times plus the remainder sum to
    ``t1 - t0`` exactly.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        children[parent].append((start, end))
    selfs: "dict[str, int]" = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        selfs[name] += (end - start) - _covered(children.get(i, ()), start, end)
    return dict(selfs), (t1 - t0) - _covered(children.get(-1, ()), t0, t1)


# -- installation ----------------------------------------------------------------------


def _words(arr) -> int:
    """Codewords in a ``(..., n)`` batch."""
    return math.prod(arr.shape[:-1])


def _count_refs(tr, rec, args, kwargs, out):
    tr.counts["workloads.refs"] += len(out[0])


def _count_sim(tr, rec, args, kwargs, out):
    warmup = args[1] if len(args) > 1 else kwargs.get("warmup_instructions", 0)
    tr.counts["cpu.sims"] += 1
    tr.counts["cpu.instructions"] += int(warmup) + out.instructions
    tr.counts["cpu.llc_hits"] += out.llc_hits
    tr.counts["cpu.llc_misses"] += out.llc_misses
    c = out.counters
    tr.counts["dram.data"] += c.data_reads + c.data_writes
    tr.counts["dram.ecc"] += c.ecc_reads + c.ecc_writes


def _count_native(tr, rec, args, kwargs, out):
    tr.counts["cpu.native_sims"] += 1


def _count_correct(base: bool):
    def hook(tr, rec, args, kwargs, out):
        if tr.parent_name(rec) != "ecc.correct":
            tr.counts["ecc.correct_calls"] += 1
            tr.counts["ecc.lines"] += len(args[1])
        if base:
            tr.counts["ecc.per_line_calls"] += 1

    return hook


def _count_encode_words(tr, rec, args, kwargs, out):
    tr.counts["gf.encode_words"] += _words(out)


def _count_decode_words(tr, rec, args, kwargs, out):
    tr.counts["gf.decode_words"] += _words(out.corrected)


def _count_dirty(native: bool):
    def hook(tr, rec, args, kwargs, out):
        didx = args[3]  # (rs|self, flat, synd, didx, setup) on both kernels
        tr.counts["gf.native_dirty" if native else "gf.numpy_dirty"] += int(didx.size)

    return hook


def _count_mc(tr, rec, args, kwargs, out):
    tr.counts["faults.trials"] += len(out.fractions)


def _count_write(tr, rec, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    tr.counts["util.cache_writes"] += 1
    tr.counts["util.cache_bytes_written"] += os.path.getsize(path)


def _wrap_tasks(tr: Tracer, run_tasks):
    """``run_tasks`` is a generator: time each resumption, not the consumer."""

    @functools.wraps(run_tasks)
    def wrapper(worker, payloads, *args, **kwargs):
        payloads = list(payloads)
        tr.counts["experiments.tasks"] += len(payloads)
        gen = run_tasks(worker, payloads, *args, **kwargs)
        try:
            while True:
                with tr.span("experiments.dispatch"):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item
        finally:
            gen.close()

    return wrapper


def _scheme_classes(base) -> "set[type]":
    """*base* and every class below it, each once."""
    seen, todo = {base}, [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return seen


def install(tr: Tracer) -> "list[str]":
    """Wrap every layer entry point on *tr*; returns the patched attribute names.

    Class methods are wrapped on the class that defines them, so every
    caller sees the wrapper however it reached the method.  Module-level
    functions are wrapped at each binding their callers look up: modules
    that did ``from x import f`` hold their own reference, which is patched
    there too (``runner.make_core_traces``, ``evaluation._write_cache_atomic``).
    """
    import repro.ecc  # noqa: F401  (imports every scheme module)
    import repro.experiments as experiments
    from repro.cpu import epochnative
    from repro.cpu.system import SimSystem
    from repro.dram.system import MemorySystem
    from repro.ecc.base import ECCScheme
    from repro.experiments import ablation, coverage, evaluation, parallel, runner
    from repro.faults import montecarlo
    from repro.gf import rsnative
    from repro.gf.reed_solomon import ReedSolomon
    from repro.util import cachefile
    from repro.workloads import generator

    patched: "list[str]" = []

    def patch(owner, attr, name, hook=None):
        setattr(owner, attr, tr.wrap(getattr(owner, attr), name, hook))
        where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
        patched.append(f"{where}.{attr}")

    # workloads: trace generation
    patch(generator.TraceStream, "take_batch", "workloads.trace", _count_refs)
    for owner in (generator, runner, ablation):
        patch(owner, "make_core_traces", "workloads.trace")
    # cpu: one span per simulation; the compiled core is counted inside it
    patch(SimSystem, "run", "cpu.sim", _count_sim)
    patch(epochnative, "run_native", "cpu.sim", _count_native)
    # dram: energy accounting
    patch(MemorySystem, "energy_since", "dram.energy")
    # ecc: every scheme's own encode/correct methods
    for cls in _scheme_classes(ECCScheme):
        for attr in ("compute_detection", "compute_correction"):
            fn = vars(cls).get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patch(cls, attr, "ecc.encode")
        if "correct_lines" in vars(cls):
            patch(cls, "correct_lines", "ecc.correct", _count_correct(cls is ECCScheme))
    # gf: the Reed-Solomon codec and its compiled decode core
    patch(ReedSolomon, "encode", "gf.encode", _count_encode_words)
    patch(ReedSolomon, "decode", "gf.decode", _count_decode_words)
    patch(ReedSolomon, "_decode_batch", "gf.decode", _count_dirty(native=False))
    patch(rsnative, "decode_batch", "gf.decode", _count_dirty(native=True))
    patch(ReedSolomon, "syndromes", "gf.syndromes")
    # faults: end-of-life Monte Carlo
    patch(montecarlo.EolCapacitySim, "run", "faults.mc", _count_mc)
    # util: cache-file I/O, at every binding
    for owner, write, read in (
        (cachefile, "write_json_cache_atomic", "load_json_cache"),
        (evaluation, "_write_cache_atomic", "_load_cache"),
    ):
        patch(owner, write, "util.cache_write", _count_write)
        patch(owner, read, "util.cache_read")
    # experiments: dispatch (generator), worker entries, report/driver functions
    parallel.run_tasks = _wrap_tasks(tr, parallel.run_tasks)
    patched.append("repro.experiments.parallel.run_tasks")
    patch(parallel, "_run_cell", "experiments.task")
    patch(coverage, "_coverage_cell", "experiments.task")
    patch(montecarlo, "_eol_cell", "experiments.task")
    for attr in (
        "epi_report", "perf_report", "traffic_report", "figure1_breakdown",
        "figure2", "figure8", "figure18", "table3", "format_table",
    ):
        patch(experiments, attr, "experiments.render")
    patch(coverage, "coverage_study", "experiments.render")
    patch(ablation, "xor_caching_ablation", "experiments.render")
    return patched


# -- per-layer metrics -----------------------------------------------------------------


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values, q: float) -> float:
    """The *q*-quantile of *values* by the nearest-rank rule (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    spans, counts, window: "tuple[int, int]", untraced_wall_s: float,
    outcomes: "dict[str, int]",
) -> "dict[str, float]":
    """Every per-layer metric of one traced run (see :data:`PER_LAYER_UNITS`)."""
    counts = Counter(counts)
    selfs, unattributed = self_times(spans, *window)
    wall_ns = window[1] - window[0]
    out = {metric: selfs.get(name, 0) / 1e9 for name, metric in SPAN_METRICS.items()}
    # The compiled core's span nests inside SimSystem.run: time outer spans only.
    sim_walls_ns = [
        end - start for name, start, end, parent in spans
        if name == "cpu.sim" and (parent < 0 or spans[parent][0] != "cpu.sim")
    ]
    sims = counts["cpu.sims"]
    sim_incl_ns = sum(sim_walls_ns)
    dram_total = counts["dram.data"] + counts["dram.ecc"]
    out.update({
        "workloads.refs": counts["workloads.refs"],
        "cpu.sims": sims,
        "cpu.native_share": _share(counts["cpu.native_sims"], sims),
        "cpu.host_ns_per_instr": _share(sim_incl_ns, counts["cpu.instructions"]),
        "cpu.sim_cell_p50_s": nearest_rank(sim_walls_ns, 0.50) / 1e9,
        "cpu.sim_cell_p95_s": nearest_rank(sim_walls_ns, 0.95) / 1e9,
        "cpu.llc_miss_rate": _share(
            counts["cpu.llc_misses"], counts["cpu.llc_misses"] + counts["cpu.llc_hits"]
        ),
        "dram.accesses": dram_total,
        "dram.ecc_share": _share(counts["dram.ecc"], dram_total),
        "ecc.lines": counts["ecc.lines"],
        "ecc.per_line_share": _share(counts["ecc.per_line_calls"], counts["ecc.correct_calls"]),
        "ecc.corrected": outcomes.get("corrected", 0),
        "ecc.detected": outcomes.get("detected", 0),
        "ecc.silent": outcomes.get("silent", 0),
        "gf.encode_words": counts["gf.encode_words"],
        "gf.decode_words": counts["gf.decode_words"],
        "gf.native_share": _share(
            counts["gf.native_dirty"], counts["gf.native_dirty"] + counts["gf.numpy_dirty"]
        ),
        "faults.trials": counts["faults.trials"],
        "util.cache_writes": counts["util.cache_writes"],
        "util.cache_bytes_written": counts["util.cache_bytes_written"],
        "experiments.tasks": counts["experiments.tasks"],
        "trace.overhead_frac": _share(wall_ns / 1e9, untraced_wall_s) - 1.0,
        "trace.unattributed_frac": _share(unattributed, wall_ns),
    })
    return out
