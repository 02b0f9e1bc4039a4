"""Per-task dispatch overhead of the parallel engine.

Not a paper figure - this isolates the fixed cost the campaign engine
adds around each task: submit bookkeeping, payload pickling, and result
transport.  The worker itself is a no-op, so the measured wall-clock is
almost purely engine overhead, reported as microseconds per task for the
two dispatch paths:

- ``serial``   - in-process loop, no executor;
- ``pooled``   - process pool, one task per future, two in flight per
  worker.

Numbers land in ``results/BENCH_dispatch_overhead.json`` (plus a
rendered table) so CI can archive them per commit.

``REPRO_BENCH_QUICK=1`` (used by CI) shrinks the task count so the file
finishes in seconds; the acceptance numbers come from an unloaded run
without the flag.
"""

import os
import time

from conftest import merge_results, once

from repro.experiments import parallel
from repro.experiments.report import format_table

QUICK_MODE = bool(os.environ.get("REPRO_BENCH_QUICK"))

TASKS = 200 if QUICK_MODE else 1_000
JOBS = 2

#: Payload/result shapes roughly matching a Monte Carlo cell: a small
#: tuple in, a small tuple of scalars out, so serialization is not the
#: story.
PAYLOADS = [(i, 61320.0, 1 << 16) for i in range(TASKS)]


def _noop_cell(index, hours, devices):
    return (index, hours * 0.0, devices, 0.0)


def _merge_results(results_dir, **fields):
    merge_results(results_dir, "BENCH_dispatch_overhead.json", **fields)


def _campaign_wall(jobs):
    t0 = time.perf_counter()
    out = list(parallel.run_tasks(_noop_cell, PAYLOADS, jobs=jobs))
    wall = time.perf_counter() - t0
    assert len(out) == TASKS
    return wall


def bench_dispatch_overhead(benchmark, results_dir, emit):
    """Microseconds of engine overhead per no-op task, by dispatch path."""

    def measure():
        return _campaign_wall(1), _campaign_wall(JOBS)

    serial, pooled = once(benchmark, measure)

    def us_per_task(wall):
        return wall / TASKS * 1e6

    sections = {"serial": serial, "pooled": pooled}
    _merge_results(
        results_dir,
        **{
            name: {
                "tasks": TASKS,
                "jobs": 1 if name == "serial" else JOBS,
                "wall_s": round(wall, 4),
                "us_per_task": round(us_per_task(wall), 1),
                "quick_mode": QUICK_MODE,
            }
            for name, wall in sections.items()
        },
    )
    emit(
        "bench_dispatch_overhead",
        format_table(
            ["path", "tasks", "wall s", "us / task"],
            [
                [name, f"{TASKS}", f"{wall:.3f}", f"{us_per_task(wall):,.1f}"]
                for name, wall in sections.items()
            ],
            title=f"Engine dispatch overhead (no-op worker, jobs={JOBS})",
        ),
    )
    assert serial > 0 and pooled > 0
