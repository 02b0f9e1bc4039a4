"""Resilient, granularity-aware process-parallel fan-out of campaign tasks.

Every campaign cell (evaluation-matrix cells, Monte Carlo fig8 / coverage /
collision cells) is an independent, deterministic simulation: workers
receive only primitives, rebuild their inputs, and seed themselves, so a
task's result never depends on which process ran it and a parallel
campaign is bit-identical to a serial one.  :func:`run_tasks` is the
generic engine; :func:`keyed_campaign` puts a per-key JSON checkpoint in
front of it and is the runner every cached campaign driver goes through
(the evaluation matrix, fig8 EOL, rare-event shards, coverage, collision).

At production scale (1M-trial campaigns, full 16-workload sweeps) partial
failure is the common case, so the engine wraps the fan-out in a
resilience layer:

* **Bounded retry with exponential backoff** — a worker exception consumes
  one attempt; the task is resubmitted up to ``retries``
  (``REPRO_TASK_RETRIES``, default 2) times before being recorded as a
  structured :class:`TaskFailure`.
* **Per-task timeout** — with ``timeout`` (``REPRO_TASK_TIMEOUT``) set, a
  task that produces no result within the window is presumed hung; the
  only way to reclaim a hung worker is to kill its pool, so the pool is
  torn down, the timed-out task is charged an attempt, and everything
  in flight is requeued.
* **Pool rebuild on ``BrokenProcessPool``** — an OOM-killed or crashed
  worker takes the whole executor down; the engine kills the broken pool,
  requeues all in-flight tasks under a new attempt number (the culprit is
  unknowable, so nobody's retry budget is charged), and rebuilds.  Once a
  worker is seen dead the engine submits nothing more to its pool, even
  before the executor itself has noticed.
* **Graceful degradation to serial** — when the pool breaks
  :data:`REBUILD_LIMIT` times consecutively (no task resolved in between)
  or :data:`REBUILD_TOTAL_LIMIT` times overall, the engine stops fighting
  and finishes the remaining tasks in-process.
* **Failure records at campaign end** — failed tasks no longer abort the
  campaign: every other task still completes (and is checkpointed by the
  caller as it streams back), then a :class:`CampaignError` carrying every
  :class:`TaskFailure` (payload identity, attempts, error) is raised, so a
  rerun recomputes only the failed cells.

On top of the resilience layer sits a **two-deep submission window**: a
matrix cell takes tens of milliseconds, so a worker that waits for the
parent to settle its last result and submit the next one idles for a
visible share of its time.  With no ``timeout`` armed the engine keeps
``2 * jobs`` submissions in flight, so every worker has its next task
queued while the parent round-trips the last; with a timeout it keeps
``jobs``, so a deadline measures run time, not queue time.  Workers are
kept *warm*: a pool initializer (re-applied on every rebuild) pre-imports
the sim stack and primes per-process caches, so rebuilt pools do not pay
cold-start per cell.

Because workers are pure and retried/requeued tasks are simply re-executed
from the same primitives, every recovery path yields the same bytes as a
fault-free run — the serial == parallel determinism contract survives
retries, rebuilds, and degradation.  The deterministic fault injector in
:mod:`repro.util.chaos` (armed via ``REPRO_CHAOS`` or the ``chaos``
argument) exists to prove exactly that in tests: faults are injected only
into pool workers, never into the serial/degraded in-process path.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.obs import trace
from repro.ecc.catalog import SYSTEM_CLASSES
from repro.experiments import evaluation
from repro.experiments.runner import RunSpec, run
from repro.util import cachefile
from repro.util import chaos as chaos_mod
from repro.util import envcfg
from repro.workloads.profiles import WORKLOADS_BY_NAME

#: Base delay (seconds) of the exponential retry backoff; attempt *k*
#: sleeps ``backoff * 2**(k-1)`` capped at :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Consecutive pool rebuilds (no task resolved in between) before the
#: engine degrades to serial in-process execution.
REBUILD_LIMIT = 2

#: Total pool rebuilds in one campaign before degrading, whatever the
#: progress in between — bounds a persistent crasher that lets other
#: tasks finish between rebuilds.
REBUILD_TOTAL_LIMIT = 5

def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the machine's CPU count."""
    return envcfg.jobs(os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that exhausted its attempt budget."""

    index: int  #: position in the campaign's payload list
    payload: tuple  #: the originating payload (cell identity)
    attempts: int  #: attempts consumed when the task was given up
    kind: str  #: "exception" | "timeout" | "corrupt"
    error: str  #: rendered final error
    cause: "BaseException | None" = field(default=None, repr=False, compare=False)


class TaskError(RuntimeError):
    """A worker failure wrapped with the identity of the task that raised it.

    Raised immediately (``fail_fast=True``) instead of being collected, so
    the failing cell is identifiable without rerunning the sweep.
    """

    def __init__(self, failure: TaskFailure):
        self.failure = failure
        super().__init__(
            f"task #{failure.index} {failure.payload!r} failed after "
            f"{failure.attempts} attempt(s) [{failure.kind}]: {failure.error}"
        )


class CampaignError(RuntimeError):
    """Raised at campaign end when tasks failed; carries every failure record.

    By the time this is raised every other task has completed and been
    yielded (and checkpointed by callers that cache), so a rerun recomputes
    only the cells listed here.
    """

    def __init__(self, failures: "list[TaskFailure]", total: int):
        self.failures = list(failures)
        self.total = total
        lines = "\n".join(
            f"  - task #{f.index} {f.payload!r}: {f.kind} after "
            f"{f.attempts} attempt(s): {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)}/{total} campaign task(s) failed after retries:\n{lines}"
        )


def _emit(kind: str, **fields) -> None:
    """Engine telemetry: event + matching counter, no-op unless armed.

    All engine events are per-task (not per-simulated-event), so the
    armed-path cost is irrelevant; the disarmed path is one mode check.
    """
    if not obs.enabled("engine"):
        return
    obs.REGISTRY.counter(kind).inc()
    obs.emit(kind, **fields)


@dataclass(frozen=True)
class _WorkerReport:
    """Worker-side attribution shipped back alongside every pooled result."""

    pid: int
    wall_s: float


def _obs_task(cfg, chaos, worker, index, attempt, payload):
    """Worker entry point for every pooled task.

    Arms the worker's telemetry to the parent's config (*cfg*, picklable;
    fork workers inherit the sink and this is a no-op; the shipped trace
    context makes the task span a child of the dispatching campaign),
    applies chaos when armed, and wraps the result in a
    ``(_WorkerReport, result)`` envelope so per-worker attribution flows
    back through the pool.  Exceptions (and ``crash`` faults) propagate
    unwrapped, exactly as before.
    """
    obs.ensure_worker(cfg)
    t0 = time.perf_counter()
    with trace.span("engine.task", "compute", index=index, attempt=attempt):
        if chaos:
            result = chaos_mod.chaos_call(chaos, worker, index, attempt, payload)
        else:
            result = worker(*payload)
    return _WorkerReport(os.getpid(), round(time.perf_counter() - t0, 6)), result


def _apply_warm(warm) -> None:
    """Run a campaign's warm hint; warming is best-effort, never load-bearing."""
    if not warm:
        return
    fn, args = warm
    try:
        fn(*args)
    except Exception:
        pass


def _pool_init(cfg, warm) -> None:
    """Pool initializer: arm telemetry and pre-warm every (re)built worker.

    Under the fork start method workers already inherit the parent's
    imports and caches (the parent runs the warm hint before building the
    first pool); this keeps spawned workers and post-rebuild pools equally
    warm.
    """
    obs.ensure_worker(cfg)
    _apply_warm(warm)


def _warm_cells(system_class, config_keys, scale) -> None:
    """Warm hint for evaluation-matrix campaigns.

    Pre-imports the simulation stack, compiles/loads the native epoch core
    once (instead of per worker per cell), and primes the per-process LLC
    pool for every cache geometry the sweep will touch.
    """
    from repro.cpu import epochnative
    from repro.experiments import runner

    epochnative.available()
    for key in config_keys:
        scheme = SYSTEM_CLASSES[system_class][key].make_scheme()
        runner._pooled_llc(runner.llc_size_bytes(scale), scheme.line_size)


def _unwrap(value) -> "tuple[_WorkerReport | None, object]":
    """Split a pooled result envelope; tolerate a bare value defensively."""
    if type(value) is tuple and len(value) == 2 and isinstance(value[0], _WorkerReport):
        return value
    return None, value


def _record(failures, index, payload, attempts, kind, exc, fail_fast):
    failure = TaskFailure(
        index=index,
        payload=payload,
        attempts=attempts,
        kind=kind,
        error=f"{type(exc).__name__}: {exc}",
        cause=exc,
    )
    if fail_fast:
        raise TaskError(failure) from exc
    failures.append(failure)


def _result_ok(result, validate) -> bool:
    if isinstance(result, chaos_mod.Corrupted):
        return False
    return validate is None or bool(validate(result))


def _backoff_sleep(backoff: float, attempt: int) -> None:
    if backoff > 0:
        with trace.span("engine.backoff", "retry", attempt=attempt):
            time.sleep(min(BACKOFF_CAP, backoff * (2 ** (attempt - 1))))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting: cancel queued work, kill workers.

    A hung or crashed worker never drains the call queue, so a waiting
    shutdown could block forever; the worker processes are terminated
    directly (the private ``_processes`` map is the only handle the
    executor exposes).
    """
    procs = getattr(pool, "_processes", None)
    procs = list(procs.values()) if procs else []
    pool.shutdown(wait=False, cancel_futures=True)
    for p in procs:
        try:
            p.terminate()
        except Exception:
            pass
    for p in procs:
        try:
            p.join(timeout=5.0)
        except Exception:
            pass


def _workers_alive(pool: ProcessPoolExecutor) -> bool:
    """False once any worker process of *pool* has exited.

    The executor marks itself broken only when its manager thread gets to
    the dead worker's sentinel, and it serves pending results first, so a
    task submitted in between is lost with the pool and requeued under a
    new attempt number without ever having run.
    """
    procs = getattr(pool, "_processes", None)
    return all(p.is_alive() for p in (list(procs.values()) if procs else ()))


def _submit(pool, worker, payload, index, attempt, chaos):
    return pool.submit(_obs_task, obs.worker_config(), chaos, worker, index, attempt, payload)


def _collect(fut) -> "tuple[str, object]":
    """Classify a future: ("ok", result) | ("error", exc) | ("broken", exc).

    "broken" means the pool died under the task (or cancelled it) — the
    task itself is not at fault and is requeued without charging its retry
    budget.
    """
    if not fut.done():
        return "broken", RuntimeError("worker still running when its pool died")
    if fut.cancelled():
        return "broken", RuntimeError("task cancelled by pool teardown")
    exc = fut.exception()
    if exc is None:
        return "ok", fut.result()
    if isinstance(exc, BrokenProcessPool):
        return "broken", exc
    return "error", exc


def _run_serial(worker, payloads, tasks, retries, backoff, validate, failures, charged, fail_fast):
    """In-process execution with the same retry/validation contract.

    *tasks* is a list of ``(index, first_attempt)`` pairs — the degraded
    path hands over tasks mid-campaign with their attempt count intact.
    Every task is executed at least once regardless of the attempt it
    arrives with; *charged* counts each task's failed attempts, and a task
    is given up once that count exceeds *retries*.  No chaos, no timeout:
    this is the reference path.  Yields ``(index, result)`` pairs like
    every engine path.
    """
    for index, attempt in tasks:
        payload = payloads[index]
        while True:
            _emit("engine.submit", index=index, attempt=attempt, path="serial")
            t0 = time.perf_counter()
            try:
                with trace.span("engine.task", "compute", index=index, attempt=attempt):
                    result = worker(*payload)
            except Exception as exc:
                _emit(
                    "engine.error",
                    index=index,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
                charged[index] += 1
                if charged[index] > retries:
                    _emit("engine.fail", index=index, attempts=attempt, reason="exception")
                    _record(failures, index, payload, attempt, "exception", exc, fail_fast)
                    break
                _emit("engine.retry", index=index, attempt=attempt + 1, reason="exception")
                _backoff_sleep(backoff, attempt)
                attempt += 1
                continue
            if not _result_ok(result, validate):
                _emit("engine.error", index=index, attempt=attempt, error="invalid result")
                charged[index] += 1
                if charged[index] > retries:
                    exc = ValueError(f"invalid result: {result!r}")
                    _emit("engine.fail", index=index, attempts=attempt, reason="corrupt")
                    _record(failures, index, payload, attempt, "corrupt", exc, fail_fast)
                    break
                _emit("engine.retry", index=index, attempt=attempt + 1, reason="corrupt")
                _backoff_sleep(backoff, attempt)
                attempt += 1
                continue
            wall = round(time.perf_counter() - t0, 6)
            if obs.enabled("engine"):
                obs.REGISTRY.timer("engine.task").observe(wall)
            _emit(
                "engine.ok", index=index, attempt=attempt, worker_pid=os.getpid(), wall_s=wall
            )
            yield index, result
            break


def _run_pooled(
    worker,
    payloads,
    jobs,
    timeout,
    retries,
    backoff,
    validate,
    chaos,
    failures,
    charged,
    fail_fast,
    warm,
):
    """The pooled engine: windowed submission, deadlines, rebuilds.

    Yields ``(index, result)`` pairs.  ``inflight`` maps each submitted
    future to its ``(index, attempt, deadline)``.  An exception, an invalid
    result or an expired deadline adds one to the task's *charged* count;
    a requeue after a pool break does not, because the culprit of a break
    is unknowable.
    """
    # Two submissions per worker keep each one fed while the parent settles
    # a result; with a deadline armed, one each, so it times the task itself.
    window = jobs if timeout else 2 * jobs
    pending = deque((i, 1) for i in range(len(payloads)))
    inflight: "dict[object, tuple[int, int, float | None]]" = {}
    consecutive_rebuilds = 0
    total_rebuilds = 0

    def _settle_ok(index, attempt, value, report) -> bool:
        """A result arrived: validate and account; True when it is yieldable."""
        nonlocal consecutive_rebuilds
        if _result_ok(value, validate):
            consecutive_rebuilds = 0
            wall = report.wall_s if report else None
            if wall is not None and obs.enabled("engine"):
                obs.REGISTRY.timer("engine.task").observe(wall)
            pid = report.pid if report else None
            _emit("engine.ok", index=index, attempt=attempt, worker_pid=pid, wall_s=wall)
            return True
        _emit("engine.error", index=index, attempt=attempt, error="invalid result")
        charged[index] += 1
        if charged[index] > retries:
            exc = ValueError(f"invalid result: {value!r}")
            _emit("engine.fail", index=index, attempts=attempt, reason="corrupt")
            _record(failures, index, payloads[index], attempt, "corrupt", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="corrupt")
            _backoff_sleep(backoff, attempt)
            pending.append((index, attempt + 1))
        return False

    def _settle_error(index, attempt, exc):
        """The task raised: charge an attempt, retry or record."""
        nonlocal consecutive_rebuilds
        _emit(
            "engine.error",
            index=index,
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
        )
        charged[index] += 1
        if charged[index] > retries:
            _emit("engine.fail", index=index, attempts=attempt, reason="exception")
            _record(failures, index, payloads[index], attempt, "exception", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="exception")
            _backoff_sleep(backoff, attempt)
            pending.append((index, attempt + 1))

    def _charge_timeout(index, attempt):
        nonlocal consecutive_rebuilds
        _emit("engine.timeout", index=index, attempt=attempt, timeout_s=timeout)
        charged[index] += 1
        if charged[index] > retries:
            exc = TimeoutError(f"no result within {timeout:g}s")
            _emit("engine.fail", index=index, attempts=attempt, reason="timeout")
            _record(failures, index, payloads[index], attempt, "timeout", exc, fail_fast)
            consecutive_rebuilds = 0
        else:
            _emit("engine.retry", index=index, attempt=attempt + 1, reason="timeout")
            pending.append((index, attempt + 1))

    def _requeue(index, attempt):
        _emit("engine.requeue", index=index, attempt=attempt)
        pending.append((index, attempt + 1))

    _apply_warm(warm)  # under fork, workers inherit the warmed parent
    pool_args = dict(initializer=_pool_init, initargs=(obs.worker_config(), warm))
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)), **pool_args)
    try:
        while pending or inflight:
            # 1. Refill the submission window, unless a worker already died.
            broken = (
                pool is not None
                and bool(pending)
                and len(inflight) < window
                and not _workers_alive(pool)
            )
            while not broken and pool is not None and pending and len(inflight) < window:
                index, attempt = pending.popleft()
                try:
                    fut = _submit(pool, worker, payloads[index], index, attempt, chaos)
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft((index, attempt))
                    broken = True
                    break
                _emit("engine.submit", index=index, attempt=attempt, path="pooled")
                deadline = (time.monotonic() + timeout) if timeout else None
                inflight[fut] = (index, attempt, deadline)

            # 2. Wait for completions, bounded by the nearest deadline.
            done = ()
            if not broken and inflight:
                wait_s = None
                if timeout:
                    nearest = min(deadline for _, _, deadline in inflight.values())
                    wait_s = max(0.0, nearest - time.monotonic())
                done, _ = wait(list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED)

            # 3. Settle finished futures.
            for fut in done:
                index, attempt, _ = inflight.pop(fut)
                status, value = _collect(fut)
                if status == "broken":
                    broken = True
                    _requeue(index, attempt)
                elif status == "error":
                    _settle_error(index, attempt, value)
                else:
                    report, value = _unwrap(value)
                    if _settle_ok(index, attempt, value, report):
                        yield index, value

            # 4. Expire deadlines: a hung worker never completes on its own,
            #    and the only way to reclaim it is to rebuild the pool.
            if not broken and timeout and inflight:
                now = time.monotonic()
                expired = [
                    f
                    for f, (_, _, deadline) in inflight.items()
                    if deadline <= now and not f.done()
                ]
                if expired:
                    broken = True
                    for fut in expired:
                        index, attempt, _ = inflight.pop(fut)
                        _charge_timeout(index, attempt)

            # 5. Rebuild the pool, or degrade to serial when it keeps dying.
            if broken:
                for fut, (index, attempt, _) in inflight.items():
                    status, value = _collect(fut)
                    report, value = _unwrap(value)
                    if status == "ok" and _result_ok(value, validate):
                        # Completed in the teardown race window: don't redo it.
                        _settle_ok(index, attempt, value, report)
                        yield index, value
                    else:
                        _requeue(index, attempt)
                inflight.clear()
                rebuild_span = trace.start_span("engine.rebuild", "retry", pending=len(pending))
                _kill_pool(pool)
                pool = None
                consecutive_rebuilds += 1
                total_rebuilds += 1
                _emit(
                    "engine.rebuild",
                    consecutive=consecutive_rebuilds,
                    total=total_rebuilds,
                    pending=len(pending),
                )
                if (
                    consecutive_rebuilds >= REBUILD_LIMIT
                    or total_rebuilds >= REBUILD_TOTAL_LIMIT
                ):
                    tasks = list(pending)
                    pending.clear()
                    rebuild_span.end(degraded=True)
                    _emit("engine.degrade", remaining=len(tasks), rebuilds=total_rebuilds)
                    yield from _run_serial(
                        worker, payloads, tasks, retries, backoff, validate,
                        failures, charged, fail_fast,
                    )
                    return
                if pending:
                    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)), **pool_args)
                rebuild_span.end()
    except BaseException:
        # Ctrl-C or an abandoned generator: drop pending work and return
        # without blocking on the pool - results already yielded were merged
        # (and cached) by the caller, so the campaign resumes where it
        # stopped.
        if pool is not None:
            _kill_pool(pool)
        raise
    if pool is not None:
        pool.shutdown()


def run_tasks(
    worker,
    payloads: "Iterable[tuple]",
    jobs: "int | None" = None,
    *,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: "float | None" = None,
    validate: "Callable[[object], bool] | None" = None,
    chaos: "str | None" = None,
    fail_fast: bool = False,
    warm: "tuple | None" = None,
    yield_index: bool = False,
) -> "Iterator":
    """Fan *worker(*payload)* over processes, yielding results as they finish.

    The generic resilient engine under every campaign driver: *worker* must
    be a module-level function taking only primitives, so payloads pickle
    cleanly and a task's result never depends on which process ran it.
    With ``jobs == 1`` or a single payload everything runs in-process, in
    order — no executor, no pickling — keeping the serial path the
    reference behaviour.

    Resilience knobs (see the module docstring for semantics):

    * *timeout* — per-task seconds (default ``REPRO_TASK_TIMEOUT``; unset
      disables; ``0`` disables explicitly).  Pool path only; with a timeout
      armed the engine keeps only *jobs* tasks in flight.
    * *retries* — failed attempts a task may have beyond the first before
      it is given up (default ``REPRO_TASK_RETRIES``, else 2); a requeue
      after a pool break is not a failed attempt.
    * *backoff* — base seconds of the exponential retry backoff (default
      :data:`BACKOFF_BASE`; pass ``0`` to disable sleeping in tests).
    * *validate* — optional predicate over results; a falsy verdict counts
      as a failed attempt (kind ``corrupt``).
    * *chaos* — a :mod:`repro.util.chaos` spec string (default
      ``REPRO_CHAOS``); injected into pool workers only.
    * *fail_fast* — raise :class:`TaskError` on the first exhausted task
      instead of collecting failures into a :class:`CampaignError`.
    * *warm* — optional ``(function, args)`` warm hint, applied in the
      parent before the first pool (fork workers inherit it) and as the
      initializer of every built or rebuilt pool.
    * *yield_index* — yield ``(payload_index, result)`` pairs instead of
      bare results, so a caller (:func:`keyed_campaign`) can attribute
      each completion-ordered result to its task.

    Tasks that exhaust their budget are reported in one
    :class:`CampaignError` raised *after* every other task has been
    yielded; callers that checkpoint per result therefore resume with only
    the failed cells missing.
    """
    payloads = [tuple(p) for p in payloads]
    if jobs is None:
        jobs = default_jobs()
    timeout = envcfg.task_timeout(timeout)
    retries = envcfg.task_retries(retries)
    if backoff is None:
        backoff = BACKOFF_BASE
    if chaos is None:
        chaos = chaos_mod.from_env()
    failures: "list[TaskFailure]" = []
    charged = [0] * len(payloads)  # failed attempts per task
    serial = jobs == 1 or len(payloads) <= 1
    if obs.enabled("engine"):
        obs.ensure_manifest()
    campaign_span = trace.start_span(
        "engine.campaign",
        "dispatch",
        tasks=len(payloads),
        jobs=jobs,
        path="serial" if serial else "pooled",
    )
    _emit(
        "engine.start",
        tasks=len(payloads),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        chaos=chaos,
        path="serial" if serial else "pooled",
    )
    t0 = time.perf_counter()
    if serial:
        inner = _run_serial(
            worker,
            payloads,
            [(i, 1) for i in range(len(payloads))],
            retries,
            backoff,
            validate,
            failures,
            charged,
            fail_fast,
        )
    else:
        inner = _run_pooled(
            worker,
            payloads,
            jobs,
            timeout,
            retries,
            backoff,
            validate,
            chaos,
            failures,
            charged,
            fail_fast,
            warm,
        )
    ok = 0
    try:
        for index, result in inner:
            ok += 1
            yield (index, result) if yield_index else result
        _emit(
            "engine.done",
            tasks=len(payloads),
            ok=ok,
            failed=len(failures),
            wall_s=round(time.perf_counter() - t0, 6),
        )
    finally:
        # Generators may be abandoned mid-campaign (Ctrl-C, fail_fast):
        # the span must still close so the forest stays complete.
        campaign_span.end(ok=ok, failed=len(failures))
    if failures:
        raise CampaignError(failures, len(payloads)) from failures[0].cause


def keyed_campaign(
    cache_path: "Path | None",
    tasks: "dict[str, tuple]",
    worker,
    jobs: "int | None" = None,
    *,
    valid: "Callable[[object], bool] | None" = None,
    store: "Callable[[object], object] | None" = None,
    before_run: "Callable[[list[str]], object] | None" = None,
    **options,
) -> "Iterator[tuple[str, object]]":
    """Run a ``{key: payload}`` campaign behind a per-key JSON checkpoint.

    The one runner under every cached campaign driver.  Yields
    ``(key, value)`` first for each key whose entry in the JSON cache at
    *cache_path* is present and passes *valid* (the driver's entry-shape
    check; by default any entry counts), then for each missing key as the
    engine finishes it, in completion order.  *value* is ``store(result)``
    for a fresh *worker(*payload)* result (the result itself when *store*
    is ``None``), so cached and fresh values have the same shape.

    Every fresh value is merged into the cache file and flushed atomically
    (:func:`repro.util.cachefile.write_json_cache_atomic`) before it is
    yielded, so a driver killed or interrupted at any point resumes with
    only the unsettled keys missing.  The campaign's keys are written in
    task order, so the finished file does not depend on completion order.
    With *cache_path* ``None`` nothing is read or written.

    *before_run*, if given, is called with the list of missing keys after
    the cached entries have been yielded and before the engine starts;
    returning ``False`` ends the campaign there.  The engine
    (:func:`run_tasks`, with *jobs* and *options*) runs only when keys are
    missing.  Breaking out of the loop abandons the rest of the campaign,
    which cancels pending tasks.
    """
    cache = cachefile.load_json_cache(cache_path) if cache_path is not None else {}
    missing = []
    for key in tasks:
        if key in cache and (valid is None or valid(cache[key])):
            yield key, cache[key]
        else:
            missing.append(key)
    if before_run is not None and before_run(missing) is False:
        return
    if not missing:
        return
    payloads = [tasks[key] for key in missing]
    for index, result in run_tasks(worker, payloads, jobs=jobs, yield_index=True, **options):
        key = missing[index]
        value = result if store is None else store(result)
        if cache_path is not None:
            cache[key] = value
            # Keys in task order, not completion order, so a parallel
            # campaign leaves the same bytes on disk as a serial one.
            ordered = {k: cache[k] for k in tasks if k in cache}
            cachefile.write_json_cache_atomic(cache_path, {**ordered, **cache})
        yield key, value


def _run_cell(
    system_class: str,
    wl_name: str,
    config_key: str,
    scale: int,
    access_target: int,
    seed: int,
) -> "tuple[str, str, dict]":
    """Worker entry point: simulate one cell rebuilt from primitives.

    Module-level (picklable) and pure: the RunSpec is reconstructed from the
    same formula the serial path uses, and the simulation seeds itself from
    *seed*, so results do not depend on which process ran the cell.
    """
    wl = WORKLOADS_BY_NAME[wl_name]
    instructions = evaluation.instruction_budget(access_target, wl)
    spec = RunSpec(
        wl,
        SYSTEM_CLASSES[system_class][config_key],
        warmup_instructions=instructions,
        measure_instructions=instructions,
        seed=seed,
        scale=scale,
    )
    return wl_name, config_key, asdict(evaluation._cell_from_result(run(spec)))


def _cell_payload(system_class, wl_name, config_key, fidelity, seed) -> tuple:
    """The :func:`_run_cell` payload of one evaluation-matrix cell."""
    return (system_class, wl_name, config_key, fidelity.scale, fidelity.access_target, seed)


def _cells_warm(system_class, config_keys, fidelity) -> tuple:
    """The warm hint of a matrix campaign over *config_keys*."""
    return (_warm_cells, (system_class, tuple(sorted(set(config_keys))), fidelity.scale))
