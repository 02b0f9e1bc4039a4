"""Resilience layer of the campaign engine.

The contract under test: transient worker failures are retried with a
bounded budget, exhausted tasks become structured failure records raised
in one ``CampaignError`` *after* every healthy task completed, per-task
timeouts reclaim hung workers by rebuilding the pool, cancellation
(abandoned generator / KeyboardInterrupt) cleans the pool up without
losing checkpointed work, and an interrupted campaign resumes from its
cache recomputing only the unfinished cells.
"""

import json
import os
import time

import pytest

import repro.experiments.evaluation as ev
from repro import obs
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.obs.summarize import read_events
from repro.util import envcfg
from repro.util.cachefile import load_json_cache, write_json_cache_atomic

TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(
    workloads=["streamcluster", "sjeng"],
    config_keys=["chipkill18", "lot_ecc5_ep"],
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad cell {x}")


def _boom_on_three(x):
    if x == 3:
        raise ValueError("cell 3 is cursed")
    return x * x


def _flaky(marker_dir, x):
    """Deterministically fails on its first call per (marker_dir, x)."""
    marker = os.path.join(marker_dir, f"marker-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient {x}")
    return x * x


def _slow_touch(out_dir, i, delay):
    """Sleep *delay* seconds, then leave a proof-of-execution file."""
    time.sleep(delay)
    with open(os.path.join(out_dir, f"task-{i}"), "w"):
        pass
    return i


#: Engine events that take a task out of flight: a result, a raised error,
#: an expired deadline, or a requeue after a pool break.
_SETTLED = ("engine.ok", "engine.error", "engine.timeout", "engine.requeue")


def _max_in_flight(events) -> int:
    """Peak of submitted-minus-settled tasks over an engine event stream."""
    live = peak = 0
    for e in events:
        if e["kind"] == "engine.submit":
            live += 1
            peak = max(peak, live)
        elif e["kind"] in _SETTLED:
            live -= 1
    return peak


@pytest.fixture
def armed(tmp_path):
    run = tmp_path / "engine-obs"
    obs.configure(run, "engine,chaos")
    yield run
    obs.disarm()
    obs.REGISTRY.reset()


class TestRetries:
    def test_serial_flaky_retried_in_order(self, tmp_path):
        out = list(
            parallel.run_tasks(
                _flaky, [(str(tmp_path), i) for i in range(5)], jobs=1, retries=1, backoff=0
            )
        )
        assert out == [0, 1, 4, 9, 16]

    def test_pooled_flaky_retried(self, tmp_path):
        out = list(
            parallel.run_tasks(
                _flaky, [(str(tmp_path), i) for i in range(6)], jobs=3, retries=2, backoff=0
            )
        )
        assert sorted(out) == [0, 1, 4, 9, 16, 25]

    def test_exhausted_budget_collected_as_failures(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(i,) for i in range(3)], jobs=1, retries=1, backoff=0))
        err = ei.value
        assert err.total == 3 and len(err.failures) == 3
        for f in err.failures:
            assert f.kind == "exception" and f.attempts == 2
            assert "ValueError: bad cell" in f.error
        assert {f.payload for f in err.failures} == {(0,), (1,), (2,)}
        assert "bad cell" in str(err)

    def test_healthy_tasks_complete_before_campaign_error(self):
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(
                _boom_on_three, [(i,) for i in range(6)], jobs=2, retries=1, backoff=0
            ):
                got.append(r)
        assert sorted(got) == [0, 1, 4, 16, 25]
        (f,) = ei.value.failures
        assert f.payload == (3,) and f.index == 3 and f.kind == "exception"

    def test_fail_fast_raises_task_error_with_payload(self):
        with pytest.raises(parallel.TaskError) as ei:
            list(parallel.run_tasks(_boom, [(7,)], jobs=1, retries=0, fail_fast=True))
        assert ei.value.failure.payload == (7,)
        assert "(7,)" in str(ei.value)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_zero_retries_single_attempt(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(parallel.run_tasks(_boom, [(0,), (1,)], jobs=1, retries=0, backoff=0))
        assert all(f.attempts == 1 for f in ei.value.failures)


class TestValidate:
    def test_invalid_result_retried_then_recorded(self):
        with pytest.raises(parallel.CampaignError) as ei:
            list(
                parallel.run_tasks(
                    _square, [(2,), (3,)], jobs=1, retries=1, backoff=0,
                    validate=lambda r: r != 9,
                )
            )
        (f,) = ei.value.failures
        assert f.kind == "corrupt" and f.payload == (3,) and f.attempts == 2

    def test_valid_results_pass_through(self):
        out = list(
            parallel.run_tasks(_square, [(i,) for i in range(4)], jobs=1, validate=lambda r: True)
        )
        assert out == [0, 1, 4, 9]


class TestTimeout:
    def test_hung_task_fails_others_complete(self, tmp_path):
        payloads = [(str(tmp_path), i, 20.0 if i == 1 else 0.0) for i in range(5)]
        t0 = time.monotonic()
        got = []
        with pytest.raises(parallel.CampaignError) as ei:
            for r in parallel.run_tasks(
                _slow_touch, payloads, jobs=2, timeout=0.5, retries=1, backoff=0
            ):
                got.append(r)
        assert sorted(got) == [0, 2, 3, 4]
        (f,) = ei.value.failures
        assert f.kind == "timeout" and f.index == 1 and f.attempts == 2
        assert "0.5" in f.error
        # Two timeout windows plus rebuilds, nowhere near the 20s sleep.
        assert time.monotonic() - t0 < 15.0

    def test_timeout_disabled_by_default(self, tmp_path):
        # a 0.7s task survives with no timeout configured
        out = list(parallel.run_tasks(_slow_touch, [(str(tmp_path), 0, 0.7), (str(tmp_path), 1, 0.0)], jobs=2))
        assert sorted(out) == [0, 1]


class TestDispatchPaths:
    def test_empty_payloads(self):
        assert list(parallel.run_tasks(_square, [])) == []

    def test_single_payload_stays_serial(self, armed):
        assert list(parallel.run_tasks(_square, [(3,)], jobs=4)) == [9]
        events = read_events(armed)
        starts = [e for e in events if e["kind"] == "engine.start"]
        assert starts[0]["path"] == "serial"


class TestSubmissionWindow:
    """Untimed campaigns keep two tasks per worker in flight; timed, one."""

    def test_untimed_window_is_two_per_worker(self, armed):
        out = list(parallel.run_tasks(_square, [(i,) for i in range(8)], jobs=2))
        assert sorted(out) == [i * i for i in range(8)]
        events = read_events(armed)
        kinds = [e["kind"] for e in events if e["kind"] in ("engine.submit", "engine.ok")]
        assert kinds[: kinds.index("engine.ok")] == ["engine.submit"] * 4
        assert _max_in_flight(events) == 4

    def test_timed_window_never_exceeds_jobs(self, armed):
        out = list(
            parallel.run_tasks(
                _square, [(i,) for i in range(8)], jobs=2, timeout=30,
                chaos="crash@1,corrupt@2", retries=2, backoff=0,
            )
        )
        assert sorted(out) == [i * i for i in range(8)]
        events = read_events(armed)
        assert any(e["kind"] == "engine.rebuild" for e in events)
        assert _max_in_flight(events) == 2


class TestEnvKnobs:
    def test_task_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert envcfg.task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert envcfg.task_timeout() is None
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert envcfg.task_timeout() is None

    def test_task_timeout_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert envcfg.task_timeout(7) == 7.0
        assert envcfg.task_timeout(0) is None  # explicit 0 disables

    @pytest.mark.parametrize("bad", ["soon", "-1"])
    def test_task_timeout_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", bad)
        with pytest.raises(ValueError):
            envcfg.task_timeout()

    def test_task_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        assert envcfg.task_retries() == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert envcfg.task_retries() == 5
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert envcfg.task_retries() == envcfg.DEFAULT_TASK_RETRIES

    @pytest.mark.parametrize("bad", ["-1", "lots"])
    def test_task_retries_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TASK_RETRIES", bad)
        with pytest.raises(ValueError):
            envcfg.task_retries()

    def test_shared_parser_reaches_jobs_and_trials(self, monkeypatch):
        """REPRO_JOBS and REPRO_MC_TRIALS route through the same helper."""
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert parallel.default_jobs() == 6
        assert envcfg.jobs(1) == 6
        monkeypatch.setenv("REPRO_MC_TRIALS", "123")
        assert envcfg.mc_trials(None, 20000) == 123


class TestCancellation:
    """The pre-existing cancellation path (satellite: previously untested)."""

    def test_abandoned_generator_cancels_pending_work(self, tmp_path):
        payloads = [(str(tmp_path), i, 0.2) for i in range(12)]
        gen = parallel.run_tasks(_slow_touch, payloads, jobs=2)
        next(gen)
        gen.close()  # GeneratorExit at the yield -> cancel_futures + pool kill
        time.sleep(1.0)  # anything still running would finish in this window
        done = [p for p in tmp_path.iterdir() if p.name.startswith("task-")]
        assert 1 <= len(done) < 12

    def test_keyboard_interrupt_propagates_and_finishes_generator(self, tmp_path):
        payloads = [(str(tmp_path), i, 0.05) for i in range(8)]
        gen = parallel.run_tasks(_slow_touch, payloads, jobs=2)
        next(gen)
        with pytest.raises(KeyboardInterrupt):
            gen.throw(KeyboardInterrupt)
        with pytest.raises(StopIteration):
            next(gen)

    def test_interrupted_matrix_checkpoints_and_resumes(self, tmp_path, monkeypatch):
        """A campaign killed mid-flight resumes from its checkpoint and
        recomputes only the unfinished cells."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        real_run_tasks = parallel.run_tasks

        def interrupted(*args, **kwargs):
            inner = real_run_tasks(*args, **kwargs)

            def wrapper():
                yield next(inner)  # let exactly one cell finish
                inner.close()
                raise KeyboardInterrupt

            return wrapper()

        monkeypatch.setattr(parallel, "run_tasks", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluation_matrix("quad", fidelity=TINY, jobs=2, **CELLS)

        cache_file = next(tmp_path.glob("matrix-*.json"))
        checkpointed = json.loads(cache_file.read_text())
        checkpointed.pop("__meta__")  # schema stamp, not a cell
        assert len(checkpointed) == 1  # exactly the finished cell survived

        # Resume: only the three unfinished cells are simulated.
        monkeypatch.setattr(parallel, "run_tasks", real_run_tasks)
        simulated = []
        real_cell = parallel._run_cell

        def counting(*args):
            simulated.append(f"{args[1]}|{args[2]}")
            return real_cell(*args)

        monkeypatch.setattr(parallel, "_run_cell", counting)
        resumed = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert len(simulated) == 3
        all_keys = {f"{w}|{k}" for w in CELLS["workloads"] for k in CELLS["config_keys"]}
        assert set(simulated) | set(checkpointed) == all_keys
        assert not (set(simulated) & set(checkpointed))

        # And the resumed matrix equals an uninterrupted serial run.
        monkeypatch.setattr(parallel, "_run_cell", real_cell)
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "fresh")
        fresh = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert resumed == fresh


class TestCacheMerge:
    """Merge-on-write hardening of the shared checkpoint files."""

    def test_concurrent_campaigns_keep_each_others_cells(self, tmp_path):
        # Interleaved read-modify-write of two campaigns sharing one file:
        # before merge-on-write the second writer dropped the first's cell.
        path = tmp_path / "matrix.json"
        a = load_json_cache(path)
        b = load_json_cache(path)  # both campaigns start from a cold file
        a["wl1|cfg"] = {"epi": 1}
        write_json_cache_atomic(path, a)
        b["wl2|cfg"] = {"epi": 2}
        write_json_cache_atomic(path, b)
        assert load_json_cache(path) == {"wl1|cfg": {"epi": 1}, "wl2|cfg": {"epi": 2}}

    def test_writer_wins_per_key(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1, "b": 1})
        write_json_cache_atomic(path, {"b": 2})
        assert load_json_cache(path) == {"a": 1, "b": 2}

    def test_merge_tolerates_corrupt_disk(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"torn": ')
        write_json_cache_atomic(path, {"a": 1})
        assert load_json_cache(path) == {"a": 1}
        # The corrupt original was quarantined, not merged; no temp litter.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["c.json", "c.json.quarantine"]
        assert any((tmp_path / "c.json.quarantine").iterdir())

    def test_interrupted_write_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        with pytest.raises(TypeError):  # aborts mid-write, before the rename
            write_json_cache_atomic(path, {"b": object()})
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        assert load_json_cache(path) == {"a": 1}  # old checkpoint intact

    def test_caller_dict_not_mutated(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"a": 1})
        mine = {"b": 2}
        write_json_cache_atomic(path, mine)
        assert mine == {"b": 2}
