"""The keyed campaign runner and the five drivers that go through it.

:func:`repro.experiments.parallel.keyed_campaign` is the one runner behind
every cached campaign: it yields valid cached entries, runs only the
missing keys, and checkpoints each fresh result before yielding it.  The
parametrised resume test drops one checkpointed key from each driver's
cache and asserts that exactly that key is recomputed and that the
resumed output equals the cold run.
"""

import json
import time

import pytest

from repro import obs
from repro.ecc import Chipkill18, Chipkill36
from repro.experiments import collision, coverage, evaluation, parallel
from repro.experiments.collision import two_fault_collision_mc
from repro.experiments.coverage import coverage_study
from repro.experiments.evaluation import Fidelity, evaluation_matrix
from repro.faults import montecarlo, rareevent
from repro.faults.montecarlo import eol_fraction_by_channels
from repro.faults.rareevent import sharded_estimate
from repro.obs.summarize import read_events
from repro.util.cachefile import load_json_cache, write_json_cache_atomic


def _square(x):
    return x * x


def _late_square(x, delay):
    time.sleep(delay)
    return x * x


def _engine_tasks(run_dir) -> "list[int]":
    return [e["tasks"] for e in read_events(run_dir) if e["kind"] == "engine.start"]


class TestKeyedCampaign:
    TASKS = {f"k{i}": (i,) for i in range(4)}

    def test_cold_run_checkpoints_every_key(self, tmp_path):
        path = tmp_path / "c.json"
        got = dict(parallel.keyed_campaign(path, self.TASKS, _square, jobs=1))
        assert got == {f"k{i}": i * i for i in range(4)}
        assert load_json_cache(path) == got

    def test_cached_entries_first_then_only_missing(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"k2": 4, "k0": "bad", "other": 1})
        ran = []
        order = []

        def start(missing):
            ran.extend(missing)

        for key, value in parallel.keyed_campaign(
            path, self.TASKS, _square, jobs=1,
            valid=lambda v: isinstance(v, int), before_run=start,
        ):
            order.append((key, value, list(ran)))
        # k2 is served from the cache before the engine starts; k0's entry
        # fails the shape check and is recomputed with the missing keys.
        assert order[0] == ("k2", 4, [])
        assert ran == ["k0", "k1", "k3"]
        assert sorted(order[1:]) == [("k0", 0, ran), ("k1", 1, ran), ("k3", 9, ran)]
        # Merge-on-write keeps the foreign key; the bad entry is replaced.
        assert load_json_cache(path) == {"k2": 4, "k0": 0, "other": 1, "k1": 1, "k3": 9}

    def test_store_shapes_fresh_values_like_cached_ones(self, tmp_path):
        path = tmp_path / "c.json"
        fresh = dict(parallel.keyed_campaign(path, self.TASKS, _square, jobs=1, store=str))
        cached = dict(parallel.keyed_campaign(path, self.TASKS, _square, jobs=1, store=str))
        assert fresh == cached == {f"k{i}": str(i * i) for i in range(4)}

    def test_before_run_false_skips_the_engine(self, tmp_path):
        path = tmp_path / "c.json"
        write_json_cache_atomic(path, {"k1": 1})
        seen = []
        got = list(
            parallel.keyed_campaign(
                path, self.TASKS, _square, jobs=1, before_run=lambda m: seen.append(m) or False
            )
        )
        assert got == [("k1", 1)]
        assert seen == [["k0", "k2", "k3"]]

    def test_engine_runs_only_when_keys_are_missing(self, tmp_path):
        path = tmp_path / "c.json"
        run = tmp_path / "run"
        obs.configure(run, "engine")
        try:
            list(parallel.keyed_campaign(path, self.TASKS, _square, jobs=1))
            list(parallel.keyed_campaign(path, self.TASKS, _square, jobs=1))
        finally:
            obs.disarm()
            obs.REGISTRY.reset()
        assert _engine_tasks(run) == [4]

    def test_no_cache_path_touches_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        got = dict(parallel.keyed_campaign(None, self.TASKS, _square, jobs=2, backoff=0))
        assert got == {f"k{i}": i * i for i in range(4)}
        assert list(tmp_path.iterdir()) == []

    def test_parallel_checkpoint_bytes_match_serial(self, tmp_path):
        # k0 finishes last in the pool; the file still lists keys in task order.
        tasks = {f"k{i}": (i, 0.4 if i == 0 else 0.0) for i in range(4)}
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        list(parallel.keyed_campaign(serial, tasks, _late_square, jobs=1))
        order = [k for k, _ in parallel.keyed_campaign(
            pooled, tasks, _late_square, jobs=2, backoff=0
        )]
        assert order[-1] == "k0"
        assert pooled.read_bytes() == serial.read_bytes()

    def test_break_keeps_every_yielded_key_checkpointed(self, tmp_path):
        path = tmp_path / "c.json"
        for _ in parallel.keyed_campaign(path, self.TASKS, _square, jobs=1):
            break
        assert len(load_json_cache(path)) == 1


TINY = Fidelity("tiny", 64, 4000)


def _matrix():
    return evaluation_matrix(
        "quad", fidelity=TINY, workloads=["bwaves"],
        config_keys=["chipkill36", "lot_ecc5_ep"], jobs=1,
    )


def _fig8():
    out = eol_fraction_by_channels([2, 4], trials=400, jobs=1, use_cache=True)
    return {n: r.histogram() for n, r in out.items()}


def _rareevent():
    out = sharded_estimate(mode="is", trials=1_500, shards=3, seed=1, jobs=1, use_cache=True)
    return out.estimate.to_dict(), out.shards_used, out.early_stopped


def _coverage():
    return coverage_study([Chipkill36(), Chipkill18()], trials=40, jobs=1, use_cache=True)


def _collision():
    return two_fault_collision_mc(trials=48, seed=0, jobs=1, use_cache=True).collisions


#: driver name -> (run, cache file glob, module holding the worker, worker name)
DRIVERS = {
    "evaluation_matrix": (_matrix, "matrix-*.json", parallel, "_run_cell"),
    "fig8_eol": (_fig8, "mc_fig8.json", montecarlo, "_eol_cell"),
    "rareevent_shards": (_rareevent, "mc_rareevent.json", rareevent, "_shard_worker"),
    "coverage": (_coverage, "mc_coverage.json", coverage, "_coverage_cell"),
    "collision": (_collision, "mc_collision.json", collision, "_collision_block"),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_resume_recomputes_exactly_the_dropped_key(driver, tmp_path, monkeypatch):
    run_driver, pattern, module, worker_name = DRIVERS[driver]
    monkeypatch.setattr(evaluation, "CACHE_DIR", tmp_path)
    cold = run_driver()
    (cache_path,) = tmp_path.glob(pattern)
    checkpoint = load_json_cache(cache_path)
    assert len(checkpoint) >= 2

    dropped = sorted(checkpoint)[0]
    write_json_cache_atomic(
        cache_path, {k: v for k, v in checkpoint.items() if k != dropped}, merge=False
    )
    calls = []
    real = getattr(module, worker_name)

    def counting(*payload):
        calls.append(payload)
        return real(*payload)

    monkeypatch.setattr(module, worker_name, counting)
    run = tmp_path / "run"
    obs.configure(run, "engine")
    try:
        resumed = run_driver()
    finally:
        obs.disarm()
        obs.REGISTRY.reset()

    assert resumed == cold
    assert len(calls) == 1
    assert _engine_tasks(run) == [1]
    restored = load_json_cache(cache_path)
    assert json.dumps(restored, sort_keys=True) == json.dumps(checkpoint, sort_keys=True)
