"""Parallel sweep engine and evaluation-cache robustness tests.

The contract under test: a matrix swept with ``REPRO_JOBS=4`` worker
processes is *bit-identical* to the serial sweep, a warm cache performs
zero simulations, and corrupt or torn cache files are regenerated instead
of crashing the sweep.
"""

import json

import pytest

import repro.experiments.evaluation as ev
from repro.experiments import parallel
from repro.experiments.evaluation import Fidelity, evaluation_matrix

TINY = Fidelity("tiny", scale=64, access_target=4000)
CELLS = dict(
    workloads=["streamcluster", "sjeng"],
    config_keys=["chipkill18", "lot_ecc5_ep"],
)


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert parallel.default_jobs() == 7

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel.default_jobs() >= 1

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError):
            parallel.default_jobs()


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self, tmp_path, monkeypatch):
        """2x2 sub-matrix: 4 worker processes vs in-process serial sweep."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "serial")
        serial = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        serial_cache = json.loads(
            next((tmp_path / "serial").glob("*.json")).read_text()
        )

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "par")
        monkeypatch.setenv("REPRO_JOBS", "4")
        par = evaluation_matrix("quad", fidelity=TINY, **CELLS)
        par_cache = json.loads(next((tmp_path / "par").glob("*.json")).read_text())

        assert par == serial
        # Same cells, same values, byte-identical under a canonical key order
        # (completion order across processes is the only thing allowed to vary).
        assert json.dumps(par_cache, sort_keys=True) == json.dumps(
            serial_cache, sort_keys=True
        )

    def test_pooled_run_resumes_serial_checkpoint(self, tmp_path, monkeypatch):
        """Cells checkpointed by a serial run are honoured by a pooled one."""
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "shared")
        partial = evaluation_matrix(
            "quad", fidelity=TINY, jobs=1,
            workloads=["streamcluster"], config_keys=CELLS["config_keys"],
        )
        cache_path = next((tmp_path / "shared").glob("*.json"))
        checkpointed = json.loads(cache_path.read_text())
        checkpointed.pop("__meta__")  # schema stamp, not a cell
        assert len(checkpointed) == 2

        monkeypatch.setenv("REPRO_JOBS", "4")
        resumed = evaluation_matrix("quad", fidelity=TINY, **CELLS)
        # The checkpointed cells were reused verbatim, the rest computed.
        for key, cell in partial.items():
            assert resumed[key] == cell

        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path / "fresh")
        fresh = evaluation_matrix("quad", fidelity=TINY, jobs=1, **CELLS)
        assert resumed == fresh


class TestCacheRobustness:
    KW = dict(fidelity=TINY, workloads=["streamcluster"], config_keys=["chipkill18"])

    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)

        def boom(*a, **k):
            raise AssertionError("simulated a cell despite a warm cache")

        monkeypatch.setattr(parallel, "_run_cell", boom)
        assert evaluation_matrix("quad", **self.KW) == first

    def test_corrupt_cache_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)
        path = next(tmp_path.glob("*.json"))
        path.write_text('{"streamcluster|chipkill18": {"epi_nj":')  # torn write
        assert evaluation_matrix("quad", **self.KW) == first
        assert json.loads(path.read_text())  # rewritten as valid JSON

    def test_non_dict_cache_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        first = evaluation_matrix("quad", **self.KW)
        path = next(tmp_path.glob("*.json"))
        path.write_text("[1, 2, 3]")
        assert evaluation_matrix("quad", **self.KW) == first

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "CACHE_DIR", tmp_path)
        evaluation_matrix("quad", **self.KW)
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1 and names[0].endswith(".json")

    def test_write_cache_atomic_merges(self, tmp_path):
        """Merge-on-write: a second campaign's cells union with the first's."""
        path = tmp_path / "m.json"
        ev._write_cache_atomic(path, {"a": {"x": 1}})
        ev._write_cache_atomic(path, {"b": {"y": 2}})
        assert ev._load_cache(path) == {"a": {"x": 1}, "b": {"y": 2}}
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_write_cache_atomic_replace_mode(self, tmp_path):
        path = tmp_path / "m.json"
        ev._write_cache_atomic(path, {"a": {"x": 1}})
        ev._write_cache_atomic(path, {"b": {"y": 2}}, merge=False)
        assert ev._load_cache(path) == {"b": {"y": 2}}
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_load_cache_missing_file(self, tmp_path):
        assert ev._load_cache(tmp_path / "absent.json") == {}
