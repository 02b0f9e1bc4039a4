"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- span arithmetic -------------------------------------------------------------------


def test_self_times_subtract_children_and_sum_to_wall():
    spans = [
        ["experiments.render", 10, 90, -1],
        ["cpu.sim", 20, 60, 0],
        ["workloads.trace", 30, 40, 1],
        ["workloads.trace", 35, 45, 1],  # overlaps its sibling: the union counts once
        ["util.cache_write", 70, 80, 0],
        ["faults.mc", 95, 98, -1],
    ]
    selfs, rest = layers.self_times(spans, 0, 100)
    assert selfs == {
        "experiments.render": 80 - 40 - 10,
        "cpu.sim": 40 - 15,
        "workloads.trace": 10 + 10,
        "util.cache_write": 10,
        "faults.mc": 3,
    }
    assert rest == 100 - 80 - 3
    # Properly nested spans: self times plus the remainder give back the wall.
    nested = [s for i, s in enumerate(spans) if i != 3]
    selfs, rest = layers.self_times(nested, 0, 100)
    assert sum(selfs.values()) + rest == 100


def test_tracer_nests_spans_and_times_generator_resumptions_only():
    tr = layers.Tracer()

    def gen(worker, payloads):
        for p in payloads:
            yield worker(*p)

    leaf = tr.wrap(lambda x: x * 2, "cpu.sim")
    tasks = layers._wrap_tasks(tr, gen)
    assert list(tasks(leaf, iter([(1,), (2,)]))) == [2, 4]
    assert tr.counts["experiments.tasks"] == 2
    names = [(s[0], s[3]) for s in tr.spans]
    # One dispatch span per resumption (two results plus the final StopIteration),
    # each worker call nested inside the resumption that ran it.
    assert names == [
        ("experiments.dispatch", -1), ("cpu.sim", 0),
        ("experiments.dispatch", -1), ("cpu.sim", 2),
        ("experiments.dispatch", -1),
    ]
    t0, t1 = tr.spans[0][1], tr.spans[-1][2]
    selfs, rest = layers.self_times(tr.spans, t0, t1)
    assert sum(selfs.values()) + rest == t1 - t0


def test_layer_metrics_cover_every_per_layer_name():
    tr = layers.Tracer()
    with tr.span("cpu.sim"):
        with tr.span("cpu.sim"):  # the compiled core nests inside SimSystem.run
            pass
    window = (tr.spans[0][1], tr.spans[0][2])
    m = layers.layer_metrics(tr.spans, {"cpu.sims": 1}, window, 1.0, {})
    assert set(m) == set(layers.PER_LAYER_UNITS)
    assert m["cpu.sims"] == 1 and m["trace.unattributed_frac"] == 0.0


# -- environment -------------------------------------------------------------------------


def test_scrubbed_env_drops_every_inherited_repro_variable(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    monkeypatch.setenv("REPRO_SIM_KERNEL", "event")
    monkeypatch.setenv("REPRO_JOBS", "7")
    env = run.scrubbed_env(tmp_path, {"REPRO_JOBS": "1"})
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == {"REPRO_JOBS": "1"}
    assert env["TMPDIR"] == str(tmp_path)
    assert env["PYTHONPYCACHEPREFIX"].startswith(str(run.RUNS_DIR))
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_child_sees_default_knobs_despite_inherited_overrides(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GF_NATIVE", "off")
    monkeypatch.setenv("REPRO_SIM_NATIVE", "off")
    args = argparse.Namespace(workload="coverage", seed=0, size="tiny", seconds=1, trace=0)
    (tmp_path / "tmp").mkdir()
    probe = run.Bench(args, tmp_path).probe(jobs=1)
    assert probe["knobs"]["REPRO_GF_NATIVE"] == "auto"
    assert probe["knobs"]["REPRO_SIM_NATIVE"] == "auto"
    assert probe["knobs"]["REPRO_JOBS"] == "1"
    assert probe["knobs"]["REPRO_TASK_RETRIES"] == "0"


# -- BENCHMARK.json --------------------------------------------------------------------


def test_benchmark_json_names_units_and_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in spec["workloads"]] == ["artifacts", "coverage", "xor_ablation"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER_UNITS
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])


# -- smoke runs ------------------------------------------------------------------------


def _bench(*argv: str) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.mark.parametrize("workload", ["artifacts", "coverage", "xor_ablation"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_and_passes_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = layers.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coverage", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
