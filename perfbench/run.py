"""End-to-end benchmark of the ECC Parity reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload artifacts --seed 0 --seconds 35 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``artifacts`` - every artifact ``python -m repro all`` renders, full preset;
* ``coverage`` - the injected-fault coverage study over every ECC scheme;
* ``xor_ablation`` - the Section III-D XOR-line caching ablation.

Every workload phase runs in a fresh interpreter (``perfbench/child.py``)
with every inherited ``REPRO_*`` variable cleared, a fresh cache directory
and ``TMPDIR`` under ``.perfbench_runs/`` in the checkout.  With
``--trace 0`` the cold workload (plus its warm reruns) repeats while the
next repeat still fits in ``--seconds`` of measured time (at least once),
and the end-to-end metrics are medians over the repeats; with ``--trace 1`` an untraced and a traced
serial run alternate instead and the per-layer metrics are reported.  Output
checks run outside the timed region.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers  # perfbench/ is sys.path[0]: this file runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"

#: End-to-end metric units (``--trace 0``).
END_TO_END_UNITS = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Operations per cold run: simulated cells, coverage cells, ablation sims.
EXPECTED_OPS = {
    ("artifacts", "full"): 2 * 16 * 8,
    ("artifacts", "tiny"): 2 * 2 * 8,
    ("coverage", "full"): 9 * 3,
    ("coverage", "tiny"): 9 * 3,
    ("xor_ablation", "full"): 3 * 2,
    ("xor_ablation", "tiny"): 1 * 2,
}

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPS = 7

#: Warm reruns per cold run repeat until their walls sum to this many seconds.
WARM_MIN_S = 1.0

#: Cells (artifacts) or trials per cell (coverage) checked against a reference.
ORACLE_SAMPLES = {"artifacts": 2, "coverage": 128, "xor_ablation": 1}

#: The paper's Fig 10 quad EPI reductions of EP vs 36-device chipkill, Bin1/Bin2
#: (EXPERIMENTS.md), printed beside the measured ones.
PAPER_FIG10 = (0.460, 0.595)

#: Seconds any single child may take before it and its process group are killed.
CHILD_TIMEOUT_S = 150


def scrubbed_env(tmpdir: Path, knobs: "dict[str, str]") -> "dict[str, str]":
    """The inherited environment minus every ``REPRO_*`` variable, plus *knobs*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Bytecode is cached once per checkout, outside the source tree, as a
        # user's repeated runs would find it; the first (untimed) probe fills it.
        PYTHONPYCACHEPREFIX=str(RUNS_DIR / "pycache"),
        TMPDIR=str(tmpdir),
    )
    env.update(knobs)
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(argv: "list[str]", env: "dict[str, str]") -> "tuple[float, str]":
    """Run *argv* in its own session; return (wall seconds, stdout).

    The whole process group is killed on timeout and after exit, so no pool
    worker outlives the child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{argv[-1][:80]}: timed out after {CHILD_TIMEOUT_S}s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[-1][:80]}: exit {proc.returncode}\n{err[-2000:]}")
    return wall, out


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.size = args.size
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.reference: "dict | None" = None  # ops of the first cold run
        self.context: "dict[str, object]" = {}

    # -- children ------------------------------------------------------------------

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def env(self, cache: Path, jobs: int, **extra: str) -> "dict[str, str]":
        knobs = {"REPRO_JOBS": str(jobs), "REPRO_TASK_RETRIES": "0", "REPRO_CACHE_DIR": str(cache)}
        if self.args.workload == "artifacts" and self.size == "full":
            knobs["REPRO_FULL"] = "1"
        knobs.update(extra)
        return scrubbed_env(self.work / "tmp", knobs)

    def job(self, req: dict, env: "dict[str, str]") -> "tuple[float, dict | None]":
        """Run one child job; returns (outside wall, its JSON result)."""
        out = self.fresh_dir("out-") / "result.json"
        req = {**req, "out": str(out), "seed": self.args.seed, "size": self.size,
               "workload": self.args.workload}
        wall, _ = run_child([sys.executable, str(HERE / "child.py"), json.dumps(req)], env)
        return wall, (json.loads(out.read_text()) if out.exists() else None)

    # -- checks --------------------------------------------------------------------

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def ops(self, result: dict, cache: Path) -> "dict[str, object]":
        """The run's operations, keyed: cells, coverage rows or ablation sims."""
        wl = self.args.workload
        if wl == "artifacts":
            out = {}
            for path in sorted(cache.glob("matrix-*.json")):
                cells = json.loads(path.read_text())
                cells.pop("__meta__", None)
                out.update({f"{path.name}|{k}": v for k, v in cells.items()})
            return out
        if wl == "coverage":
            return {f"{r[0]}|{r[1]}": r for r in result["rows"]}
        return {f"{s['workload']}|{leg}": {**s[leg], "blowup": s["traffic_blowup"]}
                for s in result["sims"] for leg in ("cached", "uncached")}

    def check_cold(self, result: "dict | None", cache: Path) -> "dict | None":
        """Count the cold run's operations and the ones that failed a check."""
        expected = EXPECTED_OPS[(self.args.workload, self.size)]
        self.attempted += expected
        if result is None or "failed_ops" in result:
            self.fail(result["failed_ops"] if result else expected,
                      f"run failed: {(result or {}).get('error', 'no result')[:300]}")
            return None
        ops = self.ops(result, cache)
        if len(ops) != expected:
            self.fail(abs(expected - len(ops)), f"{len(ops)} operations, expected {expected}")
        bad = set()
        for key, val in ops.items():
            if self.args.workload == "coverage" and sum(val[3:6]) != val[2]:
                bad.add(key)
            if self.args.workload == "xor_ablation" and val["blowup"] < 1.0:
                bad.add(key)
        if self.reference is None:
            self.reference = {"ops": ops, "text": result.get("text")}
            committed = self.committed_cells()
            bad |= {k for k, v in committed.items() if ops.get(k) != v}
        else:
            bad |= {k for k, v in self.reference["ops"].items() if ops.get(k) != v}
            if result.get("text") != self.reference["text"]:
                self.fail(1, "rendered text differs between repeats")
        if bad:
            self.fail(len(bad), f"{len(bad)} operation(s) failed output checks: {sorted(bad)[:5]}")
        return ops

    def committed_cells(self) -> "dict[str, object]":
        """At seed 0 in the full preset, the committed matrix cache is the reference."""
        if self.args.workload != "artifacts" or self.size != "full" or self.args.seed != 0:
            return {}
        out = {}
        for path in sorted((ROOT / ".repro_cache").glob("matrix-*-full-*-seed0-*.json")):
            cells = json.loads(path.read_text())
            cells.pop("__meta__", None)
            out.update({f"{path.name}|{k}": v for k, v in cells.items()})
        if not out:
            self.fail(1, "committed full-preset matrix cache missing")
        return out

    def check_warm(self, cold: dict, warm: "dict | None") -> None:
        keys = {"artifacts": "text", "coverage": "rows", "xor_ablation": "sims"}
        key = keys[self.args.workload]
        if warm is None or warm.get(key) != cold.get(key):
            self.fail(1, "warm rerun output differs from the cold run")

    def oracle(self, cold: dict, cache: Path, jobs: int) -> None:
        """Reference checks on the first cold run (untimed)."""
        wl = self.args.workload
        env = self.env(cache, jobs, REPRO_SIM_KERNEL="event")
        _, res = self.job({"job": "oracle", "samples": ORACLE_SAMPLES[wl]}, env)
        if wl == "xor_ablation":
            sim = next(s for s in cold["sims"] if s["workload"] == res["workload"])
            if res["cell"] != sim[res["leg"]]:
                self.fail(1, f"event kernel disagrees on {res['workload']}|{res['leg']}")
            self.context["oracle"] = f"event kernel reran {res['workload']}|{res['leg']}"
        else:
            if res["mismatched"]:
                self.fail(len(res["mismatched"]), f"reference mismatch: {res['mismatched']}")
            what = "event kernel" if wl == "artifacts" else "per-line correct_line"
            self.context["oracle"] = f"{what} checked {res['checked']} sample(s)"
        if wl == "artifacts":
            self.context["fig10"] = res["fig10_quad_vs_ck36"]
            self.context["sim_instructions"] = res["sim_instructions"]
            if self.args.seed == 0 and self.size == "full":
                _, text = run_child([sys.executable, "-m", "repro", "all"], self.env(cache, jobs))
                if text != cold["text"]:
                    self.fail(1, "rendered text differs from `python -m repro all`")

    # -- phases --------------------------------------------------------------------

    def probe(self, jobs: int) -> dict:
        _, res = self.job({"job": "probe"}, self.env(self.fresh_dir("cache-"), jobs))
        return res

    def setup_times(self, jobs: int) -> "list[float]":
        env = self.env(self.fresh_dir("cache-"), jobs)
        argv = [sys.executable, str(HERE / "child.py"), json.dumps({"job": "setup"})]
        return [run_child(argv, env)[0] for _ in range(SETUP_REPS)]

    def end_to_end(self, jobs: int) -> "dict[str, float]":
        setup = self.setup_times(jobs)
        colds, warms, rss = [], [], []
        measured = last = 0.0
        while not colds or measured + last <= self.args.seconds:
            cache = self.fresh_dir("cache-")
            env = self.env(cache, jobs)
            wall, cold = self.job({"job": "run"}, env)
            if self.check_cold(cold, cache) is None:
                break
            # Short warm reruns repeat until they add up to WARM_MIN_S.
            warm_total = 0.0
            while warm_total < WARM_MIN_S:
                warm_wall, warm = self.job({"job": "run"}, env)
                self.check_warm(cold, warm)
                warms.append(warm_wall)
                warm_total += warm_wall
            if len(colds) == 0:
                self.oracle(cold, cache, jobs)
                self.context["work"] = self.work_done(cold)
            shutil.rmtree(cache, ignore_errors=True)
            colds.append(wall)
            rss.append(cold["peak_rss_mb"])
            last = wall + warm_total
            measured += last
        self.context["samples"] = {"wall_s": colds, "warm_wall_s": warms, "setup_s": setup}
        if not colds:
            return {}
        return {
            "wall_s": statistics.median(colds),
            "warm_wall_s": statistics.median(warms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - min(self.failed, self.attempted) / self.attempted,
        }

    def work_done(self, cold: dict) -> "dict[str, float]":
        """Simulated instructions and injected-fault trials of one cold run."""
        wl = self.args.workload
        if wl == "artifacts":
            return {"sim_instructions": self.context.get("sim_instructions", 0)}
        if wl == "coverage":
            return {"trials": sum(r[2] for r in cold["rows"])}
        return {"sim_instructions": sum(
            s[leg]["instructions"] + s["warmup_instructions"]
            for s in cold["sims"] for leg in ("cached", "uncached"))}

    def per_layer(self) -> "dict[str, float]":
        runs, untraced, traced = [], [], []
        measured = last = 0.0
        while not runs or measured + last <= self.args.seconds:
            cache = self.fresh_dir("cache-")
            wall_u, plain = self.job({"job": "run"}, self.env(cache, 1))
            if self.check_cold(plain, cache) is None:
                break
            if not runs:
                self.oracle(plain, cache, 1)
            cache = self.fresh_dir("cache-")
            wall_t, res = self.job({"job": "run", "trace": True}, self.env(cache, 1))
            if self.check_cold(res, cache) is None:
                break
            tr = res.pop("trace")
            metrics = layers.layer_metrics(
                tr["spans"], tr["counts"], tuple(tr["window"]), plain["wall_s"],
                self.outcomes(res),
            )
            selfs, rest = layers.self_times(tr["spans"], *tr["window"])
            if sum(selfs.values()) + rest != tr["window"][1] - tr["window"][0]:
                self.fail(1, "layer self times do not sum to the traced wall")
            if not runs:
                self.write_trace(tr)
            runs.append(metrics)
            untraced.append(plain["wall_s"])
            traced.append(res["wall_s"])
            last = wall_u + wall_t
            measured += last
        self.context["samples"] = {"untraced_wall_s": untraced, "traced_wall_s": traced}
        if not runs:
            return {}
        return {name: statistics.median(r[name] for r in runs) for name in layers.PER_LAYER_UNITS}

    def outcomes(self, result: dict) -> "dict[str, int]":
        rows = result.get("rows", [])
        return {"corrected": sum(r[3] for r in rows), "detected": sum(r[4] for r in rows),
                "silent": sum(r[5] for r in rows)}

    def write_trace(self, tr: dict) -> None:
        path = RUNS_DIR / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps(tr))
        self.context["trace_file"] = str(path.relative_to(ROOT))


def git_state() -> "dict[str, object]":
    # Look at this checkout only: no parent repository, no user or system config.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
           "GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"}

    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], env=env, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown (not a git checkout)", "dirty": None}


def report(bench: Bench, env_record: dict, metrics: "dict[str, float]", units: dict) -> None:
    """Human-readable lines first; the result object is the last line."""
    a = bench.args
    print(f"perfbench {a.workload} seed={a.seed} size={a.size} trace={a.trace}")
    print(json.dumps({"environment": env_record}))
    for name, samples in bench.context.get("samples", {}).items():
        if samples:
            print(f"  {name}: median {statistics.median(samples):.4f} s over n={len(samples)}, "
                  f"samples {' '.join(f'{v:.4f}' for v in samples)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    work = bench.context.get("work", {})
    wall = metrics.get("wall_s")
    if wall and work.get("sim_instructions"):
        print(f"  context: {work['sim_instructions'] / 1e6 / wall:.4g} M simulated instr/s of wall")
    if wall and work.get("trials"):
        print(f"  context: {work['trials'] / wall:.4g} injected-fault trials/s of wall")
    if "fig10" in bench.context:
        print("  model error (not gated): Fig 10 quad EP vs 36-dev chipkill EPI reduction " + ", ".join(
            f"{b} {got:.1%} vs paper {paper:.1%} ({(got - paper) * 100:+.1f} pp)"
            for b, got, paper in zip(("Bin1", "Bin2"), bench.context["fig10"], PAPER_FIG10)))
    for key in ("oracle", "trace_file"):
        if key in bench.context:
            print(f"  {key}: {bench.context[key]}")
    for p in bench.problems:
        print(f"  CHECK FAILED: {p}")
    failed = min(bench.failed, bench.attempted)
    print(f"  failed_frac = {failed / max(bench.attempted, 1):.6g} "
          f"({failed} of {bench.attempted} operations)")
    print(json.dumps({
        "correct": not bench.problems and len(metrics) == len(units),
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("artifacts", "coverage", "xor_ablation"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    (work / "tmp").mkdir()
    try:
        bench = Bench(args, work)
        jobs = 1 if args.trace else min(2, len(os.sched_getaffinity(0)))
        probe = bench.probe(jobs)  # also the untimed one-time build of both C cores
        if not all(probe["native"].values()):
            print(f"perfbench: compiled cores unavailable {probe['native']}; "
                  "the numbers would measure a different program", file=sys.stderr)
            return 1
        env_record = {**git_state(), "nproc": os.cpu_count(), "jobs": jobs,
                      "native": probe["native"], "knobs": probe["knobs"]}
        if args.trace:
            metrics, units = bench.per_layer(), layers.PER_LAYER_UNITS
        else:
            metrics, units = bench.end_to_end(jobs), END_TO_END_UNITS
        report(bench, env_record, metrics, units)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
