"""One benchmark job in a fresh interpreter; ``run.py`` starts it.

Usage::

    python3 perfbench/child.py '<request json>'

The request names a ``job``:

* ``setup`` - import ``repro.experiments`` and load both compiled cores
  (what ``setup_s`` times from outside);
* ``probe`` - the same, then report the resolved ``REPRO_*`` knobs and
  whether each compiled core loaded;
* ``run`` - run one workload at ``seed``/``size`` against the cache
  directory in ``REPRO_CACHE_DIR``; with ``trace`` set, wrap every layer
  first (``layers.install``) and return the spans;
* ``oracle`` - the workload's reference checks, run under
  ``REPRO_SIM_KERNEL=event``.

The result is one JSON object written to the request's ``out`` path.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from argparse import Namespace
from functools import partial

#: Workloads of the ``xor_ablation`` workload: the write-back-heavy set of
#: ``benchmarks/bench_ablation_xor_caching.py``.
XOR_WORKLOADS = ["lbm", "omnetpp", "streamcluster"]

#: Per-size knobs.  ``full`` is what the benchmark measures; ``tiny`` only
#: exists so the benchmark's own tests can run every code path in seconds.
SIZES = {
    "full": {"mc_trials": 10_000, "coverage_trials": 20_000, "xor": XOR_WORKLOADS},
    "tiny": {"mc_trials": 500, "coverage_trials": 200, "xor": XOR_WORKLOADS[:1],
             "workloads": ["bwaves", "lbm"]},
}


def _native_loaded() -> "dict[str, bool]":
    from repro.cpu import epochnative
    from repro.gf import rsnative

    return {"epochnative": epochnative.available(), "rsnative": rsnative.available()}


def _peak_rss_mb() -> float:
    """Highest RSS of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _matrix_kwargs(size: str) -> dict:
    if size == "full":
        return {}  # REPRO_FULL=1 selects the full preset, as for the CLI
    from repro.experiments import Fidelity

    return {"fidelity": Fidelity("tiny", 64, 4000), "workloads": SIZES[size]["workloads"]}


def _schemes():
    """Every default-constructible scheme exported by ``repro.ecc``."""
    import inspect

    import repro.ecc as ecc
    from repro.ecc.base import ECCScheme

    out = []
    for name in ecc.__all__:
        obj = getattr(ecc, name)
        if inspect.isclass(obj) and issubclass(obj, ECCScheme) and not inspect.isabstract(obj):
            out.append(obj())
    return out


def artifacts(seed: int, size: str) -> dict:
    """Every artifact ``python -m repro all`` prints, at the benchmark's seed.

    The CLI's own artifact functions render the text; the experiment
    functions they look up on ``repro.experiments`` are bound to *seed*
    first, so the output at seed 0 is byte-identical to the CLI's.
    """
    import repro.experiments as E
    from repro import __main__ as cli

    kw = _matrix_kwargs(size)
    for name in ("epi_report", "perf_report", "traffic_report"):
        setattr(E, name, partial(getattr(E, name), seed=seed, **kw))
    figure8, table3 = E.figure8, E.table3
    E.figure8 = lambda trials=None: figure8(trials=trials, seed=seed)
    E.table3 = lambda trials=5000: table3(trials=trials, seed=seed)
    args = Namespace(dual=False, trials=SIZES[size]["mc_trials"])
    text = ""
    for name in sorted(cli.ARTIFACTS):
        args.artifact = name
        text += cli.ARTIFACTS[name](args) + "\n\n"
    return {"text": text}


def coverage(seed: int, size: str) -> dict:
    from repro.experiments import coverage as cov

    rows = cov.coverage_study(
        _schemes(), trials=SIZES[size]["coverage_trials"], seed=seed, use_cache=True
    )
    return {"rows": [[r.scheme, r.pattern, r.trials, r.corrected,
                      r.detected_uncorrectable, r.silent_or_wrong] for r in rows]}


def xor_ablation(seed: int, size: str) -> dict:
    from dataclasses import asdict

    from repro.ecc.catalog import QUAD_EQUIVALENT
    from repro.experiments import ablation, evaluation
    from repro.experiments.runner import adaptive_instructions
    from repro.workloads import WORKLOADS_BY_NAME

    cfg = QUAD_EQUIVALENT["lot_ecc5_ep"]
    out = []
    for wl in SIZES[size]["xor"]:
        r = ablation.xor_caching_ablation(WORKLOADS_BY_NAME[wl], cfg, seed=seed)
        out.append({
            "workload": wl,
            "cached": asdict(evaluation._cell_from_result(r.cached)),
            "uncached": asdict(evaluation._cell_from_result(r.uncached)),
            "traffic_blowup": r.traffic_blowup,
            "warmup_instructions": adaptive_instructions(WORKLOADS_BY_NAME[wl]),
        })
    return {"sims": out}


WORKLOADS = {"artifacts": artifacts, "coverage": coverage, "xor_ablation": xor_ablation}


def run(req: dict) -> dict:
    from repro.experiments.parallel import CampaignError

    tracer = None
    if req.get("trace"):
        import layers

        tracer = layers.Tracer()
        patched = layers.install(tracer)
    t0 = time.perf_counter_ns()
    try:
        result = WORKLOADS[req["workload"]](req["seed"], req["size"])
    except CampaignError as exc:
        # Retries are off, so any task that failed once lands here.
        return {"failed_ops": len(exc.failures), "error": str(exc)}
    t1 = time.perf_counter_ns()
    result["wall_s"] = (t1 - t0) / 1e9
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans, "counts": dict(tracer.counts),
            "window": [t0, t1], "patched": patched,
        }
    return result


def oracle_artifacts(req: dict) -> dict:
    """Rerun a seeded sample of cells on the event kernel; report Fig 10."""
    import repro.experiments as E
    from repro.experiments import evaluation, parallel
    from repro.workloads.profiles import WORKLOADS_BY_NAME

    fid = _matrix_kwargs(req["size"]).get("fidelity") or evaluation.current_fidelity()
    cells = {}
    for sc in ("quad", "dual"):
        cache = evaluation._load_cache(evaluation._cache_path(sc, fid, req["seed"]))
        cells.update({(sc, *k.split("|")): v for k, v in cache.items()})
    mismatched = []
    for sc, wl, key in random.Random(req["seed"]).sample(sorted(cells), req["samples"]):
        got = parallel._run_cell(sc, wl, key, fid.scale, fid.access_target, req["seed"])[2]
        if got != cells[(sc, wl, key)]:
            mismatched.append(f"{sc}|{wl}|{key}")
    instructions = sum(
        c["instructions"] + evaluation.instruction_budget(fid.access_target, WORKLOADS_BY_NAME[wl])
        for (sc, wl, key), c in cells.items()
    )
    rep = E.epi_report("quad", "total", seed=req["seed"], **_matrix_kwargs(req["size"]))
    avg = rep.averages()
    return {
        "checked": req["samples"], "mismatched": mismatched,
        "sim_instructions": instructions,
        "fig10_quad_vs_ck36": [avg[(b, "lot_ecc5_ep", "chipkill36")] for b in ("Bin1", "Bin2")],
    }


def oracle_coverage(req: dict) -> dict:
    """Batched ``correct_lines`` vs per-line ``correct_line`` on sampled trials."""
    import numpy as np

    from repro.experiments import coverage as cov
    from repro.util.rng import make_rng

    rng = make_rng(req["seed"])
    mismatched = []
    for scheme in _schemes():
        for pattern in cov.PATTERNS:
            data, spec = cov._draw_chunk(scheme, pattern, req["samples"], rng)
            bad = cov._corrupt(scheme, scheme.split_to_chips(data), spec)
            det, cor = scheme.compute_detection(data), scheme.compute_correction(data)
            batch = scheme.correct_lines(bad, det, cor)
            for i in range(len(data)):
                one = scheme.correct_line(bad[i], det[i], cor[i])
                same = (one.data is not None) == bool(batch.ok[i]) and (
                    one.data is None or np.array_equal(one.data, batch.data[i])
                )
                if not same:
                    mismatched.append(f"{type(scheme).__name__}|{pattern}")
                    break
    return {"checked": req["samples"], "mismatched": mismatched}


def oracle_xor_ablation(req: dict) -> dict:
    """Rerun one seeded sampled ablation sim on the event kernel."""
    import dataclasses
    from dataclasses import asdict

    from repro.cpu.ecc_traffic import EccTrafficModel
    from repro.ecc.catalog import QUAD_EQUIVALENT
    from repro.experiments import ablation, evaluation
    from repro.experiments.runner import RunSpec
    from repro.workloads import WORKLOADS_BY_NAME

    pick = random.Random(req["seed"])
    wl = pick.choice(SIZES[req["size"]]["xor"])
    leg = pick.choice(["cached", "uncached"])
    cfg = QUAD_EQUIVALENT["lot_ecc5_ep"]
    model = EccTrafficModel.for_scheme(cfg.make_scheme(), ecc_parity_channels=cfg.channels)
    if leg == "uncached":
        model = dataclasses.replace(model, cache_ecc_lines=False)
    # The same scale as xor_caching_ablation's default, which the workload uses.
    spec = RunSpec(WORKLOADS_BY_NAME[wl], cfg, seed=req["seed"], scale=32)
    res = ablation._run_with_model(spec, model)
    return {"workload": wl, "leg": leg, "cell": asdict(evaluation._cell_from_result(res))}


ORACLES = {"artifacts": oracle_artifacts, "coverage": oracle_coverage,
           "xor_ablation": oracle_xor_ablation}


def main(argv: "list[str]") -> int:
    req = json.loads(argv[1])
    job = req["job"]
    if job == "setup":
        import repro.experiments  # noqa: F401

        return 0 if all(_native_loaded().values()) else 1
    if job == "probe":
        import repro.experiments  # noqa: F401
        from repro.util import envcfg

        out = {"native": _native_loaded(),
               "knobs": {k["name"]: k["current"] for k in envcfg.describe()}}
    elif job == "run":
        out = run(req)
    elif job == "oracle":
        out = ORACLES[req["workload"]](req)
    else:
        raise SystemExit(f"unknown job {job!r}")
    with open(req["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
