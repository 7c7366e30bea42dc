"""cmkz benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; cmkz is imported from ``src/`` there.
Whole passes over the workload's inputs repeat until the next pass would
end past ``--seconds`` (at least two passes).  With ``--trace 0`` the result
holds the end-to-end metrics: pass wall and CPU time (the workload's
``pass_time`` over its passes), set-up time (median of fresh interpreters
importing cmkz and building the inputs) and peak memory.  With ``--trace 1`` half the time runs untraced and half with
every public cmkz function wrapped in spans, and the result holds the
per-layer metrics, per traced pass.  Lines before the last one carry the
run record: environment, per-case outcomes and the sha256 of each ``verify``
report.  The record, and the spans of a traced run, are also written to
``perfbench/out/``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# A verify pass takes 15-35 s, so a 60 s run holds only two or three.
MIN_PASSES = 2

# Metric name -> unit.  ``--trace 0`` reports END_TO_END; ``--trace 1``
# reports the tracer's layer metrics followed by TRACE_EXTRAS.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRAS = {
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "frac",
    "case.count": "count",
    "case.p50_ms": "ms",
    "case.p90_ms": "ms",
    "outcome.failed_frac": "frac",
    "outcome.max_margin": "ratio",
}


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other cmkz."""
    if not (SRC / "cmkz" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmkz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmkz

    if Path(cmkz.__file__).resolve().parent != SRC / "cmkz":
        raise SystemExit(f"error: imported cmkz from {cmkz.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "seed": seed,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_passes(workload, seed: int, budget: float, min_passes: int) -> list[dict]:
    """Whole passes k = 0, 1, ... until the next would end past the budget."""
    from workloads import clear_caches

    passes = []
    begin = time.perf_counter()
    k = 0
    while True:
        inputs = workload.inputs(seed, k)
        clear_caches()
        t0, c0 = time.perf_counter(), time.process_time()
        cases, digest = workload.run(inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        passes.append({"k": k, "wall": wall, "cpu": cpu, "cases": cases, "digest": digest})
        k += 1
        if k >= min_passes and time.perf_counter() - begin + wall > budget:
            return passes


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def summarize(passes: list[dict], pass_time) -> dict:
    cases = [c for p in passes for c in p["cases"]]
    digests: dict[int, set[str]] = {}
    for p in passes:
        if p["digest"] is not None:
            digests.setdefault(p["k"], set()).add(p["digest"])
    return {
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_cpus_s": [p["cpu"] for p in passes],
        "wall_s": pass_time([p["wall"] for p in passes]),
        "cpu_s": pass_time([p["cpu"] for p in passes]),
        "attempted": len(cases),
        "failed": sum(c.failed for c in cases),
        "wrong": sum(c.wrong for c in cases),
        "max_margin": max((c.margin for c in cases), default=0.0),
        "report_sha256": {k: sorted(v) for k, v in digests.items()},
        "replay_mismatches": sum(len(v) > 1 for v in digests.values()),
        "failures": sorted(
            {f"{c.name} ({c.detail})" if c.detail else c.name for c in cases if c.failed}
        ),
    }


def traced_metrics(workload, seed: int, seconds: float, record: dict):
    from tracer import Tracer, layer_metrics

    plain = run_passes(workload, seed, seconds / 2, 1)
    with Tracer() as tracer:
        traced = run_passes(workload, seed, seconds / 2, 1)
    spans = tracer.spans
    layers = layer_metrics(spans, len(traced))
    idle = [
        name for name in workload.layers if layers[f"{name}.calls"][0] == 0
    ]
    if idle:
        raise SystemExit(f"error: traced layers recorded no calls: {idle}")

    base = summarize(plain, workload.pass_time)
    over = summarize(traced, workload.pass_time)
    record.update(untraced=base, traced=over)
    record["spans_file"] = str(write_out(record, spans).relative_to(ROOT))
    case_seconds = [c.seconds for p in plain for c in p["cases"] if c.seconds is not None]
    if not case_seconds:  # verify: a case is one check, timed by its span
        case_seconds = [(s[3] - s[2]) / 1e9 for s in spans if s[1].startswith("harness.check.")]
    everything = summarize(plain + traced, workload.pass_time)
    values = {
        "process.cpu_per_wall": base["cpu_s"] / base["wall_s"],
        "trace.overhead_frac": over["wall_s"] / base["wall_s"] - 1.0,
        "case.count": len(case_seconds),
        "case.p50_ms": 1e3 * percentile(case_seconds, 50),
        "case.p90_ms": 1e3 * percentile(case_seconds, 90),
        "outcome.failed_frac": everything["failed"] / everything["attempted"],
        "outcome.max_margin": everything["max_margin"],
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
    metrics.update(
        {name: {"value": values[name], "unit": unit} for name, unit in TRACE_EXTRAS.items()}
    )
    return metrics, everything


def write_out(record: dict, spans=None) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    payload = dict(record)
    if spans is not None:
        payload["span_fields"] = ["id", "name", "start_ns", "end_ns", "parent", "thread", "extra"]
        payload["spans"] = spans
    path.write_text(json.dumps(payload, default=str) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
    }
    if args.trace:
        metrics, summary = traced_metrics(workload, args.seed, args.seconds, record)
    else:
        passes = run_passes(workload, args.seed, args.seconds, MIN_PASSES)
        summary = summarize(passes, workload.pass_time)
        record.update(run=summary, setup_samples_s=setup)
        write_out(record)
        values = {
            "wall_s": summary["wall_s"],
            "cpu_s": summary["cpu_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    # a traced run replays pass 0 under the tracer: same report bytes
    correct = summary["wrong"] == 0 and summary["replay_mismatches"] == 0
    print(json.dumps({"record": record}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
