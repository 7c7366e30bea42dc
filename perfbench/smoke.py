"""Held-out seed check: each workload once, at a small size, on another seed.

    python3 perfbench/smoke.py [--seed 7]

Runs from the root of a checkout in well under a minute.  Every case must
pass its outcome check, and the metric names ``run.py`` reports must be the
ones ``BENCHMARK.json`` declares.  Exit code 0 means all of that held.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import END_TO_END, ROOT, TRACE_EXTRAS, use_checkout_source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    use_checkout_source()
    from tracer import layer_metrics
    from workloads import SMALL, clear_caches

    ok = True
    for name, workload in SMALL.items():
        clear_caches()
        cases, _ = workload.run(workload.inputs(args.seed, 0))
        bad = [f"{c.name} ({c.detail})" for c in cases if c.failed or c.wrong]
        print(f"{name}: {len(cases)} cases, failed: {bad or 'none'}")
        ok = ok and bool(cases) and not bad

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = [(name, unit) for name, (_, unit) in layer_metrics([], 1).items()]
    for key, reported in (
        ("end_to_end", list(END_TO_END.items())),
        ("per_layer", layers + list(TRACE_EXTRAS.items())),
    ):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != reported:
            print(f"{key} in BENCHMARK.json differs from what run.py reports: "
                  f"{sorted(set(declared) ^ set(reported))}")
            ok = False
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
