#!/usr/bin/env python3
"""Run the full verify suite at the seeds a benchmark run reaches.

The benchmark's `verify` workload runs pass k at seed S + 1000003 * k, so
a faster pass reaches larger k within the same time budget.  This scan
runs harness.run_suite at the CLI defaults for every S and k in the given
inclusive ranges, prints each seed's time, and lists the failing records
of each seed that does not pass.

    python3 scripts/pass_seed_scan.py --s 21 21 --k 0 3
    python3 scripts/pass_seed_scan.py --s 21 30 --k 0 99
"""

import argparse
import time

from cmkz.harness import VerificationConfig, run_suite

# seed stride between successive passes of the benchmark's verify workload
PASS_SEED_STRIDE = 1_000_003


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, nargs=2, default=(21, 21), metavar=("FIRST", "LAST"))
    ap.add_argument("--k", type=int, nargs=2, default=(0, 3), metavar=("FIRST", "LAST"))
    args = ap.parse_args()

    failed = []
    begin = time.perf_counter()
    for s in range(args.s[0], args.s[1] + 1):
        for k in range(args.k[0], args.k[1] + 1):
            seed = s + PASS_SEED_STRIDE * k
            t0 = time.perf_counter()
            report = run_suite(VerificationConfig(seed=seed))
            seconds = time.perf_counter() - t0
            status = "pass" if report.passed else "FAIL"
            print(f"S={s} k={k} seed={seed} {seconds:.2f} s {status}", flush=True)
            if report.passed:
                continue
            failed.append(seed)
            for rec in report.records:
                if not rec.passed:
                    print(f"  {rec.check}: error={rec.error} counts={rec.counts} "
                          f"residuals={rec.residuals}", flush=True)
    total = (args.s[1] - args.s[0] + 1) * (args.k[1] - args.k[0] + 1)
    print(f"{total - len(failed)}/{total} seeds pass in "
          f"{time.perf_counter() - begin:.1f} s; failing seeds: {failed or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
