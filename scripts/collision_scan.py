#!/usr/bin/env python3
"""Watch the deformed joint spectrum collide onto the per-partition spectra.

For q = s * q0 with s sweeping down, prints the largest match distance of
harness.collision_study at each s, then its record table at the smallest
s.  Every row is one study at the same positions z, which collision_study
draws from the seed; a tuple that matches no q = 0 limit reports its
distance to the nearest one.

    python3 scripts/collision_scan.py --n 3 --seed 5
"""

import argparse

import numpy as np

from cmkz.harness import collision_study
from cmkz.partitions import enumerate_partitions, irrep_dimension
from cmkz.tensor_gaudin import sample_generic_z

# q = s * q0 scales of the sweep; the record table is taken at the smallest
Q_SCALES = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, choices=(2, 3, 4))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--scales", type=float, nargs="+", default=Q_SCALES)
    args = ap.parse_args()

    n = args.n
    q0 = sample_generic_z(n, np.random.default_rng(args.seed), radius=1.2)
    reports = {
        s: collision_study(n, q0, s=s, seed=args.seed)
        for s in sorted(args.scales, reverse=True)
    }
    report = reports[min(reports)]
    z = report.z

    print(f"n = {n}, z spread {np.abs(z - z.mean()).max():.3f}")
    print(f"{'s':>10}  {'max match distance':>20}  {'resolved':>8}")
    for s, rep in reports.items():
        worst = max(c.match_distance for c in rep.clusters)
        print(f"{s:10.1e}  {worst:20.3e}  {str(rep.resolved):>8}")

    print(f"\nresolved: {report.resolved}")
    print(f"{'tuples':>8}  {'partition':>12}  {'eig dim':>8}  {'match dist':>12}")
    for c in report.clusters:
        lam = "?" if c.lam is None else ",".join(map(str, c.lam.trimmed))
        print(f"{c.size:8d}  {lam:>12}  {c.eigenspace_dim:8d}  {c.match_distance:12.3e}")
    expected = {tuple(l.trimmed): irrep_dimension(l) for l in enumerate_partitions(n, n)}
    print(f"expected multiplicities: {expected}")
    return 0 if report.resolved else 1


if __name__ == "__main__":
    raise SystemExit(main())
