#!/usr/bin/env python3
"""Watch the deformed joint spectrum collide onto the per-partition spectra.

For q = s * q0 with s sweeping down, prints how far the n! joint tuples
have contracted toward their limits and the cluster table at the smallest
s.  Both describe one configuration: the sweep runs at the positions z
that harness.collision_study drew for the table.

    python3 scripts/collision_scan.py --n 3 --seed 5
"""

import argparse

import numpy as np

from cmkz.harness import collision_study
from cmkz.partitions import enumerate_partitions, irrep_dimension
from cmkz.tensor_gaudin import generalized_spectrum, sample_generic_z, spectral_points

# q = s * q0 scales of the sweep; the cluster table is taken at the smallest
Q_SCALES = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, choices=(2, 3, 4))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--scales", type=float, nargs="+", default=Q_SCALES)
    args = ap.parse_args()

    n = args.n
    q0 = sample_generic_z(n, np.random.default_rng(args.seed), radius=1.2)
    report = collision_study(n, q0, s=min(args.scales), seed=args.seed)
    z = report.z

    limits = []
    for lam in enumerate_partitions(n, n):
        for sp in spectral_points(lam, z, seed=args.seed):
            limits.append((lam, sp.p))

    print(f"n = {n}, z spread {np.abs(z - z.mean()).max():.3f}, "
          f"{len(limits)} limit points")
    print(f"{'s':>10}  {'max dist to nearest limit':>26}")
    for s in sorted(args.scales, reverse=True):
        pts = generalized_spectrum(z, s * q0, seed=args.seed + 1)
        worst = max(
            min(np.abs(sp.p - p_ref).max() for _, p_ref in limits) for sp in pts
        )
        print(f"{s:10.1e}  {worst:26.3e}")

    print(f"\nresolved: {report.resolved}")
    print(f"{'cluster size':>12}  {'partition':>12}  {'eig dim':>8}  {'match dist':>12}")
    for c in report.clusters:
        lam = "?" if c.lam is None else ",".join(map(str, c.lam.trimmed))
        print(f"{c.size:12d}  {lam:>12}  {c.eigenspace_dim:8d}  {c.match_distance:12.3e}")
    expected = {tuple(l.trimmed): irrep_dimension(l) for l in enumerate_partitions(n, n)}
    print(f"expected multiplicities: {expected}")
    return 0 if report.resolved else 1


if __name__ == "__main__":
    raise SystemExit(main())
