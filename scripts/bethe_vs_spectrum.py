#!/usr/bin/env python3
"""Compare Bethe critical momenta against the joint Gaudin spectrum.

Reads the Bethe critical points of one partition off the Wronski fiber at
seeded generic positions, prints every critical point with its momenta,
and matches them against the joint spectrum on the singular subspace.
Exits 1 unless all d_lambda points are found and matched.

    python3 scripts/bethe_vs_spectrum.py --lambda 2,1 --seed 4
"""

import argparse

import numpy as np

from cmkz.calogero_moser import l0_residual
from cmkz.harness import match_points
from cmkz.master_function import solve_bethe
from cmkz.partitions import Partition, irrep_dimension
from cmkz.tensor_gaudin import sample_generic_z, spectral_points


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", default="2,1",
                    help="partition, e.g. 2,1")
    ap.add_argument("--seed", type=int, default=4)
    args = ap.parse_args()

    lam = Partition(tuple(int(p) for p in args.lam.split(",")))
    n = lam.n
    rng = np.random.default_rng(args.seed)
    z = sample_generic_z(n, rng)
    print(f"lambda = {lam.trimmed}, n = {n}, expected points = {irrep_dimension(lam)}")

    crits = solve_bethe(lam, z, seed=args.seed + 1)
    print(f"critical points found: {len(crits)}")
    for k, c in enumerate(crits):
        print(f"  #{k}: grad = {c.grad_norm:.2e}, "
              f"zero-level residual = {l0_residual(z, c.p):.2e}")
        for lvl, tk in enumerate(c.config.t, start=1):
            print(f"      level {lvl}: {np.round(tk, 6)}")
        print(f"      p: {np.round(c.p, 6)}")

    pts = spectral_points(lam, z, seed=args.seed + 2)
    res = match_points([c.p for c in crits], [sp.p for sp in pts], tol=1e-6)
    print(f"matched against joint spectrum: ok = {res.ok}, "
          f"max distance = {res.max_distance:.2e}")
    return 0 if res.ok and len(crits) == irrep_dimension(lam) else 1


if __name__ == "__main__":
    raise SystemExit(main())
