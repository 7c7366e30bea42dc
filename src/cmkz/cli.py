"""Command line front end.

Subcommands
-----------
spectrum : joint Gaudin spectrum on a singular weight space at seeded z
verify   : run verification suites and emit a JSON report
fiber    : solve a Wronski fiber at a seeded generic target

All output is JSON on stdout (optionally mirrored to --json PATH).
Exit status: 0 all checks pass, 1 a check failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import SUITES, VerificationConfig, run_suite
from .partitions import Partition, irrep_dimension
from .polyalg import elementary_symmetric
from .serialize import canonical_json, pair_list
from .tensor_gaudin import sample_generic_z, spectral_points
from .wronski import wronski_fiber, wronski_map


def _parse_partition(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
        lam = Partition(parts)
        if lam.n == 0:
            raise ValueError("it has no boxes")
        return lam
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from exc


def _emit(payload: dict, path: str | None) -> None:
    text = canonical_json(payload)
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_spectrum(args) -> int:
    lam = args.lam
    n = lam.n
    rng = np.random.default_rng(args.seed)
    z = sample_generic_z(n, rng)
    pts = spectral_points(lam, z, seed=int(rng.integers(2**31)))
    payload = {
        "command": "spectrum",
        "n": n,
        "lambda": lam.as_list(),
        "seed": args.seed,
        "z": pair_list(z),
        "points": [sp.as_dict() for sp in pts],
        "count": len(pts),
        "expected": irrep_dimension(lam),
    }
    _emit(payload, args.json)
    return 0 if len(pts) == irrep_dimension(lam) else 1


def _cmd_verify(args) -> int:
    suites = tuple(args.suite) if args.suite else SUITES
    config = VerificationConfig(
        n_max=args.n_max,
        trials=args.trials,
        seed=args.seed,
        suites=suites,
    )
    report = run_suite(config)
    payload = {"command": "verify", **report.as_dict()}
    _emit(payload, args.json)
    return 0 if report.passed else 1


def _cmd_fiber(args) -> int:
    lam = args.lam
    n = lam.n
    rng = np.random.default_rng(args.sigma_seed)
    z = sample_generic_z(n, rng)
    sigma = elementary_symmetric(z)
    sols = wronski_fiber(lam, sigma, seed=int(rng.integers(2**31)))
    residuals = [
        float(np.abs(wronski_map(lam, sol).w - sigma).max()) for sol in sols
    ]
    expected = irrep_dimension(lam)
    payload = {
        "command": "fiber",
        "lambda": lam.as_list(),
        "sigma_seed": args.sigma_seed,
        "sigma": pair_list(sigma),
        "expected": expected,
        "found": len(sols),
        "w_residuals": residuals,
        "solutions": [sol.as_dict() for sol in sols],
    }
    _emit(payload, args.json)
    return 0 if len(sols) == expected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmkz",
        description="Numerical checks tying Gaudin joint spectra to "
        "Calogero-Moser level sets, Bethe critical points, and Wronski maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="joint spectrum on a singular subspace")
    sp.add_argument(
        "--lambda", dest="lam", type=_parse_partition, required=True,
        help="partition, e.g. 2,1",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", default=None, help="also write the payload here")
    sp.set_defaults(fn=_cmd_spectrum)

    vf = sub.add_parser("verify", help="run verification suites")
    vf.add_argument(
        "--suite", action="append", choices=SUITES, default=None,
        help="suite to run (repeatable; default: all)",
    )
    vf.add_argument("--n-max", type=int, default=4)
    vf.add_argument("--trials", type=int, default=20)
    vf.add_argument("--seed", type=int, default=2024)
    vf.add_argument("--json", default=None)
    vf.set_defaults(fn=_cmd_verify)

    fb = sub.add_parser("fiber", help="solve a Wronski fiber at a seeded target")
    fb.add_argument(
        "--lambda", dest="lam", type=_parse_partition, required=True,
        help="partition, e.g. 2,1",
    )
    fb.add_argument("--sigma-seed", type=int, default=0)
    fb.add_argument("--json", default=None)
    fb.set_defaults(fn=_cmd_fiber)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
