"""The benchmark's four workloads and the outcome check of every case.

A workload builds the inputs of pass ``k`` from the benchmark seed and runs
one pass over them, returning one ``Case`` per unit of verified work.  cmkz
functions are looked up on their modules at call time, so a tracer that
replaces module attributes sees every call.  Why each workload exists is in
README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from cmkz import calogero_moser as cm
from cmkz import cli
from cmkz import harness as hs
from cmkz import master_function as mf
from cmkz import tensor_gaudin as tg
from cmkz import wronski as wr
from cmkz.partitions import enumerate_partitions, irrep_dimension

# The defaults of cmkz.harness.Tolerances, fixed here so that a change to the
# program cannot loosen the benchmark's own gates.
TOL = {
    "eigen": 1e-8,
    "bethe": 1e-10,
    "residual": 1e-8,
    "match": 1e-6,
    "n_independence": 1e-8,
    "closed_form": 1e-10,
    "fiber": 1e-9,
    "identity": 1e-10,
    "bivariate": 1e-8,
    "annihilation": 1e-12,
    "rank_one": 1e-12,
    "gradient_fd": 1e-5,
    "collision_match": 1e-4,
}

# Bound of each residual a verify record reports, keyed by (check, residual).
# The midpoint and trace bounds are literals inside their checks, not
# Tolerances fields.
VERIFY_BOUNDS = {
    ("l0-membership", "max_scaled_residual"): TOL["residual"],
    ("n-independence", "max_match_distance"): TOL["n_independence"],
    ("closed-forms", "max_deviation"): TOL["closed_form"],
    ("bethe-correspondence", "max_grad_norm"): TOL["bethe"],
    ("bethe-correspondence", "max_match_distance"): TOL["match"],
    ("bethe-correspondence", "midpoint_deviation"): 1e-12,
    ("lq-membership", "max_scaled_residual"): TOL["residual"],
    ("lq-membership", "max_trace_deviation"): 1e-10,
    ("collision-multiplicity", "max_match_distance"): TOL["collision_match"],
    ("wronski-degree", "max_w_residual"): TOL["fiber"],
    ("operator-identities", "max_fla_residual"): TOL["identity"],
    ("operator-identities", "max_bivariate_residual"): TOL["bivariate"],
    ("operator-identities", "max_annihilation_residual"): TOL["annihilation"],
    ("structural-invariants", "max_rank_one_residual"): TOL["rank_one"],
    ("structural-invariants", "max_hamiltonian_mismatch"): TOL["identity"],
    ("structural-invariants", "max_gradient_fd_mismatch"): TOL["gradient_fd"],
}


@dataclass
class Case:
    """Outcome of one unit of work.

    ``failed``: it undercounted, a residual exceeded its bound, or it raised.
    ``wrong``: an output the program did return is wrong (a residual over
    its bound, a point with no partner, an overcount); an undercount alone
    is a failure but not a wrong answer.
    """

    name: str
    failed: bool
    wrong: bool
    margin: float
    seconds: float | None
    detail: str = ""

    def __post_init__(self):
        # residuals may come back as numpy scalars, which json cannot encode
        self.failed, self.wrong = bool(self.failed), bool(self.wrong)
        self.margin = float(self.margin)


def _raised(name: str, exc: Exception, seconds: float) -> Case:
    return Case(name, True, False, 0.0, seconds, f"{type(exc).__name__}: {exc}")


def _label(lam) -> str:
    return ",".join(map(str, lam.trimmed))


PASS_SEED_STRIDE = 1_000_003


class Verify:
    """``cmkz verify`` at the command-line defaults, run in process."""

    name = "verify"
    # Two or three long passes, at seeds of which roughly one in four
    # escalates the Bethe multistart: the lower median skips that seed.
    pass_time = staticmethod(statistics.median_low)
    layers = (
        "cli.main",
        "harness.run_suite",
        "harness.match_points",
        "harness.collision_study",
        "serialize.canonical_json",
        "polyalg.poly_det",
        "wronski.wronski_fiber",
        "wronski.wronski_map",
        "wronski.fundamental_operator",
        "wronski.psi",
        "wronski.fla_residual",
        "wronski.bivariate_identity_residual",
        "master_function.solve_bethe",
        "tensor_gaudin.singular_basis",
        "tensor_gaudin.gaudin_hamiltonian",
        "tensor_gaudin.generalized_gaudin",
        "tensor_gaudin.joint_eigen",
        "tensor_gaudin.spectral_points",
        "tensor_gaudin.generalized_spectrum",
        "tensor_gaudin.joint_eigenspace_dim",
        "calogero_moser.first_integrals",
        "calogero_moser.lq_residual",
        "calogero_moser.xi",
        "calogero_moser.rank_one_residual",
    )

    def __init__(self, extra_args: tuple[str, ...] = ()):
        # extra_args only shrink the smoke-check size; --jobs is never passed
        self.extra_args = extra_args

    def inputs(self, seed: int, k: int):
        # Each pass verifies another seed: at roughly one seed in four the
        # Bethe multistart escalates and the pass takes ~1.5x as long, and a
        # run's lower median should not hang on a single seed.
        return ["verify", *self.extra_args, "--seed", str(seed + PASS_SEED_STRIDE * k)]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        try:
            report = json.loads(text)
        except ValueError:
            return [Case("report", True, True, 0.0, None, f"exit {code}")], digest
        consistent = (code == 0) == bool(report["passed"])
        cases = []
        for rec in report["records"]:
            check = rec["check"]
            margin = max(
                (
                    float(value) / VERIFY_BOUNDS[check, key]
                    for key, value in rec["residuals"].items()
                    if (check, key) in VERIFY_BOUNDS
                ),
                default=0.0,
            )
            # A record that reports its own failure is a failed case; a wrong
            # answer is a pass claimed past a bound, or a mismatched exit code.
            wrong = not consistent or (rec["passed"] and margin > 1.0)
            failed = wrong or not rec["passed"]
            detail = "" if rec["passed"] else rec["error"] or json.dumps(rec["counts"])
            cases.append(Case(check, failed, wrong, margin, None, detail))
        return cases, digest


SPECTRA_SHAPES = ((5, 5), (6, 4), (7, 3))  # (n, most rows) inside MAX_FULL_DIM
GENERALIZED_N = (4, 5)


class Spectra:
    """Joint Gaudin spectra and the deformed n! spectra at fresh seeded z."""

    name = "spectra"
    pass_time = staticmethod(statistics.fmean)
    layers = (
        "tensor_gaudin.singular_basis",
        "tensor_gaudin.gaudin_hamiltonian",
        "tensor_gaudin.generalized_gaudin",
        "tensor_gaudin.joint_eigen",
        "tensor_gaudin.spectral_points",
        "tensor_gaudin.generalized_spectrum",
        "calogero_moser.first_integrals",
        "calogero_moser.l0_residual",
        "calogero_moser.lq_residual",
    )

    def __init__(self, shapes=SPECTRA_SHAPES, generalized=GENERALIZED_N):
        self.shapes = shapes
        self.generalized = generalized

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        items = []
        for n, rows in self.shapes:
            for lam in enumerate_partitions(n, rows):
                z = tg.sample_generic_z(n, rng)
                items.append(("spectral", lam, z, None, int(rng.integers(2**31))))
        for n in self.generalized:
            z = tg.sample_generic_z(n, rng)
            q = tg.sample_generic_z(n, rng, radius=1.5)
            items.append(("generalized", n, z, q, int(rng.integers(2**31))))
        return items

    def run(self, items):
        cases = []
        bound = TOL["residual"]
        for kind, shape, z, q, seed in items:
            name = f"{kind}:{shape if kind == 'generalized' else _label(shape)}"
            t0 = time.perf_counter()
            try:
                if kind == "spectral":
                    pts = tg.spectral_points(shape, z, tol=TOL["eigen"], seed=seed)
                    expected = irrep_dimension(shape)
                    res = [cm.l0_residual(sp.z, sp.p) for sp in pts]
                else:
                    pts = tg.generalized_spectrum(z, q, tol=TOL["eigen"], seed=seed)
                    expected = math.factorial(shape)
                    res = [cm.lq_residual(sp.z, sp.p, q) for sp in pts]
            except Exception as exc:  # counted as a failed case
                cases.append(_raised(name, exc, time.perf_counter() - t0))
                continue
            seconds = time.perf_counter() - t0
            margin = max(res, default=0.0) / bound
            wrong = margin > 1.0 or len(pts) > expected
            failed = wrong or len(pts) != expected
            detail = f"{len(pts)}/{expected} points"
            cases.append(Case(name, failed, wrong, margin, seconds, detail))
        return cases, None


FORWARD_N = (6, 7)


class Forward:
    """The Wronski forward route on random tuples of every partition."""

    name = "forward"
    # About twenty passes of equal work.  The host's speed shifts by up to
    # 1.5x for tens of seconds at a time; the mean blends both speeds in
    # proportion, where the median of the passes jumps from one to the other.
    pass_time = staticmethod(statistics.fmean)
    layers = (
        "polyalg.poly_det",
        "wronski.wronski_map",
        "wronski.fundamental_operator",
        "wronski.psi",
        "wronski.fla_residual",
        "wronski.bivariate_identity_residual",
        "calogero_moser.first_integrals",
        "calogero_moser.l0_residual",
        "calogero_moser.xi",
    )

    def __init__(self, sizes=FORWARD_N):
        self.sizes = sizes

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        return [
            (lam, wr.random_poly_tuple(lam, rng), int(rng.integers(2**31)))
            for n in self.sizes
            for lam in enumerate_partitions(n, n)
        ]

    def run(self, items):
        cases = []
        for lam, x, seed in items:
            name = _label(lam)
            t0 = time.perf_counter()
            try:
                sp = wr.psi(lam, x)
                l0 = cm.l0_residual(sp.z, sp.p)
                fla = wr.fla_residual(lam, x)
                op = wr.fundamental_operator(lam, x)
                ann = max(op.annihilation_residual(f) for f in x.polys())
                biv = wr.bivariate_identity_residual(lam, x, seed=seed)
            except Exception as exc:  # counted as a failed case
                cases.append(_raised(name, exc, time.perf_counter() - t0))
                continue
            seconds = time.perf_counter() - t0
            margin = max(
                l0 / TOL["residual"],
                fla / TOL["identity"],
                ann / TOL["annihilation"],
                biv / TOL["bivariate"],
            )
            bad = margin > 1.0
            cases.append(Case(name, bad, bad, margin, seconds))
        return cases, None


class BetheReach:
    """Multistart Bethe solving, matched against the joint spectrum.

    (2,1,1,1) and (1^5) fail too, in 16-42 s each; they are left out only
    to bound the run length.  (2,2,1) stays and undercounts.
    """

    name = "bethe-reach"
    pass_time = staticmethod(statistics.median_low)
    layers = (
        "master_function.solve_bethe",
        "harness.match_points",
        "tensor_gaudin.spectral_points",
        "tensor_gaudin.singular_basis",
        "tensor_gaudin.gaudin_hamiltonian",
        "tensor_gaudin.joint_eigen",
    )

    def __init__(self, n: int = 5, rows: int = 3):
        self.n = n
        self.rows = rows

    def inputs(self, seed: int, k: int):
        rng = np.random.default_rng([seed, k])
        return [
            (
                lam,
                tg.sample_generic_z(self.n, rng),
                int(rng.integers(2**31)),
                int(rng.integers(2**31)),
            )
            for lam in enumerate_partitions(self.n, self.rows)
        ]

    def run(self, items):
        cases = []
        for lam, z, bethe_seed, eigen_seed in items:
            name = _label(lam)
            expected = irrep_dimension(lam)
            t0 = time.perf_counter()
            try:
                crits = mf.solve_bethe(lam, z, tol=TOL["bethe"], seed=bethe_seed)
                pts = tg.spectral_points(lam, z, tol=TOL["eigen"], seed=eigen_seed)
                match = hs.match_points(
                    [c.p for c in crits], [sp.p for sp in pts], TOL["match"]
                )
            except Exception as exc:  # counted as a failed case
                cases.append(_raised(name, exc, time.perf_counter() - t0))
                continue
            seconds = time.perf_counter() - t0
            grad = max((c.grad_norm for c in crits), default=0.0)
            margin = max(grad / TOL["bethe"], match.max_distance / TOL["match"])
            wrong = (
                grad > TOL["bethe"]
                or len(match.pairs) < len(crits)
                or len(crits) > expected
                or len(pts) != expected
            )
            failed = wrong or not match.ok or len(crits) != expected
            detail = f"{len(crits)}/{expected} critical points"
            cases.append(Case(name, failed, wrong, margin, seconds, detail))
        return cases, None


WORKLOADS = {w.name: w for w in (Verify(), Spectra(), Forward(), BetheReach())}

# One small instance of each workload, for the held-out seed check.
SMALL = {
    "verify": Verify(("--suite", "l0", "--n-max", "3", "--trials", "4")),
    "spectra": Spectra(shapes=((4, 4),), generalized=(3,)),
    "forward": Forward(sizes=(5,)),
    "bethe-reach": BetheReach(n=4, rows=3),
}


def clear_caches() -> None:
    """Empty every functools cache in cmkz, as a fresh CLI process has them."""
    for key, mod in list(sys.modules.items()):
        if key.startswith("cmkz") and mod is not None:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
