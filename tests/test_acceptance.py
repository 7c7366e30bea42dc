"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and in the harness's bound table ``TOL``; the
named harness checks implement the heavy lifting so that the command-line
suite and this module exercise identical code paths.
"""

import math

import numpy as np

from cmkz.calogero_moser import first_integrals
from cmkz.harness import (
    VerificationConfig,
    check_bethe,
    check_closed_forms,
    check_collision,
    check_l0_membership,
    check_lq,
    check_operator_identities,
    check_structural_invariants,
)
from cmkz.partitions import Partition, enumerate_partitions, irrep_dimension
from cmkz.tensor_gaudin import sample_generic_z, spectral_points
from cmkz.wronski import wronski_fiber, wronski_map
from cmkz.polyalg import elementary_symmetric

CONFIG = VerificationConfig()  # seed 2024, trials 20, n = 2..4 plus (5, <=3 parts)


def _verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {name} {detail}")
    assert passed, f"criterion {number} ({name}) failed {detail}"


def test_criterion_1_l0_membership():
    rec = check_l0_membership(CONFIG)
    # spell the scaled bound out once, directly against the raw integrals
    rng = np.random.default_rng(0)
    z = sample_generic_z(3, rng)
    for sp in spectral_points(Partition((2, 1)), z, seed=1):
        fi = first_integrals(sp.z, sp.p)
        for a, value in enumerate(fi, start=1):
            assert abs(value) <= 1e-8 * (1.0 + np.abs(sp.p).max()) ** a
    _verdict(
        1,
        "zero-level membership with counts",
        rec.passed,
        f"(max scaled residual {rec.residuals['max_scaled_residual']:.2e}, "
        f"weighted totals = n! {rec.counts['weighted_totals_match_factorial']})",
    )


def test_criterion_3_closed_forms():
    rec = check_closed_forms(CONFIG)
    _verdict(
        3,
        "single row/column closed-form spectra",
        rec.passed,
        f"(max deviation {rec.residuals['max_deviation']:.2e} at 1e-10)",
    )


def test_criterion_4_bethe_correspondence():
    rec = check_bethe(CONFIG)
    _verdict(
        4,
        "Bethe critical points reproduce spectra",
        rec.passed,
        f"(grad {rec.residuals['max_grad_norm']:.1e}, match "
        f"{rec.residuals['max_match_distance']:.1e}, midpoint "
        f"{rec.residuals['midpoint_deviation']:.1e})",
    )


def test_criterion_5_q_level_set():
    rec = check_lq(CONFIG)
    _verdict(
        5,
        "deformed spectra fill the q-level set",
        rec.passed,
        f"(residual {rec.residuals['max_scaled_residual']:.2e}, trace "
        f"{rec.residuals['max_trace_deviation']:.2e})",
    )


def test_criterion_6_collision_multiplicities():
    rec = check_collision(CONFIG)
    _verdict(
        6,
        "q -> 0 collision multiplicities",
        rec.passed,
        f"(cluster sizes {rec.counts['cluster_sizes']}, match "
        f"{rec.residuals['max_match_distance']:.2e} at 1e-4)",
    )


def test_criterion_7_wronski_degree():
    # explicit fiber counts at 5 seeded generic targets per shape
    rng = np.random.default_rng(77)
    expected_by_shape = {(2, 0): 1, (1, 1): 1, (2, 1): 2, (2, 2): 2, (3, 1): 3}
    worst = 0.0
    ok = True
    for parts, expected in expected_by_shape.items():
        lam = Partition(parts)
        for _ in range(5):
            z = sample_generic_z(lam.n, rng)
            sigma = elementary_symmetric(z)
            sols = wronski_fiber(lam, sigma, seed=int(rng.integers(2**31)))
            if len(sols) != expected:
                ok = False
            for sol in sols:
                worst = max(worst, np.abs(wronski_map(lam, sol).w - sigma).max())
    ok = ok and worst <= 1e-9
    _verdict(7, "Wronski fiber cardinalities", ok, f"(max W residual {worst:.2e})")


def test_criterion_8_operator_identities():
    rec = check_operator_identities(CONFIG)
    _verdict(
        8,
        "diagonal, bivariate, and annihilation identities",
        rec.passed,
        f"(fla {rec.residuals['max_fla_residual']:.1e}, bivariate "
        f"{rec.residuals['max_bivariate_residual']:.1e}, annihilation "
        f"{rec.residuals['max_annihilation_residual']:.1e})",
    )


def test_criterion_9_structural_invariants():
    rec = check_structural_invariants(CONFIG)
    _verdict(
        9,
        "rank-one lift, Hamiltonian identities, gradients",
        rec.passed,
        f"(rank-one {rec.residuals['max_rank_one_residual']:.1e}, Hamiltonian "
        f"{rec.residuals['max_hamiltonian_mismatch']:.1e}, gradient FD "
        f"{rec.residuals['max_gradient_fd_mismatch']:.1e})",
    )


def test_criterion_10_replay_determinism():
    import json
    import subprocess
    import sys

    from cmkz.harness import run_suite
    from cmkz.serialize import canonical_json
    from conftest import cli_env

    cfg = VerificationConfig(
        n_max=3, trials=3, seed=99, suites=("l0", "lq")
    )
    same = canonical_json(run_suite(cfg).as_dict()) == canonical_json(
        run_suite(cfg).as_dict()
    )
    args = [
        sys.executable, "-m", "cmkz", "verify",
        "--suite", "lq", "--trials", "2", "--seed", "123",
    ]
    env = cli_env()
    a = subprocess.run(args, capture_output=True, text=True, timeout=600, env=env)
    b = subprocess.run(args, capture_output=True, text=True, timeout=600, env=env)
    cli_same = a.stdout == b.stdout and a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["passed"] is True
    _verdict(
        10,
        "identical reports under replay",
        same and cli_same,
        f"(library {same}, cli {cli_same})",
    )


def test_weighted_counts_totals():
    # supporting tally for criterion 1: sum over shapes of d * (points found)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        z = sample_generic_z(n, rng)
        total = 0
        for lam in enumerate_partitions(n, n):
            pts = spectral_points(lam, z, seed=8)
            assert len(pts) == irrep_dimension(lam)
            total += irrep_dimension(lam) * len(pts)
        assert total == math.factorial(n)
