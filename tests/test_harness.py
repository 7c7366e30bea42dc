import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cmkz import calogero_moser as cm
from cmkz import harness
from cmkz import master_function as mf
from cmkz import wronski as wr
from cmkz.calogero_moser import l0_residual
from cmkz.harness import (
    BOUNDS,
    CHECKS,
    SUITES,
    TOL,
    VerificationConfig,
    check_seed,
    collision_study,
    match_points,
    run_suite,
)
from cmkz.partitions import Partition, irrep_dimension
from cmkz.polyalg import elementary_symmetric
from cmkz.serialize import canonical_json
from cmkz.tensor_gaudin import (
    SpectralPoint,
    generalized_spectrum,
    sample_generic_z,
    spectral_points,
)
from conftest import cli_env


def test_match_points_identity():
    pts = [np.array([1.0 + 1j, 2.0]), np.array([3.0, 4.0 - 1j])]
    res = match_points(pts, pts, 1e-12)
    assert res.ok
    assert res.max_distance == 0.0
    assert {(i, j) for i, j, _ in res.pairs} == {(0, 0), (1, 1)}


def test_match_points_failure_reports_both_sides():
    res = match_points([np.array([0.0])], [np.array([2.0])], tol=1.0)
    assert not res.ok
    assert res.unmatched_a == (0,) and res.unmatched_b == (0,)


def test_match_points_permutation_with_noise():
    rng = np.random.default_rng(0)
    A = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
    perm = rng.permutation(5)
    tol = 1e-6
    B = [A[k] + (tol / 10.0) * rng.standard_normal(3) for k in perm]
    res = match_points(A, B, tol)
    assert res.ok
    assert res.max_distance <= tol


def test_match_points_size_mismatch():
    res = match_points([np.array([0.0])], [np.array([0.0]), np.array([1.0])], 1e-6)
    assert not res.ok
    assert res.unmatched_b


def test_match_points_finds_a_within_tolerance_assignment_min_sum_misses():
    # cost [[0.9, 0], [1.5, 0.9]]: the min-sum assignment is the swap, whose
    # 1.5 is past tol, while the identity keeps both distances at 0.9
    c = -0.63 / 1.62
    A = [np.array([0.0]), np.array([0.9 * (c + 1j * math.sqrt(1.0 - c * c))])]
    B = [np.array([0.9]), np.array([0.0])]
    res = match_points(A, B, tol=1.0)
    assert res.ok
    assert [(i, j) for i, j, _ in res.pairs] == [(0, 0), (1, 1)]
    assert res.unmatched_a == () and res.unmatched_b == ()
    assert res.max_distance == pytest.approx(0.9)


def test_match_points_lists_what_each_side_left_unmatched():
    # A_0 and A_1 can both only take B_0
    A = [np.array([0.0]), np.array([0.1]), np.array([5.0])]
    B = [np.array([0.05]), np.array([9.0]), np.array([5.0])]
    res = match_points(A, B, tol=0.2)
    assert not res.ok
    assert [(i, j) for i, j, _ in res.pairs] == [(0, 0), (2, 2)]
    assert res.unmatched_a == (1,) and res.unmatched_b == (1,)


def test_match_points_reports_each_stray_distance_to_the_nearest_entry():
    # A_1 and A_2 are left unmatched, 0.3 and 0.5 from their nearest B entry
    # of the same length; the length-3 entry is never nearest
    A = [np.array([0.0, 0.0]), np.array([0.3, 0.0]), np.array([2.0, 1j])]
    B = [np.array([0.0, 0.1]), np.array([2.0, 1.5j]), np.zeros(3)]
    res = match_points(A, B, tol=0.2)
    assert res.unmatched_a == (1, 2)
    assert res.stray_distances == pytest.approx((0.3, 0.5))
    assert match_points(A, A, 1e-12).stray_distances == ()
    empty = match_points(A, [], 1e-6)
    assert not empty.ok and empty.stray_distances == (np.inf,) * 3


def test_match_points_never_joins_tuples_of_different_length():
    res = match_points([np.zeros(2)], [np.zeros(3)], tol=1.0)
    assert not res.ok
    assert res.pairs == () and res.unmatched_a == (0,) and res.unmatched_b == (0,)
    assert match_points([], [], 1e-6).ok


@pytest.mark.parametrize("module", ["cmkz", "cmkz.cli"])
def test_importing_cmkz_loads_no_scipy(module):
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        timeout=600,
        env=cli_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_importing_cmkz_leaves_scipy_optimize_unloaded():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cmkz; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=600,
        env=cli_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_collision_study_two_particles():
    rep = collision_study(2, np.array([1.0, -0.5 + 0.4j]), seed=3)
    assert rep.resolved
    sizes = sorted(c.size for c in rep.clusters)
    assert sizes == [1, 1]
    lams = {c.lam.trimmed for c in rep.clusters}
    assert lams == {(2,), (1, 1)}
    for c in rep.clusters:
        assert c.eigenspace_dim == irrep_dimension(c.lam)
        assert c.match_distance < 1e-4


def test_collision_study_three_particles():
    rep = collision_study(3, np.array([1.0 + 0.3j, -0.7 + 0.1j, 0.2 - 0.9j]), seed=5)
    assert rep.resolved
    assert sorted(c.size for c in rep.clusters) == [1, 1, 2, 2]
    assert sorted(rep.per_lambda_sizes[(2, 1)]) == [2, 2]
    assert rep.per_lambda_sizes[(3,)] == [1]
    assert rep.per_lambda_sizes[(1, 1, 1)] == [1]


def test_collision_study_unresolved_when_the_tuples_miss_the_limits():
    # at s = 1e-3 the first-order drift keeps every tuple 2.4e-4 to 5.3e-4
    # from its limit, past TOL.collision_match: each is its own record
    q0 = np.array([1.0 + 0.3j, -0.7 + 0.1j, 0.2 - 0.9j])
    rep = collision_study(3, q0, s=1e-3, seed=5)
    assert not rep.resolved
    assert [c.size for c in rep.clusters] == [1] * 6
    assert rep.per_lambda_sizes == {}
    for c in rep.clusters:
        assert c.lam is None and c.eigenspace_dim == 0
        assert TOL.collision_match < c.match_distance < 1e-3


def test_collision_study_unresolved_far_from_the_limits():
    q0 = np.array([1.0 + 0.3j, -0.7 + 0.1j, 0.2 - 0.9j])
    rep = collision_study(3, q0, s=1.0, seed=5)
    assert not rep.resolved
    assert [c.size for c in rep.clusters] == [1] * 6
    for c in rep.clusters:
        assert c.lam is None and c.eigenspace_dim == 0
        assert c.match_distance > TOL.collision_match


def test_collision_study_unresolved_when_a_tuple_lands_on_the_wrong_limit(
    monkeypatch,
):
    # one tuple of a (2,1) limit moved onto the (3) limit: every tuple lies
    # on some limit, but (3) has room for one tuple only
    real = harness.generalized_spectrum

    def moved(z, q, **kw):
        pts = real(z, q, **kw)
        top = np.array([np.sum(1.0 / (z[a] - np.delete(z, a))) for a in range(3)])
        near = spectral_points(Partition((2, 1)), z, seed=0)[0].p
        k = int(np.argmin([np.abs(sp.p - near).max() for sp in pts]))
        pts[k] = SpectralPoint(pts[k].z, top, pts[k].residual)
        return pts

    monkeypatch.setattr(harness, "generalized_spectrum", moved)
    q0 = np.array([1.0 + 0.3j, -0.7 + 0.1j, 0.2 - 0.9j])
    rep = collision_study(3, q0, seed=5)
    assert not rep.resolved
    assert sum(c.size for c in rep.clusters) == 6
    (stray,) = [c for c in rep.clusters if c.lam is None]
    assert stray.match_distance < TOL.collision_match
    assert rep.per_lambda_sizes[(3,)] == [1]
    assert sorted(rep.per_lambda_sizes[(2, 1)]) == [1, 2]


def test_collision_study_solves_only_the_smallest_scale(monkeypatch):
    solved = []
    real = harness.generalized_spectrum

    def spy(z, q, **kw):
        solved.append(np.abs(q).max())
        return real(z, q, **kw)

    monkeypatch.setattr(harness, "generalized_spectrum", spy)
    q0 = np.array([1.0, -0.5 + 0.4j])
    collision_study(2, q0, s=1e-3, seed=3)
    assert solved == [pytest.approx(1e-3 * np.abs(q0).max())]


def test_collision_study_validates_input():
    with pytest.raises(ValueError):
        collision_study(3, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        collision_study(5, np.arange(5.0))


def test_corrupted_momenta_fail_membership():
    rng = np.random.default_rng(1)
    z = sample_generic_z(3, rng)
    sp = spectral_points(Partition((2, 1)), z, seed=2)[0]
    assert l0_residual(sp.z, sp.p) < 1e-8
    bad = sp.p.copy()
    bad[0] += 0.1
    assert l0_residual(sp.z, bad) > 1e-8


def test_check_seed_stable():
    assert check_seed(2024, "l0-membership") == check_seed(2024, "l0-membership")
    assert check_seed(2024, "l0-membership") != check_seed(2024, "closed-forms")
    assert check_seed(1, "l0-membership") != check_seed(2, "l0-membership")


def test_run_suite_subset_and_determinism():
    cfg = VerificationConfig(
        n_max=3, trials=2, seed=7, suites=("l0", "lq")
    )
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    assert rep1.passed
    assert {r.suite for r in rep1.records} == {"l0", "lq"}
    assert canonical_json(rep1.as_dict()) == canonical_json(rep2.as_dict())


def test_run_suite_records_follow_registry():
    cfg = VerificationConfig(n_max=2, trials=1, seed=11, suites=("l0", "lq"))
    records = run_suite(cfg).records
    registered = [(cid, s) for cid, (s, _) in CHECKS.items() if s in cfg.suites]
    assert [(r.check, r.suite) for r in records] == registered
    assert [r.seed for r in records] == [check_seed(11, cid) for cid, _ in registered]
    assert all(r.error is None for r in records)


@pytest.mark.parametrize("n_max", [2, 4, 5, 6])
def test_l0_cases_listed_once(n_max):
    cases = harness._l0_case_list(VerificationConfig(n_max=n_max))
    keys = [(n, lam.trimmed) for n, lam in cases]
    assert len(keys) == len(set(keys))


def test_raising_check_is_recorded_and_the_rest_still_run(monkeypatch):
    def broken(config):
        raise RuntimeError("solver diverged")

    monkeypatch.setitem(CHECKS, "closed-forms", ("l0", broken))
    cfg = VerificationConfig(n_max=2, trials=1, seed=5, suites=("l0", "lq"))
    rep = run_suite(cfg)
    by_id = {r.check: r for r in rep.records}
    assert list(by_id) == ["l0-membership", "closed-forms", "lq-membership"]
    bad = by_id.pop("closed-forms")
    assert (bad.suite, bad.seed, bad.passed) == ("l0", check_seed(5, "closed-forms"), False)
    assert bad.error == "RuntimeError: solver diverged"
    assert (bad.residuals, bad.bounds) == ({}, BOUNDS["closed-forms"])
    assert not rep.passed
    assert all(r.passed and r.error is None for r in by_id.values())


def test_direct_check_call_raises(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("no spectrum")

    monkeypatch.setattr(harness, "spectral_points", fail)
    with pytest.raises(ValueError):
        harness.check_closed_forms(VerificationConfig())


def test_starved_bethe_search_undercounts_and_fails_the_check(monkeypatch):
    # the Bethe routes read their critical points off the Wronski fiber, so
    # a starved fiber search starves them
    monkeypatch.setattr(wr, "WRONSKI_BUDGET", 1)
    z = sample_generic_z(4, np.random.default_rng(0))
    assert len(mf.solve_bethe(Partition((2, 1, 1)), z, seed=0)) < 3
    rec = harness.check_bethe(VerificationConfig())
    assert not rec.passed
    assert rec.counts["2,1,1"]["found"] < rec.counts["2,1,1"]["expected"] == 3


def test_an_unmatched_critical_point_reports_its_distance(monkeypatch):
    # with one spectral point moved off its critical point the matching
    # fails, and the residual must show the gap, not only the matched pairs
    real = harness.spectral_points

    def shifted(*args, **kwargs):
        pts = real(*args, **kwargs)
        first = pts[0]
        moved = first.p + np.eye(len(first.p))[0] * 1e-3
        return [SpectralPoint(first.z, moved, first.residual), *pts[1:]]

    monkeypatch.setattr(harness, "spectral_points", shifted)
    rec = harness.check_bethe(VerificationConfig())
    assert rec.passed is False
    assert all(c["found"] == c["expected"] for c in rec.counts.values())
    assert rec.residuals["max_match_distance"] >= 1e-3 * (1 - 1e-9)


def test_nan_first_integrals_fail_l0_membership(monkeypatch):
    monkeypatch.setattr(
        cm, "first_integrals", lambda z, p: np.full_like(np.moveaxis(p, -1, 0), np.nan)
    )
    rec = harness.check_l0_membership(VerificationConfig(n_max=2, trials=1))
    assert rec.passed is False
    assert math.isnan(rec.residuals["max_scaled_residual"])
    # the report keeps the NaN as Python's bare JSON token, not 0.0 or null
    body = canonical_json(rec.residuals)
    assert '"max_scaled_residual": NaN' in body
    assert math.isnan(json.loads(body)["max_scaled_residual"])


def _first_point_twice_last_dropped(solver):
    """A mutant of a stacked spectral solver: each family keeps its length,
    but repeats its first point in place of its last."""

    def mutant(*args, **kwargs):
        return [pts[:1] + pts[:-1] for pts in solver(*args, **kwargs)]

    return mutant


@pytest.mark.parametrize(
    "name,check",
    [
        ("spectral_points", harness.check_l0_membership),
        ("generalized_spectrum", harness.check_lq),
    ],
)
def test_a_repeated_point_fails_the_membership_count(monkeypatch, name, check):
    # every entry still lies on the level set and each family has its full
    # length, so only counting distinct points sees the lost one
    mutant = _first_point_twice_last_dropped(getattr(harness, name))
    monkeypatch.setattr(harness, name, mutant)
    rec = check(VerificationConfig(trials=2))
    assert rec.passed is False
    assert rec.residuals["max_scaled_residual"] <= TOL.residual
    if name == "spectral_points":
        assert rec.counts["per_lambda"]["2,1"] == {"expected": 2, "found": [1]}
        assert rec.counts["weighted_totals_match_factorial"] is False


def test_a_wrong_elementary_symmetric_fails_wronski_degree(monkeypatch):
    # the fiber then solves for a target whose roots are not z, which the W
    # residual cannot see: it reads the same wrong target
    def skewed(values):
        e = elementary_symmetric(values)
        if e.shape[-1] >= 3:
            e[..., 2] *= 1.0 + 1e-3
        return e

    monkeypatch.setattr(harness, "elementary_symmetric", skewed)
    rec = harness.check_wronski_degree(VerificationConfig())
    assert rec.passed is False
    assert all(c["found"] == [c["expected"]] * 5 for c in rec.counts.values())
    assert rec.residuals["max_w_residual"] <= TOL.fiber
    assert rec.residuals["max_root_distance"] > TOL.match


def test_nan_fla_residual_fails_operator_identities(monkeypatch):
    monkeypatch.setattr(wr, "fla_residual", lambda lam, x: np.nan)
    rep = run_suite(VerificationConfig(suites=("identities",)))
    rec = {r.check: r for r in rep.records}["operator-identities"]
    assert rec.passed is False and rec.error is None
    assert math.isnan(rec.residuals["max_fla_residual"])
    assert rep.passed is False


@pytest.mark.parametrize(
    "value,passed",
    [(TOL.identity, True), (np.nextafter(TOL.identity, np.inf), False)],
)
def test_a_residual_at_its_bound_passes_and_one_past_it_fails(
    monkeypatch, value, passed
):
    monkeypatch.setattr(wr, "fla_residual", lambda lam, x: value)
    rec = harness.check_operator_identities(VerificationConfig())
    assert rec.residuals["max_fla_residual"] == value
    assert rec.passed is passed


def _reference_structural_draws(rng):
    """The draws of structural-invariants as one loop per trial, each
    finite difference taken one perturbed point at a time."""

    def in_domain(value_fn, z, t):
        flat = np.concatenate([z, *t])
        sizes = [len(tk) for tk in t]
        points = [flat] + [flat + s * 1e-6 * e for e in np.eye(len(flat)) for s in (1, -1)]
        try:
            for v in points:
                value_fn(v[: len(z)], mf._split(v[len(z) :], sizes))
        except ValueError:
            return False
        return True

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        sample_generic_z(n, rng)
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lams = [l for l in harness.enumerate_partitions(n, n) if mf.level_sizes(l)]
        lam = lams[int(rng.integers(len(lams)))]
        z = sample_generic_z(n, rng)
        t = [3.0 * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
             for s in mf.level_sizes(lam)]
        if not in_domain(lambda zz, tt: mf.master_value(lam, zz, tt), z, t):
            continue
        q = sample_generic_z(n, rng, radius=1.5)
        t = [3.0 * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
             for s in mf.q_level_sizes(n)]
        in_domain(lambda zz, tt: mf.master_value_q(q, zz, tt), z, t)


def _reference_operator_draws(rng):
    """The draws of operator-identities: one tuple per partition for the
    diagonal and annihilation identities, then the bivariate trials."""
    for n in range(1, 6):
        for lam in harness.enumerate_partitions(n, n):
            wr.random_poly_tuple(lam, rng)
    for n in range(2, 5):
        for lam in harness.enumerate_partitions(n, n):
            done = 0
            for _ in range(40):
                if done >= 3:
                    break
                x = wr.random_poly_tuple(lam, rng)
                try:
                    wr.bivariate_identity_residual(lam, x, seed=int(rng.integers(2**31)))
                except ValueError:
                    continue
                done += 1


def _reference_l0_trials(rng):
    """l0-membership as one spectral_points and one l0_residual call per
    trial, drawing z and then the probe seed; the scaled residuals."""
    config = VerificationConfig()
    scaled = []
    for n, lam in harness._l0_case_list(config):
        for _ in range(config.trials):
            z = sample_generic_z(n, rng)
            pts = spectral_points(lam, z, tol=TOL.eigen, seed=int(rng.integers(2**31)))
            scaled.append(l0_residual(z, [sp.p for sp in pts]))
    return np.hstack(scaled)


def _reference_lq_trials(rng):
    """lq-membership as one generalized_spectrum call per trial, drawing z,
    q and then the probe seed; the scaled residuals."""
    scaled = []
    for n in (2, 3):
        for _ in range(VerificationConfig().trials):
            z = sample_generic_z(n, rng)
            q = sample_generic_z(n, rng, radius=1.5)
            pts = generalized_spectrum(z, q, seed=int(rng.integers(2**31)))
            scaled.append(cm.lq_residual(z, np.array([sp.p for sp in pts]), q))
    return np.hstack(scaled)


@pytest.mark.parametrize("seed", [2024, 1, 7])
@pytest.mark.parametrize(
    "check,reference",
    [
        (harness.check_structural_invariants, _reference_structural_draws),
        (harness.check_operator_identities, _reference_operator_draws),
        (harness.check_l0_membership, _reference_l0_trials),
        (harness.check_lq, _reference_lq_trials),
    ],
)
def test_stacked_check_bodies_draw_as_a_per_trial_loop(check, reference, seed):
    body_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    check.__wrapped__(VerificationConfig(seed=seed), body_rng)
    reference(ref_rng)
    assert body_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "check,reference",
    [
        (harness.check_l0_membership, _reference_l0_trials),
        (harness.check_lq, _reference_lq_trials),
    ],
)
def test_stacked_spectra_score_as_a_per_trial_loop_bit_for_bit(check, reference):
    _, _, res = check.__wrapped__(VerificationConfig(), np.random.default_rng(2024))
    expected = reference(np.random.default_rng(2024))
    assert res["max_scaled_residual"].tobytes() == expected.tobytes()


def test_rejected_gradient_trials_skip_their_draws_as_a_per_trial_loop(monkeypatch):
    # no sampled trial leaves the domain at the usual seeds, so a stricter
    # domain, rejecting any point with re z_1 > 0.5, exercises the skip: in
    # the reference's master_value and in the check's domain rule, in_domain
    real = mf.master_value
    real_domain = mf.in_domain

    def strict(lam, z, t):
        if np.any(np.real(z)[..., 0] > 0.5):
            raise ValueError("argument collision inside the master function domain")
        return real(lam, z, t)

    def strict_domain(z, t, sizes):
        return real_domain(z, t, sizes) & ~(np.real(z)[..., 0] > 0.5)

    monkeypatch.setattr(mf, "master_value", strict)
    monkeypatch.setattr(mf, "in_domain", strict_domain)
    body_rng = np.random.default_rng(3)
    ref_rng = np.random.default_rng(3)
    _, _, res = harness.check_structural_invariants.__wrapped__(
        VerificationConfig(), body_rng
    )
    _reference_structural_draws(ref_rng)
    assert body_rng.bit_generator.state == ref_rng.bit_generator.state
    assert 0 < len(res["max_gradient_fd_mismatch"]) < 150


def test_an_out_of_domain_phi_q_trial_drops_only_itself_from_its_stack(monkeypatch):
    def body():
        rng = np.random.default_rng(2024)
        out = harness.check_structural_invariants.__wrapped__(VerificationConfig(), rng)
        return rng.bit_generator.state, out

    seen = []
    real_grad, real_domain = mf.grad_t_q, mf.in_domain

    def spy(q, z, t):
        seen.append(np.concatenate(t, axis=-1))
        return real_grad(q, z, t)

    monkeypatch.setattr(mf, "grad_t_q", spy)
    state, (counted, counts, res) = body()
    star = seen[0][1]  # the second Phi_q trial of the first stack

    def reject_star(z, t, sizes):
        near = (t.shape[-1] == star.shape[-1]) and np.abs(t - star).max(axis=-1) < 1e-3
        return real_domain(z, t, sizes) & ~near

    monkeypatch.setattr(mf, "grad_t_q", real_grad)
    monkeypatch.setattr(mf, "in_domain", reject_star)
    state_one, (counted_one, counts_one, res_one) = body()
    assert state_one == state
    assert counted and counted_one
    assert counts_one["gradient_trials"] == counts["gradient_trials"] - 1
    full = np.sort(res["max_gradient_fd_mismatch"])
    kept = np.sort(res_one["max_gradient_fd_mismatch"])
    assert len(kept) == len(full) - 1
    # every other comparison keeps its bits
    assert np.isin(kept, full).all() and len(np.setdiff1d(full, kept)) == 1


def test_operator_identities_evaluate_the_diagonal_identity_once_per_partition(
    monkeypatch,
):
    calls = []
    real = wr.fla_residual

    def counted(lam, x):
        assert isinstance(x, wr.PolyTuple)  # one tuple, not a stack
        calls.append(lam.trimmed)
        return real(lam, x)

    monkeypatch.setattr(wr, "fla_residual", counted)
    rec = harness.check_operator_identities(VerificationConfig())
    every = [
        lam.trimmed for n in range(1, 6) for lam in harness.enumerate_partitions(n, n)
    ]
    assert calls == every and len(calls) == 18
    assert rec.passed and rec.residuals["max_fla_residual"] == 0.0


@pytest.mark.parametrize("gradient", ["grad_z", "grad_t_q"])
def test_a_starved_gradient_check_fails(monkeypatch, gradient):
    # every trial leaves the domain, so no gradient is ever compared
    def outside(*args):
        raise ValueError("argument collision inside the master function domain")

    monkeypatch.setattr(mf, gradient, outside)
    rec = harness.check_structural_invariants(VerificationConfig())
    assert rec.counts["gradient_trials"] == 0
    assert rec.passed is False


def test_every_reported_residual_has_a_declared_bound():
    records = run_suite(VerificationConfig(seed=2024)).records
    assert len(records) == len(CHECKS)
    declared = 0
    for rec in records:
        bounds = BOUNDS[rec.check]
        assert set(rec.residuals) == set(bounds)
        assert rec.bounds == bounds
        declared += len(bounds)
    assert declared == 16


_BETHE_COUNTS = {
    k: {"expected": d, "found": d}
    for k, d in {"1,1": 1, "2,1": 2, "2,2": 2, "3,1": 3, "2,1,1": 3}.items()
}


_FIBER_COUNTS = {
    "2,0": {"expected": 1, "found": [1] * 5},
    "1,1": {"expected": 1, "found": [1] * 5},
    "2,1": {"expected": 2, "found": [2] * 5},
    "2,2": {"expected": 2, "found": [2] * 5},
    "3,1": {"expected": 3, "found": [3] * 5},
}

_L0_COUNTS = {
    "per_lambda": {
        k: {"expected": d, "found": [d]}
        for k, d in {
            "2": 1, "1,1": 1, "3": 1, "2,1": 2, "1,1,1": 1, "4": 1, "3,1": 3,
            "2,2": 2, "2,1,1": 3, "1,1,1,1": 1, "5": 1, "4,1": 4, "3,2": 5,
            "3,1,1": 6, "2,2,1": 5,
        }.items()
    },
    "weighted_totals_match_factorial": True,
}

# Check records frozen bit for bit, residuals as hex floats; seed 1000205
# is one of the seeds where a direct multistart on the Bethe equations found
# 2 of the 3 points of (2,1,1), and the fiber populations find all 3.  The
# l0, closed-forms, lq and collision records read the Gaudin spectra
# through the transposition tables, and all of them but lq, with the Bethe
# match distance, read a singular space; so a change to how
# either is built, or to how joint_eigen reads the eigenvalues back, shows
# here record by record
PINNED_RECORDS = {
    (2024, "l0-membership"): (
        True,
        _L0_COUNTS,
        {
            "max_scaled_residual": "0x1.8291eec96b64ap-48",
        },
    ),
    (2024, "closed-forms"): (
        True,
        {"n_range": [2, 5]},
        {
            "max_deviation": "0x1.6a09e667f3bcdp-50",
        },
    ),
    (2024, "bethe-correspondence"): (
        True,
        _BETHE_COUNTS,
        {
            "max_grad_norm": "0x1.6a09e667f3bcdp-45",
            "max_match_distance": "0x1.869c1a85cc346p-46",
            "midpoint_deviation": "0x1.0000000000000p-56",
        },
    ),
    (2024, "lq-membership"): (
        True,
        {"trials": 20, "n_values": [2, 3]},
        {
            "max_scaled_residual": "0x1.ee9e48f63019ap-51",
            "max_trace_deviation": "0x1.fc60b84dec0fdp-49",
        },
    ),
    (2024, "wronski-degree"): (
        True,
        _FIBER_COUNTS,
        {
            "max_w_residual": "0x1.8000000000000p-51",
            "max_root_distance": "0x1.0bb9658180c1ep-44",
        },
    ),
    (2024, "operator-identities"): (
        True,
        {"partition_sets": "n <= 5 (diagonal), n <= 4 (bivariate)"},
        {
            "max_fla_residual": "0x0.0p+0",
            "max_bivariate_residual": "0x1.d5f3b374d9322p-48",
            "max_annihilation_residual": "0x1.dab6bdb22968cp-53",
        },
    ),
    (2024, "structural-invariants"): (
        True,
        {"rank_one_trials": 1000, "gradient_trials": 100},
        {
            "max_rank_one_residual": "0x1.99afe5da93ad4p-51",
            "max_hamiltonian_mismatch": "0x1.efc47526c983cp-49",
            "max_gradient_fd_mismatch": "0x1.40a36f5e603e1p-29",
        },
    ),
    (2024, "collision-multiplicity"): (
        True,
        {
            "cluster_sizes": [1, 1, 2, 2],
            "per_lambda": {"3": [1], "2,1": [2, 2], "1,1,1": [1]},
        },
        {
            "max_match_distance": "0x1.e9389d38d858bp-21",
        },
    ),
    (1000205, "bethe-correspondence"): (
        True,
        _BETHE_COUNTS,
        {
            "max_grad_norm": "0x1.e8368ba3e13b2p-46",
            "max_match_distance": "0x1.2071b0abcd838p-46",
            "midpoint_deviation": "0x0.0p+0",
        },
    ),
    (1000205, "wronski-degree"): (
        True,
        _FIBER_COUNTS,
        {
            "max_w_residual": "0x1.07e0f66afed07p-51",
            "max_root_distance": "0x1.a2c2943e2867cp-49",
        },
    ),
}


@pytest.mark.parametrize("seed,cid", list(PINNED_RECORDS))
def test_solver_records_are_pinned(seed, cid):
    passed, counts, residuals = PINNED_RECORDS[(seed, cid)]
    rec = CHECKS[cid][1](VerificationConfig(seed=seed))
    assert rec.passed is passed
    assert rec.counts == counts
    assert {k: float(v).hex() for k, v in rec.residuals.items()} == residuals


def test_registry_order_and_public_names():
    assert list(CHECKS) == [
        "l0-membership",
        "closed-forms",
        "bethe-correspondence",
        "lq-membership",
        "wronski-degree",
        "operator-identities",
        "structural-invariants",
        "collision-multiplicity",
    ]
    for _, fn in CHECKS.values():
        assert fn.__name__.startswith("check_")
        assert getattr(harness, fn.__name__) is fn


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(VerificationConfig(suites=("nope",)))


def test_config_digest_tracks_content():
    a = VerificationConfig(seed=1)
    b = VerificationConfig(seed=2)
    assert a.digest() == VerificationConfig(seed=1).digest()
    assert a.digest() != b.digest()


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cmkz", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=cli_env(),
    )


def test_cli_spectrum():
    out = _run_cli("spectrum", "--lambda", "2,1", "--seed", "5")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["count"] == payload["expected"] == 2
    assert len(payload["points"][0]["p"]) == 3


def test_cli_spectrum_reads_the_rows_from_the_partition():
    # --lambda 2,1,0 is the shape 2,1: the same payload, byte for byte
    narrow = _run_cli("spectrum", "--lambda", "2,1", "--seed", "5")
    wide = _run_cli("spectrum", "--lambda", "2,1,0", "--seed", "5")
    assert narrow.returncode == wide.returncode == 0
    assert wide.stdout == narrow.stdout


def test_cli_spectrum_n_mismatch_is_usage_error():
    out = _run_cli("spectrum", "--n", "4", "--lambda", "2,1")
    assert out.returncode == 2


def test_cli_fiber():
    out = _run_cli("fiber", "--lambda", "1,1", "--sigma-seed", "4")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["found"] == payload["expected"] == 1
    assert max(payload["w_residuals"]) < 1e-9


def test_cli_verify_subset_and_exit_code(tmp_path):
    path = tmp_path / "report.json"
    out = _run_cli(
        "verify", "--suite", "lq", "--trials", "2", "--seed", "3", "--json", str(path)
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["passed"] is True
    assert json.loads(path.read_text()) == payload


def test_cli_verify_deterministic_stdout():
    args = ("verify", "--suite", "lq", "--trials", "2", "--seed", "3")
    a = _run_cli(*args)
    b = _run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_verify_l0_at_n_max_5():
    args = ("--n-max", "5", "--suite", "l0", "--trials", "1", "--seed", "1")
    out = _run_cli("verify", *args)
    assert out.returncode == 0
    records = {r["check"]: r for r in json.loads(out.stdout)["records"]}
    assert list(records) == ["l0-membership", "closed-forms"]
    for rec in records.values():
        assert rec["passed"] and rec["error"] is None


def test_cli_bad_usage_exits_2():
    out = _run_cli("verify", "--suite", "bogus")
    assert out.returncode == 2
    out = _run_cli("spectrum", "--lambda", "1,2")
    assert out.returncode == 2
    out = _run_cli("verify", "--jobs", "2")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "args,message",
    [
        (("verify", "--trials", "0"), "trials at least 1"),
        (("verify", "--n-max", "0"), "n_max must be at least 2"),
        (("verify", "--n-max", "1"), "n_max must be at least 2"),
        (("fiber", "--lambda", "0"), "bad partition '0'"),
    ],
    ids=["trials-0", "n-max-0", "n-max-1", "lambda-0"],
)
def test_cli_empty_configs_are_usage_errors(args, message):
    # a config that leaves nothing to count is a usage error, not a check
    # result, and a partition of 0 never reaches the fiber solver
    out = _run_cli(*args)
    assert out.returncode == 2
    assert message in out.stderr
    assert out.stdout == ""


def test_config_rejects_empty_sweeps():
    with pytest.raises(ValueError, match="trials"):
        VerificationConfig(trials=0)
    with pytest.raises(ValueError, match="n_max"):
        VerificationConfig(n_max=1)
    # an empty suite list would pass with no records
    for suites in [(), ("nope",), ("l0", "nope")]:
        with pytest.raises(ValueError, match="^suites must be one or more of l0, lq, "):
            VerificationConfig(suites=suites)


def test_suite_names_cover_registry():
    assert set(SUITES) == {suite for suite, _ in CHECKS.values()}
