"""Suite orchestration: point-set matching, the q -> 0 collision study
(the deformed tuples matched onto the q = 0 limits, each limit listed
with its multiplicity), and the named verification checks behind the
command line.

Each check is declared once, by the ``_check`` decorator, with its id,
suite, claim and bounded residuals; the decorator registers it in
``CHECKS``, its bounds in ``BOUNDS``, and derives its generator from
(master seed, check id), so replay with one config is bit-stable and no
check's draws depend on another's.  ``_check`` alone decides pass or fail,
by one rule: the counts came out as expected and each bounded residual's
largest value, NaN if any value is NaN, is at most its bound in the one
table ``TOL``.  A config sets only the sweep size, the trial count, the
seed and the suites.  Reports carry no timestamps; bodies of identical
runs compare equal.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, field, asdict
from functools import wraps
from typing import Callable

import numpy as np

from . import calogero_moser as cm
from . import master_function as mf
from . import wronski as wr
from .partitions import Partition, enumerate_partitions, irrep_dimension
from .polyalg import (
    distinct_count,
    elementary_symmetric,
    lex_key,
    match_within,
    require_distinct,
)
from .serialize import canonical_json
from .tensor_gaudin import (
    generalized_gaudin,
    generalized_spectrum,
    joint_eigenspace_dim,
    sample_generic_z,
    spectral_points,
)

SUITES = ("l0", "lq", "bethe", "wronski", "identities", "collision")


@dataclass(frozen=True)
class Tolerances:
    eigen: float = 1e-8
    bethe: float = 1e-10
    residual: float = 1e-8
    match: float = 1e-6
    closed_form: float = 1e-10
    fiber: float = 1e-9
    identity: float = 1e-10
    bivariate: float = 1e-8
    annihilation: float = 1e-12
    rank_one: float = 1e-12
    gradient_fd: float = 1e-5
    collision_match: float = 1e-4
    midpoint: float = 1e-12
    trace: float = 1e-10


TOL = Tolerances()  # the bounds every check reads

# l0 cases past the full sweep n = 2..n_max, as (n, max parts); an entry
# with n <= n_max is already in the sweep and is dropped
EXTRA_L0_CASES = ((5, 3),)


@dataclass(frozen=True)
class VerificationConfig:
    n_max: int = 4
    trials: int = 20
    seed: int = 2024
    suites: tuple[str, ...] = SUITES

    def __post_init__(self):
        # below these a sweep is empty or its n! totals are never checked
        if self.n_max < 2 or self.trials < 1:
            raise ValueError("n_max must be at least 2 and trials at least 1")
        if not self.suites or not set(self.suites) <= set(SUITES):
            raise ValueError(
                f"suites must be one or more of {', '.join(SUITES)}; "
                f"got {list(self.suites)}"
            )

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(asdict(self)).encode()).hexdigest()[:16]


def check_seed(master_seed: int, check_id: str) -> int:
    return int(
        np.random.SeedSequence([master_seed, zlib.crc32(check_id.encode())])
        .generate_state(1)[0]
    )


# ---------------------------------------------------------------------------
# point-set matching


@dataclass(eq=False)
class MatchResult:
    ok: bool
    pairs: tuple[tuple[int, int, float], ...]
    unmatched_a: tuple[int, ...]
    unmatched_b: tuple[int, ...]
    # per unmatched A entry, its distance to the nearest B entry
    stray_distances: tuple[float, ...]

    @property
    def max_distance(self) -> float:
        return max((d for _, _, d in self.pairs), default=0.0)


def match_points(A, B, tol: float) -> MatchResult:
    """Match two sets of complex tuples on their tolerance graph.

    A_i and B_j are joined when their tuples have one length and their
    sup distance is at most tol; match_within picks a maximum matching of
    that graph.  Succeeds iff the sets have equal size and some assignment
    keeps every distance within tol.  The pairs (i, j, distance) come in
    row order; a failure lists the entries each side left unmatched, and
    each unmatched A entry's sup distance to the nearest B entry of its
    length (inf if there is none).
    """
    A = [np.asarray(a, dtype=complex).ravel() for a in A]
    B = [np.asarray(b, dtype=complex).ravel() for b in B]
    cost = np.full((len(A), len(B)), np.inf)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if len(a) == len(b):
                cost[i, j] = np.abs(a - b).max()
    partner = match_within(cost <= tol)
    rows = np.flatnonzero(partner >= 0)
    pairs = tuple((int(i), int(partner[i]), float(cost[i, partner[i]])) for i in rows)
    unmatched_a = tuple(np.flatnonzero(partner < 0).tolist())
    unmatched_b = tuple(sorted(set(range(len(B))).difference(partner.tolist())))
    stray = tuple(cost[list(unmatched_a)].min(axis=1, initial=np.inf).tolist())
    ok = len(A) == len(B) and not unmatched_a and not unmatched_b
    return MatchResult(ok, pairs, unmatched_a, unmatched_b, stray)


# ---------------------------------------------------------------------------
# collision study


@dataclass(eq=False)
class ClusterRecord:
    point: np.ndarray  # the q = 0 limit, or the unmatched tuple itself
    size: int
    lam: Partition | None
    match_distance: float
    eigenspace_dim: int


@dataclass(eq=False)
class CollisionReport:
    z: np.ndarray
    clusters: list[ClusterRecord]
    resolved: bool
    per_lambda_sizes: dict[tuple[int, ...], list[int]]


def collision_study(
    n: int, q_direction, s: float = 1e-6, seed: int = 0
) -> CollisionReport:
    """The joint spectrum of H_a(z, s*q0) near its q = 0 limit.

    A semisimple eigenvalue splits linearly in s, so each of the n! tuples
    lies within O(s) of its limit.  The tuples are matched by match_points
    within TOL.collision_match onto the per-partition spectra at q = 0,
    each limit of lam listed d_lam times, so a successful match puts
    exactly d_lam tuples on every limit.  Each limit that takes tuples gets
    one record: their count, their largest distance to it and the joint
    eigenspace dimension at q = 0 measured there.  Each unmatched tuple
    gets its own record: no partition, dimension 0 and its distance to
    the nearest limit.  The study is resolved iff the match succeeds and
    every limit's eigenspace dimension equals its d_lam.
    """
    if n > 4:
        raise ValueError("collision study supports n <= 4")
    q0 = np.asarray(q_direction, dtype=complex).ravel()
    if len(q0) != n:
        raise ValueError(f"q_direction must have {n} entries")
    require_distinct(q0, 1e-12, "q_direction entries")
    rng = np.random.default_rng(seed)
    z = sample_generic_z(n, rng)

    limits = [
        (lam, sp.p)
        for lam in enumerate_partitions(n, n)
        for sp in spectral_points(lam, z, seed=seed + 1)
    ]
    # the index of each limit, once per tuple expected on it
    slots = [
        j for j, (lam, _) in enumerate(limits) for _ in range(irrep_dimension(lam))
    ]
    final = [sp.p for sp in generalized_spectrum(z, s * q0, seed=seed + 2)]
    match = match_points(final, [limits[j][1] for j in slots], TOL.collision_match)
    landed: dict[int, list[float]] = {}
    for _, k, dist in match.pairs:
        landed.setdefault(slots[k], []).append(dist)

    mats0 = generalized_gaudin(z, np.zeros(n))
    clusters = []
    per_lambda: dict[tuple[int, ...], list[int]] = {}
    resolved = match.ok
    for j, dists in sorted(landed.items()):
        lam, p = limits[j]
        dim = joint_eigenspace_dim(mats0, p)
        resolved = resolved and dim == irrep_dimension(lam)
        per_lambda.setdefault(lam.trimmed, []).append(len(dists))
        clusters.append(ClusterRecord(p, len(dists), lam, max(dists), dim))
    for i, dist in zip(match.unmatched_a, match.stray_distances):
        clusters.append(ClusterRecord(final[i], 1, None, dist, 0))
    clusters.sort(key=lambda c: lex_key(c.point))
    return CollisionReport(z, clusters, resolved, per_lambda)


# ---------------------------------------------------------------------------
# named checks


@dataclass(eq=False)
class CheckRecord:
    check: str
    suite: str
    claim: str
    seed: int
    passed: bool
    counts: dict
    residuals: dict
    bounds: dict  # residual key -> its bound, from BOUNDS
    details: dict = field(default_factory=dict)
    error: str | None = None


CHECKS: dict[str, tuple[str, Callable[[VerificationConfig], CheckRecord]]] = {}
BOUNDS: dict[str, dict[str, float]] = {}  # check id -> residual key -> bound


def _check(cid: str, suite: str, claim: str, bounds: dict[str, float]):
    """Register ``body(config, rng) -> (counted, counts, residuals[, details])``
    as check ``cid`` of ``suite``, in definition order.

    ``bounds`` maps each bounded residual key to its bound in ``TOL``; the
    body gives that key the list of its values, and ``counted`` says only
    whether the points, totals and matchings it found are the expected ones.
    Each list is reported as its largest value, NaN if any value is NaN and
    0.0 if it is empty, and the check passes only when ``counted`` holds and
    every such value is at most its bound, so a NaN residual fails.

    The registered function takes the config alone: it seeds the generator
    with check_seed(config.seed, cid) and builds the CheckRecord, which
    carries ``bounds`` beside the residuals.  ``bounds`` is kept in
    ``BOUNDS[cid]``.
    """

    def register(body):
        @wraps(body)
        def check(config: VerificationConfig) -> CheckRecord:
            seed = check_seed(config.seed, cid)
            counted, counts, res, *details = body(config, np.random.default_rng(seed))
            for key in bounds:
                res[key] = float(np.max(res[key], initial=0.0))
            passed = counted and all(res[k] <= b for k, b in bounds.items())
            return CheckRecord(
                cid, suite, claim, seed, passed, counts, res, dict(bounds), *details
            )

        CHECKS[cid] = (suite, check)
        BOUNDS[cid] = bounds
        return check

    return register


def _l0_case_list(config: VerificationConfig):
    cases = [(n, n) for n in range(2, config.n_max + 1)]
    cases += [(n, parts) for n, parts in EXTRA_L0_CASES if n > config.n_max]
    return [(n, lam) for n, parts in cases for lam in enumerate_partitions(n, parts)]


@_check(
    "l0-membership",
    "l0",
    "joint Gaudin spectra on singular subspaces satisfy the zero-level "
    "equations of the Calogero-Moser first integrals",
    {"max_scaled_residual": TOL.residual},
)
def check_l0_membership(config, rng):
    """Joint Gaudin tuples on singular weight spaces lie on the zero level
    of every first integral, with the per-partition counts d and the
    weighted total n!.

    Each partition's trials are drawn first, z and then the probe seed per
    trial, as a per-trial loop draws them; then all of them are solved as
    one stack of Gaudin families, scored by one l0_residual call and
    counted by one distinct_count call: a family counts its distinct
    tuples, not its entries."""
    counted = True
    scaled = []
    count_rows = {}
    full_range = range(2, config.n_max + 1)
    weighted = {n: 0 for n in full_range}
    for n, lam in _l0_case_list(config):
        d = irrep_dimension(lam)
        z, seeds = zip(*(
            (sample_generic_z(n, rng), int(rng.integers(2**31)))
            for _ in range(config.trials)
        ))
        spectra = spectral_points(lam, np.array(z), tol=TOL.eigen, seed=seeds)
        found = set(distinct_count([[sp.p for sp in pts] for pts in spectra]).tolist())
        counted = counted and found == {d}
        points = [sp for pts in spectra for sp in pts]
        scaled.append(cm.l0_residual([sp.z for sp in points], [sp.p for sp in points]))
        count_rows[",".join(map(str, lam.trimmed))] = {
            "expected": d,
            "found": sorted(found),
        }
        if n in weighted and len(found) == 1:
            weighted[n] += d * found.pop()
    totals_ok = all(weighted[n] == math.factorial(n) for n in full_range)
    return (
        counted and totals_ok,
        {"per_lambda": count_rows, "weighted_totals_match_factorial": totals_ok},
        {"max_scaled_residual": np.hstack(scaled)},
    )


@_check(
    "closed-forms",
    "l0",
    "single-row and single-column spectra match the explicit pole sums",
    {"max_deviation": TOL.closed_form},
)
def check_closed_forms(config, rng):
    """Row and column extreme partitions have explicit one-point spectra."""
    counted = True
    deviations = []
    for n in range(2, 6):
        z = sample_generic_z(n, rng)
        expected = np.array(
            [np.sum(1.0 / (z[a] - np.delete(z, a))) for a in range(n)]
        )
        for lam, sign in ((Partition((n,)), 1.0), (Partition((1,) * n), -1.0)):
            pts = spectral_points(lam, z, seed=int(rng.integers(2**31)))
            if len(pts) != 1:
                counted = False
                continue
            deviations.append(np.abs(pts[0].p - sign * expected).max())
    return (
        counted,
        {"n_range": [2, 5]},
        {"max_deviation": deviations},
    )


BETHE_CASES = ((1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1))


@_check(
    "bethe-correspondence",
    "bethe",
    "Bethe critical points map onto the joint Gaudin spectra with the "
    "full critical count",
    {
        "max_grad_norm": TOL.bethe,
        "max_match_distance": TOL.match,
        "midpoint_deviation": TOL.midpoint,
    },
)
def check_bethe(config, rng):
    """Critical points of the master function reproduce the joint spectra."""
    counted = True
    grad_norms, distances, midpoint = [], [], []
    counts = {}
    for parts in BETHE_CASES:
        lam = Partition(parts)
        d = irrep_dimension(lam)
        z = sample_generic_z(lam.n, rng)
        crits = mf.solve_bethe(lam, z, tol=TOL.bethe, seed=int(rng.integers(2**31)))
        counts[",".join(map(str, parts))] = {"expected": d, "found": len(crits)}
        if len(crits) != d:
            counted = False
            continue
        grad_norms += [c.grad_norm for c in crits]
        pts = spectral_points(lam, z, seed=int(rng.integers(2**31)))
        crit_p = np.array([c.p for c in crits])
        spec_p = np.array([sp.p for sp in pts])
        res = match_points(crit_p, spec_p, TOL.match)
        # a critical point left unmatched reports its distance to the nearest
        # spectral point
        distances += [res.max_distance, *res.stray_distances]
        counted = counted and res.ok
        if parts == (1, 1):
            t = crits[0].config.t[0][0]
            midpoint.append(abs(t - (z[0] + z[1]) / 2.0))
    return (
        counted,
        counts,
        {
            "max_grad_norm": grad_norms,
            "max_match_distance": distances,
            "midpoint_deviation": midpoint,
        },
    )


@_check(
    "lq-membership",
    "lq",
    "joint spectra of the deformed Hamiltonians solve Q_a = e_a(q) with "
    "trace e_1(q)",
    {"max_scaled_residual": TOL.residual, "max_trace_deviation": TOL.trace},
)
def check_lq(config, rng):
    """The deformed spectra fill the q-level set of the first integrals.

    For each n the trials are drawn first, z, q and then the probe seed
    per trial, as a per-trial loop draws them; then all of them are solved
    as one stack of generalized Gaudin families, whose distinct tuples
    are counted by one distinct_count call and scored by one lq_residual
    call, each family against its own q."""
    counted = True
    scaled, trace_devs = [], []
    for n in (2, 3):
        zs, qs, seeds = zip(*(
            (sample_generic_z(n, rng), sample_generic_z(n, rng, radius=1.5),
             int(rng.integers(2**31)))
            for _ in range(config.trials)
        ))
        zs, qs = np.array(zs), np.array(qs)
        spectra = generalized_spectrum(zs, qs, seed=seeds)
        families = np.array([[sp.p for sp in pts] for pts in spectra])
        distinct = distinct_count(families)
        counted = counted and bool(np.all(distinct == math.factorial(n)))
        scaled.append(cm.lq_residual(zs[:, None], families, qs[:, None]).ravel())
        trace_devs.append(
            np.abs(families.sum(axis=-1) - qs.sum(axis=-1)[:, None]).ravel()
        )
    return (
        counted,
        {"trials": config.trials, "n_values": [2, 3]},
        {
            "max_scaled_residual": np.hstack(scaled),
            "max_trace_deviation": np.hstack(trace_devs),
        },
    )


FIBER_CASES = ((2, 0), (1, 1), (2, 1), (2, 2), (3, 1))


@_check(
    "wronski-degree",
    "wronski",
    "Wronski fibers at generic targets carry exactly the irrep dimension "
    "of solutions",
    {"max_w_residual": TOL.fiber, "max_root_distance": TOL.match},
)
def check_wronski_degree(config, rng):
    """Fiber cardinalities of the Wronski map at generic targets.

    Each partition's five targets are drawn first, z and then the search
    seed per target, as a per-target loop draws them; then all five are
    searched as one lockstep wronski_fiber call.  Each found tuple's
    Wronskian, on poly_det, must match the target both in its W_a and in
    its roots, matched against z as a set: the root gate reads no e_k, so a
    wrong elementary_symmetric cannot move its target.
    """
    counted = True
    w_residuals, root_distances = [], []
    counts = {}
    targets = 5
    for parts in FIBER_CASES:
        lam = Partition(parts)
        n = lam.n
        d = irrep_dimension(lam)
        zs, seeds = zip(*(
            (sample_generic_z(n, rng), int(rng.integers(2**31)))
            for _ in range(targets)
        ))
        sigmas = elementary_symmetric(np.array(zs))
        fibers = wr.wronski_fiber(lam, sigmas, tol=TOL.fiber, seed=seeds)
        found_counts = []
        for z, sigma, sols in zip(zs, sigmas, fibers):
            found_counts.append(len(sols))
            counted = counted and len(sols) == d
            for sol in sols:
                w = wr.wronski_map(lam, sol)
                w_residuals.append(np.abs(w.w - sigma).max())
                roots = w.roots()
                match = match_points(roots, z, TOL.match)
                counted = counted and match.ok
                # a root left unmatched reports its distance to the nearest z
                root_distances += [match.max_distance, *match.stray_distances]
        counts[",".join(map(str, parts))] = {
            "expected": d,
            "found": found_counts,
        }
    return (
        counted,
        counts,
        {"max_w_residual": w_residuals, "max_root_distance": root_distances},
    )


@_check(
    "operator-identities",
    "identities",
    "the annihilating operator satisfies the diagonal-coefficient and "
    "bivariate determinant identities",
    {
        "max_fla_residual": TOL.identity,
        "max_bivariate_residual": TOL.bivariate,
        "max_annihilation_residual": TOL.annihilation,
    },
)
def check_operator_identities(config, rng):
    """Diagonal coefficient identity, bivariate determinant identity, and
    annihilation of the source tuple.

    Per partition, one tuple serves both the diagonal identity and the
    annihilation test: the identity reads only the operator table's
    constant term, so a second tuple would give the same value.
    """
    counted = True
    fla, bivariate, annihilation = [], [], []
    for n in range(1, 6):
        for lam in enumerate_partitions(n, n):
            x = wr.random_poly_tuple(lam, rng)
            fla.append(wr.fla_residual(lam, x))
            op = wr.fundamental_operator(lam, x)
            annihilation += [op.annihilation_residual(f) for f in x.polys()]
    for n in range(2, 5):
        for lam in enumerate_partitions(n, n):
            done = 0
            for _ in range(40):
                if done >= 3:
                    break
                x = wr.random_poly_tuple(lam, rng)
                try:
                    r = wr.bivariate_identity_residual(
                        lam, x, seed=int(rng.integers(2**31))
                    )
                except ValueError:
                    continue  # tuple outside the simple-root stratum
                bivariate.append(r)
                done += 1
            counted = counted and done >= 3
    return (
        counted,
        {"partition_sets": "n <= 5 (diagonal), n <= 4 (bivariate)"},
        {
            "max_fla_residual": fla,
            "max_bivariate_residual": bivariate,
            "max_annihilation_residual": annihilation,
        },
    )


_FD_STEP = 1e-6  # central-difference step h of the gradient trials


def _fd_points(x: np.ndarray) -> np.ndarray:
    """Central-difference points of each row of the stack x, shape (m, L):
    the (2L, m, L) stack of x + h e_k for k = 1..L, then x - h e_k."""
    steps = _FD_STEP * np.eye(x.shape[-1])[:, None, :]
    return np.concatenate([x + steps, x - steps])


def _defined_near(x: np.ndarray, n: int, sizes) -> np.ndarray:
    """Per row of the stack x of (z, flat t): whether Phi with these level
    sizes is defined at the row and at its central-difference points, all
    of them decided in one stacked mf.in_domain call."""
    pts = np.concatenate([x[None], _fd_points(x)])
    return mf.in_domain(pts[..., :n], pts[..., n:], sizes).all(axis=0)


def _gradient_mismatches(x, n, sizes, arg, value, grad_z, grad_t):
    """Relative mismatch between the analytic gradient (grad_z, grad_t) of
    value(arg, z, t) and its central differences, one per row of the stack
    x of (z, flat t); arg is a partition or a stack of q, one per row.
    Each of the three functions is called once, on the whole stack; None if
    one of them finds a point outside the domain."""
    L = x.shape[-1]
    pts = _fd_points(x)
    t = mf._split(x[:, n:], sizes)
    try:
        analytic = np.concatenate(
            [grad_z(arg, x[:, :n], t), grad_t(arg, x[:, :n], t)], axis=-1
        )
        values = value(arg, pts[..., :n], mf._split(pts[..., n:], sizes))
    except ValueError:
        return None
    fd = ((values[:L] - values[L:]) / (2.0 * _FD_STEP)).T
    return np.abs(analytic - fd).max(axis=-1) / np.maximum(
        1.0, np.abs(analytic).max(axis=-1)
    )


def _draw_levels(rng, sizes) -> np.ndarray:
    """Flat t of a gradient trial, level by level."""
    return np.concatenate(
        [3.0 * (rng.standard_normal(s) + 1j * rng.standard_normal(s)) for s in sizes]
    )


@_check(
    "structural-invariants",
    "identities",
    "the rank-one lift, Hamiltonian coefficient identities, and analytic "
    "gradients hold at random inputs",
    {
        "max_rank_one_residual": TOL.rank_one,
        "max_hamiltonian_mismatch": TOL.identity,
        "max_gradient_fd_mismatch": TOL.gradient_fd,
    },
)
def check_structural_invariants(config, rng):
    """Rank-one lift, Hamiltonian identities, and gradient consistency.

    The 1000 rank-one trials are drawn one after another as before, then
    evaluated as one stack per n.  Each of the 100 gradient trials compares
    the gradients of Phi, then of Phi_q, with central differences.  The
    draw loop decides whether Phi is defined at a trial's point and its
    difference points, in one stacked call; a Phi trial outside the domain
    skips the Phi_q draws.  Then the trials of each partition are compared
    as one Phi stack and one Phi_q stack; a Phi_q trial outside the domain
    drops out of its stack.  ``gradient_trials`` counts the trials that
    compared both, and the check fails if none did.
    """
    by_n: dict[int, list] = {n: [] for n in range(2, 7)}
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        z = sample_generic_z(n, rng)
        by_n[n].append((z, rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    rank_one, hamiltonian, gradient = [], [], []
    for draws in by_n.values():
        if not draws:
            continue
        z, p = (np.array(a) for a in zip(*draws))
        point = cm.xi(z, p)
        rank_one.append(cm.rank_one_residual(point))
        h = cm.cm_hamiltonian(z, p)
        q1, q2 = cm.first_integrals(z, p)[:2]
        tr2 = np.trace(point.Q @ point.Q, axis1=-2, axis2=-1)
        scale = np.maximum(1.0, np.abs(h))
        hamiltonian += [np.abs(h - tr2) / scale, np.abs(h - (q1**2 - 2.0 * q2)) / scale]

    shapes = {
        n: [l for l in enumerate_partitions(n, n) if mf.level_sizes(l)]
        for n in range(2, 5)
    }
    groups: dict[Partition, list] = {}  # one object per shape -> its trials
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lam = shapes[n][int(rng.integers(len(shapes[n])))]
        z = sample_generic_z(n, rng)
        x = np.concatenate([z, _draw_levels(rng, mf.level_sizes(lam))])
        if not _defined_near(x[None], n, mf.level_sizes(lam))[0]:
            continue  # sampled configuration too close to a collision
        q = sample_generic_z(n, rng, radius=1.5)
        xq = np.concatenate([z, _draw_levels(rng, mf.q_level_sizes(n))])
        groups.setdefault(lam, []).append((x, q, xq))
    trials = 0
    for lam, rows in groups.items():
        n = lam.n
        x, q, xq = (np.array(a) for a in zip(*rows))
        r = _gradient_mismatches(
            x, n, mf.level_sizes(lam), lam, mf.master_value, mf.grad_z, mf.grad_t
        )
        keep = _defined_near(xq, n, mf.q_level_sizes(n))
        r_q = _gradient_mismatches(
            xq[keep], n, mf.q_level_sizes(n), q[keep],
            mf.master_value_q, mf.grad_z_q, mf.grad_t_q,
        )
        gradient += [g for g in (r, r_q) if g is not None]
        if r is not None and r_q is not None:
            trials += len(r_q)
    return (
        trials > 0,
        {"rank_one_trials": 1000, "gradient_trials": trials},
        {
            "max_rank_one_residual": np.concatenate(rank_one),
            "max_hamiltonian_mismatch": np.concatenate(hamiltonian),
            "max_gradient_fd_mismatch": np.concatenate([np.zeros(0), *gradient]),
        },
    )


@_check(
    "collision-multiplicity",
    "collision",
    "as q -> 0 the n! deformed tuples merge onto the per-partition "
    "spectra in groups of the irrep dimension",
    {"max_match_distance": TOL.collision_match},
)
def check_collision(config, rng):
    """Group sizes and limit points of the q -> 0 degeneration at n = 3.

    The resolved study already puts d_lam tuples on each limit, with a
    joint eigenspace of dimension d_lam there; the sizes are also held to
    the independent expectation 1, 1, 2, 2 of the four limits at n = 3."""
    q0 = np.array([1.0 + 0.3j, -0.7 + 0.1j, 0.2 - 0.9j])
    report = collision_study(3, q0, seed=int(rng.integers(2**31)))
    sizes = sorted(c.size for c in report.clusters)
    return (
        report.resolved and sizes == [1, 1, 2, 2],
        {
            "cluster_sizes": sizes,
            "per_lambda": {
                ",".join(map(str, k)): v for k, v in report.per_lambda_sizes.items()
            },
        },
        {"max_match_distance": [c.match_distance for c in report.clusters]},
        {"resolved": report.resolved},
    )


@dataclass(eq=False)
class Report:
    config: VerificationConfig
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "config_digest": self.config.digest(),
            "seed": self.config.seed,
            "records": [asdict(r) for r in self.records],
            "passed": self.passed,
        }


def run_suite(config: VerificationConfig) -> Report:
    """Run the selected suites; deterministic given (config, seed).

    Checks run one after another in CHECKS order, each looked up there when
    it runs.  A check that raises is recorded as failed, not fatal, with
    its registry id, suite and seed and the error as "<Type>: <message>".
    """
    records = []
    for cid, (suite, fn) in CHECKS.items():
        if suite not in config.suites:
            continue
        try:
            records.append(fn(config))
        except Exception as exc:  # recorded, not fatal
            records.append(
                CheckRecord(
                    cid,
                    suite,
                    "check aborted",
                    check_seed(config.seed, cid),
                    False,
                    {},
                    {},
                    dict(BOUNDS[cid]),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return Report(config, records)
