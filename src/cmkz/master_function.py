"""Master functions, their gradients, and Bethe critical-point solving.

For a partition lam of n with levels l_1 >= ... >= l_{N-1} (l_a = sum of
parts below row a), the master function in positions z and auxiliary
variables t grouped by level is

    Phi(z, t) = sum_{a<b} log(z_a - z_b)
              - sum_a sum_{i<=l_1} log(t_i^(1) - z_a)
              + 2 sum_k sum_{i<j} log(t_i^(k) - t_j^(k))
              - sum_{k<=N-2} sum_{i,j} log(t_i^(k) - t_j^(k+1)).

Only level 1 interacts with z, and cross terms couple adjacent levels
only.  Critical points in t solve the Bethe equations; the momenta are
p_a = dPhi/dz_a.  The deformed variant adds linear terms
(q_{k+1} - q_k) per level-k variable and q_1 per z_a, with level sizes
fixed at (n-1, n-2, ..., 1).  The gradient in t, its Hessian, the
domain check and the cleared system all read one pole list, _pole_table.

Phi itself is defined modulo 2*pi*i.  The value and dPhi/dz below are
plain loops, kept apart from _pole_table as finite-difference references;
the value uses principal-branch logarithms, not branch-consistent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .newton import damped_newton, multistart
from .partitions import Partition, bethe_levels, irrep_dimension
from .polyalg import excluded_products, lexsorted, min_gap, require_distinct
from .serialize import pair_list


# starts per multistart search, undeformed and deformed
BETHE_BUDGET = 1344
DEFORMED_BETHE_BUDGET = 480


def level_sizes(lam: Partition) -> tuple[int, ...]:
    """Positive auxiliary-variable counts per level (trailing zeros dropped)."""
    rows = max(1, len(lam.trimmed))
    sizes = bethe_levels(lam, rows).l
    return tuple(s for s in sizes if s > 0)


def q_level_sizes(n: int) -> tuple[int, ...]:
    """Level sizes n-1, n-2, ..., 1 of the deformed master function."""
    return tuple(range(n - 1, 0, -1))


@dataclass(eq=False)
class BetheConfiguration:
    """Positions z plus auxiliary variables grouped by level."""

    z: np.ndarray
    t: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=complex).ravel()
        self.t = tuple(np.asarray(tk, dtype=complex).ravel() for tk in self.t)

    @property
    def flat_t(self) -> np.ndarray:
        if not self.t:
            return np.zeros(0, dtype=complex)
        return np.concatenate(self.t)

    def as_dict(self) -> dict:
        return {
            "z": pair_list(self.z),
            "t": [pair_list(tk) for tk in self.t],
        }


@dataclass(eq=False)
class CriticalPoint:
    """A converged Bethe configuration with its momenta p = dPhi/dz."""

    config: BetheConfiguration
    grad_norm: float
    p: np.ndarray

    def as_dict(self) -> dict:
        d = self.config.as_dict()
        d["p"] = pair_list(self.p)
        d["grad_norm"] = float(self.grad_norm)
        return d


def _split(flat: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    out = []
    pos = 0
    for s in sizes:
        out.append(flat[pos : pos + s])
        pos += s
    return tuple(out)


@lru_cache(maxsize=None)
def _pole_table(nz: int, sizes: tuple[int, ...]):
    """Poles and charges of each critical equation, the one list of them.

    Row r (the variable t_r, level 1 first) lists its poles as indices into
    concat(z, t) in the order z, own level, next level, previous level,
    padded to a common width.  Level 1 sees z with charge -1; every level
    sees itself with charge 2 and its neighbours with charge -1.  Returns
    (idx, coef, mask, level): pole indices, charges, the mask of real
    (unpadded) slots, and each row's level.
    """
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    L = len(sizes)
    rows: list[list[tuple[int, float]]] = []
    level = []
    for k, s in enumerate(sizes):
        for i in range(s):
            poles = [(a, -1.0) for a in range(nz)] if k == 0 else []
            poles += [(nz + offs[k] + j, 2.0) for j in range(s) if j != i]
            for kk in (k + 1, k - 1):
                if 0 <= kk < L:
                    poles += [(nz + v, -1.0) for v in range(offs[kk], offs[kk + 1])]
            rows.append(poles)
            level.append(k)
    width = max((len(p) for p in rows), default=0)
    idx = np.zeros((len(rows), width), dtype=int)
    coef = np.zeros((len(rows), width))
    mask = np.zeros((len(rows), width), dtype=bool)
    for r, poles in enumerate(rows):
        if poles:
            m = len(poles)
            idx[r, :m], coef[r, :m] = zip(*poles)
            mask[r, :m] = True
    table = (idx, coef, mask, np.array(level, dtype=int))
    for arr in table:
        arr.setflags(write=False)  # cached: shared by every caller
    return table


def _poles(z, sizes, t, linear=None):
    """Pole distances and charges of the critical equations at flat t, or
    at each row of a stack of flat t.

    Returns (d, coef, delta, idx, mask): d[..., r, u] = t_r - (pole u of
    row r), with d = 1 and charge 0 in padded slots; the charges; each
    row's linear term delta_r; and the pole indices and real-slot mask of
    _pole_table.  Row r of dPhi/dt is sum_u coef_u / d_u + delta_r.
    """
    idx, coef, mask, level = _pole_table(len(z), sizes)
    delta = (
        np.zeros(t.shape[-1], dtype=complex)
        if linear is None
        else np.asarray(linear, dtype=complex)[level]
    )
    nz = len(z)
    args = np.empty(t.shape[:-1] + (nz + t.shape[-1],), dtype=complex)
    args[..., :nz] = z
    args[..., nz:] = t
    # C order, so that sums over a row's poles run in one order, stacked or not
    d = np.ascontiguousarray(np.where(mask, t[..., :, None] - args[..., idx], 1.0))
    return d, coef, delta, idx, mask


def _chain(dG, idx, mask, nz) -> np.ndarray:
    """dF/dt of row functions F_r = G_r(d_r), given dG[..., r, u] = dG_r/dd_u,
    for one point or row by row for a stack.

    Every d_u of row r moves with t_r; a pole that is some t_v gives -dG
    against t_v, and the columns of the fixed z are dropped.  Padded
    slots must carry dG = 0.
    """
    l = dG.shape[-2]
    J = np.zeros(dG.shape[:-1] + (nz + l,), dtype=complex)
    J[..., np.nonzero(mask)[0], idx[mask]] = -dG[..., mask]
    J = J[..., nz:]
    diag = np.arange(l)
    J[..., diag, diag] += dG.sum(axis=-1)
    return J


def _grad_t_raw(z, sizes, t, linear=None):
    """dPhi/dt at flat t and its sup norm, row by row for a stack of t.

    The norm is inf outside the domain of Phi, which asks every argument
    pair to lie 1e-8 * max(1, |z|, |t|) apart; the gradient there is not
    meaningful.
    """
    d, coef, delta, _, mask = _poles(z, sizes, t, linear)
    gap = np.minimum(np.abs(d[..., mask]).min(axis=-1, initial=np.inf), min_gap(z))
    scale = np.maximum(
        max(1.0, np.abs(z).max(initial=0.0)), np.abs(t).max(axis=-1, initial=0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (coef / d).sum(axis=-1) + delta
    norm = np.where(gap >= 1e-8 * scale, np.abs(g).max(axis=-1, initial=0.0), np.inf)
    return g, norm[()]  # a scalar norm for a single t


def _hess_t_raw(z, sizes, t) -> np.ndarray:
    # d/dd_u of coef_u / d_u is -coef_u / d_u**2; row by row for a stack of t
    d, coef, _, idx, mask = _poles(z, sizes, t)
    return _chain(-coef / d**2, idx, mask, len(z))


def _grad_z_raw(z, tlevels, q1: complex = 0.0) -> np.ndarray:
    n = len(z)
    p = np.zeros(n, dtype=complex)
    t1 = tlevels[0] if tlevels else np.zeros(0, dtype=complex)
    for a in range(n):
        others = np.delete(z, a)
        if len(others):
            p[a] += np.sum(1.0 / (z[a] - others))
        if len(t1):
            p[a] += np.sum(1.0 / (t1 - z[a]))
        p[a] += q1
    return p


def _value_raw(z, tlevels, linear=None, qz: complex = 0.0) -> complex:
    val = 0.0 + 0j
    n = len(z)
    for a in range(n):
        for b in range(a + 1, n):
            val += np.log(z[a] - z[b])
    if tlevels and len(tlevels[0]):
        for ti in tlevels[0]:
            val -= np.sum(np.log(ti - z))
    for tk in tlevels:
        for i in range(len(tk)):
            for j in range(i + 1, len(tk)):
                val += 2.0 * np.log(tk[i] - tk[j])
    for k in range(len(tlevels) - 1):
        for ti in tlevels[k]:
            for tj in tlevels[k + 1]:
                val -= np.log(ti - tj)
    if linear is not None:
        for k, tk in enumerate(tlevels):
            val += linear[k] * np.sum(tk)
    val += qz * np.sum(z)
    return complex(val)


def _flat(tlevels) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=complex), *tlevels])


def _checked_levels(z, t, sizes) -> tuple[np.ndarray, ...]:
    """t grouped by level, if the level sizes match and Phi is defined there."""
    tlevels = tuple(np.asarray(tk, dtype=complex).ravel() for tk in t)
    got = tuple(len(tk) for tk in tlevels)
    if got != sizes:
        raise ValueError(f"level sizes {got} do not match {sizes}")
    if _grad_t_raw(z, sizes, _flat(tlevels))[1] == np.inf:
        raise ValueError("argument collision inside the master function domain")
    return tlevels


def _coerce_levels(lam: Partition, z, t):
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != lam.n:
        raise ValueError(f"need {lam.n} positions for {lam!r}")
    return z, _checked_levels(z, t, level_sizes(lam))


def grad_t(lam: Partition, z, t) -> np.ndarray:
    """dPhi/dt for all auxiliary variables, level 1 first."""
    z, tlevels = _coerce_levels(lam, z, t)
    return _grad_t_raw(z, level_sizes(lam), _flat(tlevels))[0]


def grad_z(lam: Partition, z, t) -> np.ndarray:
    """Momenta p_a = sum_{b != a} 1/(z_a - z_b) + sum_i 1/(t_i^(1) - z_a)."""
    z, tlevels = _coerce_levels(lam, z, t)
    return _grad_z_raw(z, tlevels)


def master_value(lam: Partition, z, t) -> complex:
    """Principal-branch value of Phi; well defined modulo 2*pi*i."""
    z, tlevels = _coerce_levels(lam, z, t)
    return _value_raw(z, tlevels)


def _checked_q(q, n: int) -> tuple[np.ndarray, tuple]:
    """n pairwise distinct exponents q, and the level terms q_{k+1} - q_k."""
    q = np.asarray(q, dtype=complex).ravel()
    if len(q) != n:
        raise ValueError("q must match the number of positions")
    require_distinct(q, 1e-12, "exponents q")
    return q, tuple(q[k + 1] - q[k] for k in range(n - 1))


def _coerce_levels_q(q, z, t):
    z = np.asarray(z, dtype=complex).ravel()
    q, linear = _checked_q(q, len(z))
    return q, z, _checked_levels(z, t, q_level_sizes(len(z))), linear


def grad_t_q(q, z, t) -> np.ndarray:
    """dPhi_q/dt: the undeformed gradient plus (q_{k+1} - q_k) per level."""
    q, z, tlevels, linear = _coerce_levels_q(q, z, t)
    return _grad_t_raw(z, q_level_sizes(len(z)), _flat(tlevels), linear)[0]


def grad_z_q(q, z, t) -> np.ndarray:
    """Momenta of the deformed master function; adds q_1 to each dPhi/dz_a."""
    q, z, tlevels, _ = _coerce_levels_q(q, z, t)
    return _grad_z_raw(z, tlevels, q1=q[0])


def master_value_q(q, z, t) -> complex:
    q, z, tlevels, linear = _coerce_levels_q(q, z, t)
    return _value_raw(z, tlevels, linear, qz=q[0])


def _canonical_levels(tlevels) -> tuple[np.ndarray, ...]:
    return tuple(lexsorted(tk) for tk in tlevels)


def _random_start(rng, z, size, widen: float = 1.0):
    center = np.mean(z)
    radius = widen * (1.4 * max(np.abs(z - center).max(), 0.25) + 0.3)
    r = radius * np.sqrt(rng.uniform(size=size))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return center + r * np.exp(1j * theta)


def _hull_start(rng, z, size):
    # undeformed critical points interlace the z cloud (Gauss-Lucas for the
    # top level), so convex combinations of z with jitter cover their basins
    # far more densely than a uniform disc
    weights = rng.dirichlet(np.ones(len(z)), size=size)
    pts = weights @ z
    spread = max(np.abs(z - np.mean(z)).max(), 0.2)
    jitter = 0.2 * spread * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return pts + jitter


def _cleared_system(z, sizes, tflat, linear):
    """Denominator-cleared critical equations F and their scales S, row by
    row for a stack of flat t.

    Each gradient component sum_w c_w/(t_r - w) + delta_r is multiplied by
    the product of its pole distances d_w = t_r - w, so near-pole
    evaluations stay finite and cancellation-free; padded slots carry
    d = 1 and c = 0.
    """
    d, coef, delta, _, _ = _poles(z, sizes, tflat, linear)
    partial = excluded_products(d)
    full = partial[..., 0] * d[..., 0]
    terms = coef * partial
    # delta spelled out to full's shape: numpy multiplies a broadcast complex
    # operand in another loop, which can round differently, and for a single
    # variable that loop would differ between one point and a stack
    linear_terms = np.broadcast_to(delta, full.shape).copy() * full
    F = terms.sum(axis=-1) + linear_terms
    S = np.abs(terms).sum(axis=-1) + np.abs(linear_terms) + 1e-300
    return F, S


def _cleared_jacobian(z, sizes, tflat, linear) -> np.ndarray:
    """dF/dt of the cleared system, row by row for a stack of flat t.

    With G_r(d) = F_r, dG_r/dd_u = sum_{w != u} c_w prod_{s not in {w, u}}
    d_s + delta_r prod_{s != u} d_s, and dF_r/dt_r = sum_u dG_r/dd_u while
    dF_r/dt_v = -dG_r/dd_u when pole u is t_v (z is fixed).
    """
    d, coef, delta, idx, mask = _poles(z, sizes, tflat, linear)
    # pair[..., r, u, w] = prod_{s not in {u, w}} d_s (and prod_{s != u} at
    # w = u), from the row with d_u set to 1; charge delta_r stands in at w = u
    eye = np.eye(d.shape[-1], dtype=bool)
    pair = excluded_products(np.where(eye, 1.0, d[..., None, :]))
    charge = np.where(eye, delta[:, None, None], coef[:, None, :])
    dG = np.einsum("ruw,...ruw->...ru", charge, pair) * mask
    return _chain(dG, idx, mask, len(z))


def _cleared_residual(z, sizes, t, linear):
    """The cleared system and its sup norm relative to the scales S, row by
    row for a stack of flat t; the system is defined everywhere."""
    F, S = _cleared_system(z, sizes, t, linear)
    return F, np.abs(F / S).max(axis=-1)


def _poly_newton(z, sizes, T0, linear, rel_tol=1e-9, max_iter=45):
    """Globalizing stage: damped Newton on the cleared polynomial system,
    from each row of the stack T0.

    The polynomial residual grows at infinity, so the escape ray of the
    rational system is repelling here.  The Jacobian is analytic (see
    _cleared_jacobian); a returned point is only a candidate for
    polishing, and a stall below 1e-6 still counts as one.
    """

    def residual(T):
        return _cleared_residual(z, sizes, T, linear)

    def jacobian(T):
        return _cleared_jacobian(z, sizes, T, linear)

    return damped_newton(residual, jacobian, T0, rel_tol, max_iter, accept=1e-6)


def _critical_points(z, sizes, linear, q1, budget, tol, seed, expected):
    """Multistart two-stage Newton: cleared system, then dPhi/dt itself."""
    if not sizes:
        return [CriticalPoint(BetheConfiguration(z, ()), 0.0, _grad_z_raw(z, (), q1))]
    rng = np.random.default_rng(seed)
    total = sum(sizes)

    # deformed roots scale like charge / |q gap|, so cover wider shells too
    widths = [1.0]
    if linear is not None:
        gap = min(abs(d) for d in linear) if linear else 1.0
        wide = min(60.0, 1.0 + 2.0 * (len(z) + total) / max(gap, 1e-3))
        widths = [1.0, wide / 3.0, wide]
    # without linear terms the gradient decays like 1/t, so Newton has an
    # escape ray t -> 2t; cut those iterates off early.  With linear terms
    # the gradient tends to a nonzero constant instead, and genuine roots
    # can sit far out when the q gaps are small, so no cutoff applies.
    escape = 25.0 * (1.0 + np.abs(z).max()) if linear is None else np.inf

    def grad(t):
        return _grad_t_raw(z, sizes, t, linear)

    def hess(t):
        return _hess_t_raw(z, sizes, t)

    def draw(k):
        if linear is None and k % 2 == 0:
            return _hull_start(rng, z, total)
        return _random_start(rng, z, total, widen=widths[k % len(widths)])

    def solve(T0):
        out = [None] * len(T0)
        rough = _poly_newton(z, sizes, T0, linear)
        rows = [r for r, t in enumerate(rough) if t is not None]
        if not rows:
            return out
        R = np.stack([rough[r] for r in rows])
        # a cleared-system root with a large gradient lies on an excluded
        # diagonal
        on_domain = ~(grad(R)[1] > 1e-5)
        if not on_domain.any():
            return out
        # the two polish steps push each root from the loose tolerance to
        # machine precision along the quadratic tail
        polished = damped_newton(
            grad, hess, R[on_domain], tol, 60, polish=2, escape=escape
        )
        for r, t in zip(np.asarray(rows)[on_domain], polished):
            if t is not None:
                out[r] = np.concatenate(_canonical_levels(_split(t, sizes)))
        return out

    out = []
    for t in multistart(draw, solve, budget, expected):
        tl = _split(t, sizes)
        gn = float(_grad_t_raw(z, sizes, t, linear)[1])
        p = _grad_z_raw(z, tl, q1)
        out.append(CriticalPoint(BetheConfiguration(z, tl), gn, p))
    return out


def solve_bethe(
    lam: Partition, z, tol: float = 1e-10, seed: int = 0
) -> list[CriticalPoint]:
    """Multistart damped Newton on dPhi/dt = 0.

    Critical points are canonicalized by sorting each level by (re, im)
    and deduplicated at 1e-6 relative.  For generic z the count equals
    irrep_dimension(lam): the search stops there or after BETHE_BUDGET
    starts, and the caller compares.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != lam.n:
        raise ValueError(f"need {lam.n} positions for {lam!r}")
    expected = irrep_dimension(lam)
    return _critical_points(
        z, level_sizes(lam), None, 0.0, BETHE_BUDGET, tol, seed, expected
    )


def solve_bethe_q(q, z, tol: float = 1e-10, seed: int = 0) -> list[CriticalPoint]:
    """Critical points of the deformed master function.

    The search stops at the expected count n! or after
    DEFORMED_BETHE_BUDGET starts; the caller compares the count.
    """
    z = np.asarray(z, dtype=complex).ravel()
    n = len(z)
    q, linear = _checked_q(q, n)
    expected = factorial(n)
    return _critical_points(
        z, q_level_sizes(n), linear, q[0], DEFORMED_BETHE_BUDGET, tol, seed, expected
    )
