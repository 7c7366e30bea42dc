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
fixed at (n-1, n-2, ..., 1).  The gradient in t, its Hessian and the
domain check all read one pole list, _pole_table.

Critical points are not searched for directly.  They are read off the
populations of a Wronski fiber (Mukhin and Varchenko, "Critical points
of master functions and flag varieties"): for a tuple (f_1, ..., f_n) in
the fiber over prod_a (u - z_a), the level-a roots are the roots of the
tail Wronskian Wr(f_{a+1}, ..., f_n), polynomial tuples for lam and
quasi-exponentials e^(q_i u)(u + c_i) for the deformed case.  So the
d_lambda fiber points give the d_lambda critical points, and plain
Newton on dPhi/dt (full steps, newton.stacked_newton) only polishes them.

Phi itself is defined modulo 2*pi*i.  The value and dPhi/dz below are
plain loops, kept apart from _pole_table as finite-difference references;
the value uses principal-branch logarithms, not branch-consistent ones.
The value and gradient functions also take stacks of (z, t), z of shape
(..., n) and each level of shape (..., l_k) with the same leading axes,
and evaluate every row in one pass of the same loops; a single point is
the unbatched case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyalg as pa
from .newton import stacked_newton
from .partitions import Partition, bethe_levels
from .polyalg import is_new_point, lex_key, lexsorted, min_gap, require_distinct
from .serialize import pair_list
from .wronski import wronski_fiber, wronski_fiber_q, wronskian


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
    """The levels of flat t along its last axis."""
    out = []
    pos = 0
    for s in sizes:
        out.append(flat[..., pos : pos + s])
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
    nz = z.shape[-1]
    idx, coef, mask, level = _pole_table(nz, sizes)
    delta = (
        np.zeros(t.shape[-1], dtype=complex)
        if linear is None
        else np.asarray(linear, dtype=complex)[level]
    )
    args = np.empty(t.shape[:-1] + (nz + t.shape[-1],), dtype=complex)
    args[..., :nz] = z
    args[..., nz:] = t
    # C order, so that sums over a row's poles run in one order, stacked or not
    d = np.ascontiguousarray(np.where(mask, t[..., :, None] - args[..., idx], 1.0))
    return d, coef, delta, idx, mask


def _grad_t_raw(z, sizes, t, linear=None):
    """dPhi/dt at flat t and its sup norm, row by row for a stack of t, or
    of (z, t).

    The norm is inf outside the domain of Phi, which asks every argument
    pair to lie 1e-8 * max(1, |z|, |t|) apart; the gradient there is not
    meaningful.
    """
    d, coef, delta, _, mask = _poles(z, sizes, t, linear)
    gap = np.minimum(np.abs(d[..., mask]).min(axis=-1, initial=np.inf), min_gap(z))
    scale = np.maximum(
        np.maximum(1.0, np.abs(z).max(axis=-1, initial=0.0)),
        np.abs(t).max(axis=-1, initial=0.0),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (coef / d).sum(axis=-1) + delta
    norm = np.where(gap >= 1e-8 * scale, np.abs(g).max(axis=-1, initial=0.0), np.inf)
    return g, norm[()]  # a scalar norm for a single t


def _hess_t_raw(z, sizes, t) -> np.ndarray:
    """d(dPhi/dt)/dt at flat t, row by row for a stack of t.

    Every pole distance d_u of row r moves with t_r; a pole that is some
    t_v moves against t_v, and the fixed z have no column.
    """
    d, coef, _, idx, mask = _poles(z, sizes, t)
    dG = -coef / d**2  # d/dd_u of coef_u / d_u, 0 in padded slots
    nz, l = z.shape[-1], t.shape[-1]
    H = np.zeros(dG.shape[:-1] + (nz + l,), dtype=complex)
    H[..., np.nonzero(mask)[0], idx[mask]] = -dG[..., mask]
    H = H[..., nz:]
    diag = np.arange(l)
    H[..., diag, diag] += dG.sum(axis=-1)
    return H


def _grad_z_raw(z, tlevels, q1: complex = 0.0) -> np.ndarray:
    """dPhi/dz, row by row for stacks of z and t."""
    n = z.shape[-1]
    p = np.zeros(z.shape, dtype=complex)
    t1 = tlevels[0] if tlevels else np.zeros(z.shape[:-1] + (0,), dtype=complex)
    for a in range(n):
        za = z[..., a, None]
        if n > 1:
            p[..., a] += np.sum(1.0 / (za - np.delete(z, a, axis=-1)), axis=-1)
        if t1.shape[-1]:
            p[..., a] += np.sum(1.0 / (t1 - za), axis=-1)
        p[..., a] += q1
    return p


def _value_raw(z, tlevels, linear=None, qz: complex = 0.0):
    """Phi at z and t grouped by level, row by row for stacks of them: one
    log per argument pair, each taken over the whole stack."""
    val = np.zeros(z.shape[:-1], dtype=complex)
    n = z.shape[-1]
    for a in range(n):
        for b in range(a + 1, n):
            val += np.log(z[..., a] - z[..., b])
    if tlevels:
        for i in range(tlevels[0].shape[-1]):
            val -= np.sum(np.log(tlevels[0][..., i, None] - z), axis=-1)
    for tk in tlevels:
        for i in range(tk.shape[-1]):
            for j in range(i + 1, tk.shape[-1]):
                val += 2.0 * np.log(tk[..., i] - tk[..., j])
    for k in range(len(tlevels) - 1):
        for i in range(tlevels[k].shape[-1]):
            for j in range(tlevels[k + 1].shape[-1]):
                val -= np.log(tlevels[k][..., i] - tlevels[k + 1][..., j])
    if linear is not None:
        for k, tk in enumerate(tlevels):
            val += linear[k] * np.sum(tk, axis=-1)
    val += qz * np.sum(z, axis=-1)
    return val[()]


def _flat(tlevels, lead=()) -> np.ndarray:
    """The levels concatenated along the last axis, for a stack of shape lead."""
    return np.concatenate([np.zeros(lead + (0,), dtype=complex), *tlevels], axis=-1)


def _checked_levels(z, t, sizes, linear=None):
    """t grouped by level, if the level sizes match and Phi is defined
    there, at every row of a stack, with dPhi/dt at t (the linear terms
    added), which the domain rule has computed."""
    tlevels = tuple(np.atleast_1d(np.asarray(tk, dtype=complex)) for tk in t)
    got = tuple(tk.shape[-1] for tk in tlevels)
    if got != sizes:
        raise ValueError(f"level sizes {got} do not match {sizes}")
    lead = z.shape[:-1]
    if any(tk.shape[:-1] != lead for tk in tlevels):
        raise ValueError("z and each level of t must share their leading axes")
    g, norm = _grad_t_raw(z, sizes, _flat(tlevels, lead), linear)
    if np.any(norm == np.inf):
        raise ValueError("argument collision inside the master function domain")
    return tlevels, g


def _coerce_levels(lam: Partition, z, t):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] != lam.n:
        raise ValueError(f"need {lam.n} positions for {lam!r}")
    return (z, *_checked_levels(z, t, level_sizes(lam)))


def grad_t(lam: Partition, z, t) -> np.ndarray:
    """dPhi/dt for all auxiliary variables, level 1 first."""
    _, _, g = _coerce_levels(lam, z, t)
    return g


def grad_z(lam: Partition, z, t) -> np.ndarray:
    """Momenta p_a = sum_{b != a} 1/(z_a - z_b) + sum_i 1/(t_i^(1) - z_a)."""
    z, tlevels, _ = _coerce_levels(lam, z, t)
    return _grad_z_raw(z, tlevels)


def master_value(lam: Partition, z, t) -> complex:
    """Principal-branch value of Phi; well defined modulo 2*pi*i."""
    z, tlevels, _ = _coerce_levels(lam, z, t)
    return _value_raw(z, tlevels)


def _checked_q(q, n: int) -> tuple[np.ndarray, tuple]:
    """n pairwise distinct exponents q, and the level terms q_{k+1} - q_k."""
    q = np.asarray(q, dtype=complex).ravel()
    if len(q) != n:
        raise ValueError("q must match the number of positions")
    require_distinct(q, 1e-12, "exponents q")
    return q, tuple(q[k + 1] - q[k] for k in range(n - 1))


def _coerce_levels_q(q, z, t):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[-1]
    q, linear = _checked_q(q, n)
    return (q, z, *_checked_levels(z, t, q_level_sizes(n), linear), linear)


def grad_t_q(q, z, t) -> np.ndarray:
    """dPhi_q/dt: the undeformed gradient plus (q_{k+1} - q_k) per level."""
    _, _, _, g, _ = _coerce_levels_q(q, z, t)
    return g


def grad_z_q(q, z, t) -> np.ndarray:
    """Momenta of the deformed master function; adds q_1 to each dPhi/dz_a."""
    q, z, tlevels, _, _ = _coerce_levels_q(q, z, t)
    return _grad_z_raw(z, tlevels, q1=q[0])


def master_value_q(q, z, t) -> complex:
    q, z, tlevels, _, linear = _coerce_levels_q(q, z, t)
    return _value_raw(z, tlevels, linear, qz=q[0])


def _population(funcs, levels: int) -> np.ndarray:
    """Flat t of the population of a fiber tuple (f_1, ..., f_n): level a
    holds the roots of the tail Wronskian Wr(f_{a+1}, ..., f_n)."""
    tails = (wronskian(funcs[a:]) for a in range(1, levels + 1))
    return np.concatenate(
        [pa.roots(w.coeffs if isinstance(w, pa.ExpPoly) else w) for w in tails]
    )


def _level_key(tlevels) -> np.ndarray:
    """The level polynomials prod_i (u - t_i^(k)) as one coefficient vector:
    continuous, and the same for every order of the roots in a level."""
    return np.concatenate([pa.from_roots(tk) for tk in tlevels])


def _critical_points(z, sizes, linear, q1, tol, fiber):
    """Critical points from the populations of a Wronski fiber.

    ``fiber()`` solves the fiber and returns each tuple's functions; it is
    not called when there are no levels.  Each population is polished by
    stacked_newton on dPhi/dt, all of them as one stack.  Configurations
    are deduplicated on their level polynomials with is_new_point, so no
    two returned points are one configuration in another root order.  Each
    level is sorted by (re, im), and the points come back in (re, im)
    lexicographic order of their flat t.
    """
    if not sizes:
        return [CriticalPoint(BetheConfiguration(z, ()), 0.0, _grad_z_raw(z, (), q1))]
    starts = [_population(funcs, len(sizes)) for funcs in fiber()]
    if not starts:
        return []

    def grad(t):
        return _grad_t_raw(z, sizes, t, linear)

    def hess(t):
        return _hess_t_raw(z, sizes, t)

    found, keys = [], []
    for t in stacked_newton(grad, hess, np.stack(starts), tol, 60, polish=2):
        if t is None:
            continue
        tl = tuple(lexsorted(tk) for tk in _split(t, sizes))
        key = _level_key(tl)
        if is_new_point(key, keys):
            found.append(tl)
            keys.append(key)
    out = []
    for tl in sorted(found, key=lambda tl: lex_key(_flat(tl))):
        gn = float(_grad_t_raw(z, sizes, _flat(tl), linear)[1])
        out.append(CriticalPoint(BetheConfiguration(z, tl), gn, _grad_z_raw(z, tl, q1)))
    return out


def solve_bethe(
    lam: Partition, z, tol: float = 1e-10, seed: int = 0
) -> list[CriticalPoint]:
    """Bethe critical points from the Wronski fiber over prod_a (u - z_a).

    The fiber is solved with wronski_fiber at this seed; its d_lambda
    tuples have d_lambda populations, each one critical point.  A fiber
    search that undercounts returns a short list, and the caller compares
    with irrep_dimension(lam).
    """
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != lam.n:
        raise ValueError(f"need {lam.n} positions for {lam!r}")

    def fiber():
        sols = wronski_fiber(lam, pa.elementary_symmetric(z), seed=seed)
        return [x.polys() for x in sols]

    return _critical_points(z, level_sizes(lam), None, 0.0, tol, fiber)


def solve_bethe_q(q, z, tol: float = 1e-10, seed: int = 0) -> list[CriticalPoint]:
    """Critical points of the deformed master function, from the fiber of
    the tuples e^(q_i u)(u + c_i) over prod_a (u - z_a) (wronski_fiber_q).

    The expected count is n!; the caller compares.
    """
    z = np.asarray(z, dtype=complex).ravel()
    n = len(z)
    q, linear = _checked_q(q, n)

    def fiber():
        sols = wronski_fiber_q(q, pa.elementary_symmetric(z), seed=seed)
        return [x.functions() for x in sols]

    return _critical_points(z, q_level_sizes(n), linear, q[0], tol, fiber)
