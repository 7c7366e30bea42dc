"""Master functions, their gradients, and Bethe critical-point solving.

For a partition lam of n with r nonzero rows and levels
l_1 > ... > l_{r-1} > 0 (l_a = sum of parts below row a), the master
function in positions z and auxiliary variables t grouped by level is

    Phi(z, t) = sum_{a<b} log(z_a - z_b)
              - sum_a sum_{i<=l_1} log(t_i^(1) - z_a)
              + 2 sum_k sum_{i<j} log(t_i^(k) - t_j^(k))
              - sum_{k<=r-2} sum_{i,j} log(t_i^(k) - t_j^(k+1)).

Only level 1 interacts with z, and cross terms couple adjacent levels
only.  Critical points in t solve the Bethe equations; the momenta are
p_a = dPhi/dz_a.  The deformed variant adds linear terms
(q_{k+1} - q_k) per level-k variable and q_1 per z_a, with level sizes
fixed at (n-1, n-2, ..., 1).  Phi is one sum over x = concat(z, t),
sum_{u<v} K_uv log(x_u - x_v), with the charges K_uv of _charges; the
gradients in z and t, the Hessian in t and the domain check all read K.

Critical points are not searched for directly.  They are read off the
populations of a Wronski fiber (Mukhin and Varchenko, "Critical points
of master functions and flag varieties"): for a tuple (f_1, ..., f_n) in
the fiber over prod_a (u - z_a), the level-a roots are the roots of the
tail Wronskian Wr(f_{a+1}, ..., f_n), polynomial tuples for lam and
quasi-exponentials e^(q_i u)(u + c_i) for the deformed case.  So the
d_lambda fiber points give the d_lambda critical points, and plain
Newton on dPhi/dt (full steps, newton.stacked_newton) only polishes them.

Phi itself is defined modulo 2*pi*i.  The value below is plain loops,
kept apart from K as the finite-difference reference for both gradients;
it uses principal-branch logarithms, not branch-consistent ones.
The value and gradient functions also take stacks of (z, t), z of shape
(..., n) and each level of shape (..., l_k) with the same leading axes,
and evaluate every row in one pass of the same code; a single point is
the unbatched case.  The deformed ones also take a stack of q, shape
(..., n), whose leading axes broadcast against z's; one q serves every
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polyalg as pa
from .newton import stacked_newton
from .partitions import Partition
from .polyalg import is_new_point, lex_key, lexsorted, min_gap, require_distinct
from .wronski import wronski_fiber, wronski_fiber_q, wronskian


def level_sizes(lam: Partition) -> tuple[int, ...]:
    """Auxiliary-variable counts l_a = sum_{b > a} lam_b over the nonzero
    rows a = 1..r-1 of lam; each is positive."""
    core = lam.trimmed
    return tuple(sum(core[a:]) for a in range(1, len(core)))


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


@dataclass(eq=False)
class CriticalPoint:
    """A converged Bethe configuration with its momenta p = dPhi/dz."""

    config: BetheConfiguration
    grad_norm: float
    p: np.ndarray


def _split(flat: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """The levels of flat t along its last axis."""
    out = []
    pos = 0
    for s in sizes:
        out.append(flat[..., pos : pos + s])
        pos += s
    return tuple(out)


@lru_cache(maxsize=None)
def _charges(nz: int, sizes: tuple[int, ...]):
    """The charge matrix K of Phi over x = concat(z, t), and the level of
    each t.

    Phi = sum_{u<v} K_uv log(x_u - x_v), with z at level 0 and level k of
    t at level k: K_uv is 1 between two positions, and otherwise 2 within
    a level, -1 between adjacent levels and 0 else.  K is symmetric with
    zero diagonal, and row u of grad Phi is sum_v K_uv / (x_u - x_v).
    """
    level = np.repeat(np.arange(len(sizes) + 1), (nz, *sizes))
    lu = level[:, None]
    apart = np.abs(lu - level)
    K = np.select([lu + level == 0, apart == 0, apart == 1], [1.0, 2.0, -1.0])
    np.fill_diagonal(K, 0.0)
    out = (K, level[nz:])
    for arr in out:
        arr.setflags(write=False)  # cached: shared by every caller
    return out


def _poles(z, sizes, t, rows: slice):
    """The charges K[rows] and the distances d[..., u, v] = x_u - x_v over
    x = concat(z, t) for the coordinates u in rows, at flat t or at each
    row of a stack of (z, t).

    d = 1 wherever K = 0, the diagonal included, so that K / d is 0 there.
    """
    nz = z.shape[-1]
    K, _ = _charges(nz, sizes)
    x = np.empty(t.shape[:-1] + K.shape[-1:], dtype=complex)
    x[..., :nz] = z
    x[..., nz:] = t
    K = K[rows]
    # C order, so that the sums over a row run in one order, stacked or not
    d = x[..., rows, None] - x[..., None, :]
    d[..., K == 0] = 1.0
    return K, d


def _spaced(z, t, d, K):
    """The domain rule of Phi, row by row: every argument pair, read off
    the t rows of _poles and the gaps of z, lies at least
    1e-8 * max(1, |z|, |t|) apart."""
    dist = np.abs(d)
    dist[..., K == 0] = np.inf  # pairs that do not interact
    gap = np.minimum(dist.min(axis=(-2, -1), initial=np.inf), min_gap(z))
    scale = np.maximum(
        np.maximum(1.0, np.abs(z).max(axis=-1, initial=0.0)),
        np.abs(t).max(axis=-1, initial=0.0),
    )
    return gap >= 1e-8 * scale


def _grad_t_raw(z, sizes, t, linear=None):
    """dPhi/dt at flat t and its sup norm, row by row for a stack of t, or
    of (z, t): the t rows of grad Phi, plus the linear term (q_{k+1} - q_k)
    of each level k from a stack of them, shape (..., levels).

    The norm is inf outside the domain of Phi (_spaced); the gradient there
    is not meaningful.
    """
    nz = z.shape[-1]
    K, d = _poles(z, sizes, t, slice(nz, None))
    ok = _spaced(z, t, d, K)
    level = _charges(nz, sizes)[1]
    delta = 0.0 if linear is None else np.asarray(linear, dtype=complex)[..., level - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.divide(K, d, out=d).sum(axis=-1) + delta
    norm = np.where(ok, np.abs(g).max(axis=-1, initial=0.0), np.inf)
    return g, norm[()]  # a scalar norm for a single t


def _hess_t_raw(z, sizes, t) -> np.ndarray:
    """d(dPhi/dt)/dt at flat t, row by row for a stack of t: K / d^2 on
    the t columns, less each row's sum on the diagonal.  The fixed z have
    no column."""
    nz, l = z.shape[-1], t.shape[-1]
    K, d = _poles(z, sizes, t, slice(nz, None))
    A = np.divide(K, np.square(d, out=d), out=d)
    H = A[..., nz:]
    diag = np.arange(l)
    H[..., diag, diag] -= A.sum(axis=-1)
    return H


def _grad_z_raw(z, tlevels, q1=0.0) -> np.ndarray:
    """dPhi/dz, the z rows of grad Phi plus q1, row by row for stacks of z,
    t and q1."""
    sizes = tuple(tk.shape[-1] for tk in tlevels)
    K, d = _poles(z, sizes, _flat(tlevels, z.shape[:-1]), slice(z.shape[-1]))
    return np.divide(K, d, out=d).sum(axis=-1) + np.asarray(q1)[..., None]


def _value_raw(z, tlevels, linear=None, qz=0.0):
    """Phi at z and t grouped by level, row by row for stacks of them and
    of the linear terms: one log per argument pair, each taken over the
    whole stack."""
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
            val += linear[..., k] * np.sum(tk, axis=-1)
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


def in_domain(z, t, sizes) -> np.ndarray:
    """Whether Phi is defined at each row of a stack of z and flat t with
    the given level sizes, by the domain rule every function here applies
    (_spaced), which no linear term changes."""
    K, d = _poles(z, tuple(sizes), t, slice(z.shape[-1], None))
    return _spaced(z, t, d, K)


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


def _checked_q(q, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairwise distinct exponents q, and the level terms q_{k+1} - q_k,
    row by row for a stack of q along the last axis."""
    q = np.atleast_1d(np.asarray(q, dtype=complex))
    if q.shape[-1] != n:
        raise ValueError("q must match the number of positions")
    require_distinct(q, 1e-12, "exponents q")
    return q, q[..., 1:] - q[..., :-1]


def _coerce_levels_q(q, z, t):
    """As _coerce_levels, for the deformed function: q is one tuple or a
    stack, shape (..., n), whose leading axes broadcast against z's."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[-1]
    q, linear = _checked_q(q, n)
    if np.broadcast_shapes(q.shape[:-1], z.shape[:-1]) != z.shape[:-1]:
        raise ValueError("the leading axes of q must broadcast against z's")
    return (q, z, *_checked_levels(z, t, q_level_sizes(n), linear), linear)


def grad_t_q(q, z, t) -> np.ndarray:
    """dPhi_q/dt: the undeformed gradient plus (q_{k+1} - q_k) per level."""
    _, _, _, g, _ = _coerce_levels_q(q, z, t)
    return g


def grad_z_q(q, z, t) -> np.ndarray:
    """Momenta of the deformed master function; adds q_1 to each dPhi/dz_a."""
    q, z, tlevels, _, _ = _coerce_levels_q(q, z, t)
    return _grad_z_raw(z, tlevels, q1=q[..., 0])


def master_value_q(q, z, t) -> complex:
    q, z, tlevels, _, linear = _coerce_levels_q(q, z, t)
    return _value_raw(z, tlevels, linear, qz=q[..., 0])


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

    def grad(t, _rows):
        return _grad_t_raw(z, sizes, t, linear)

    def hess(t, _rows):
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
    q, linear = _checked_q(np.ravel(q), n)

    def fiber():
        sols = wronski_fiber_q(q, pa.elementary_symmetric(z), seed=seed)
        return [x.functions() for x in sols]

    return _critical_points(z, q_level_sizes(n), linear, q[0], tol, fiber)
