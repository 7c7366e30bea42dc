"""Operator algebra on weight subspaces of V^(x)n, V = C^N.

Everything is assembled on a fixed weight space, never on the full tensor
power.  Basis vectors are multi-indices (i_1, ..., i_n) with letters in
1..N; the letter multiset is the weight.  The slot-swap identity
sum_{i,j} e_ij^(a) e_ji^(b) = P_ab makes the Gaudin Hamiltonians
H_a(z) = sum_{b != a} P_ab / (z_a - z_b) combinations of transpositions.
A singular space of weight lambda is the irreducible S_n representation
lambda, the eigenspace of the class sum C = sum_{a<b} P_ab for the content
of lambda; it is found matrix-free, by a product of shifted C that kills
every other constituent, with C applied one slot swap at a time.  A
subspace is refused when its words times the columns built on them exceed
MAX_ENTRIES, which admits every partition of n = 8.  Each Subspace holds
one table of d x d matrices T_ab = S^H P_ab S; each Gaudin family
H_1, ..., H_n is one (n, d, d) stack, one contraction of that table with
the weights 1/(z_a - z_b) at a z checked once, and the generalized family
adds sum_i q_i e_ii^(a).  joint_eigen and joint_eigenspace_dim take the
family as that stack.

gaudin_hamiltonian, generalized_gaudin, joint_eigen, spectral_points and
generalized_spectrum take leading batch axes: a stack of z (and q), of
shape (..., n), gives a stack of families (..., n, d, d), and joint_eigen
diagonalizes them as one, with one probe seed per family and one list of
entries per family, nested like the batch axes.  Each family keeps its
own commutator test, probe sequence, pairing and residual tests and
retries, so its result does not depend on the rest of the stack.  A
single family is the unbatched case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, permutations

import numpy as np

from .partitions import Partition, enumerate_partitions, irrep_dimension
from .polyalg import lex_key, min_gap, require_distinct
from .serialize import pair_list

# largest words x columns array a subspace is built from; the tensor power
# never is.  A singular space filters d_lambda + 4 columns of its weight
# space (at most 241,920 entries at n = 8, for (2,2,1^4)); the permutation
# space of generalized_gaudin is its own n! columns (518,400 at n = 6)
MAX_ENTRIES = 2**20


class NumericalRankError(RuntimeError):
    """A singular space has unexpected dimension, or a subspace is not invariant."""


class NonCommutingOperatorsError(ValueError):
    """Joint diagonalization was asked of a non-commuting family."""


class JointDiagonalizationError(RuntimeError):
    """No probe combination produced a usable joint eigenbasis."""


@dataclass(frozen=True, eq=False)
class WeightBasis:
    """Ordered multi-index basis of a weight subspace of V^(x)n."""

    N: int
    n: int
    weight: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # sorted indices read as base-(N+1) numbers give increasing codes
        array = np.array(self.indices, dtype=np.int64).reshape(self.dim, self.n)
        array.setflags(write=False)
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "_radix", (self.N + 1) ** np.arange(self.n)[::-1])
        object.__setattr__(self, "_codes", array @ self._radix)

    @property
    def dim(self) -> int:
        return len(self.indices)

    def positions(self, rows) -> np.ndarray:
        """Basis positions of the multi-indices along the last axis of rows."""
        codes = np.asarray(rows) @ self._radix
        pos = np.searchsorted(self._codes, codes)
        if not np.array_equal(self._codes[np.minimum(pos, self.dim - 1)], codes):
            raise KeyError("multi-index outside this weight space")
        return pos

    def index_of(self, idx: tuple[int, ...]) -> int:
        return int(self.positions(idx))

    @cached_property
    def swaps(self) -> np.ndarray:
        """Read-only (dim, n(n-1)/2) map: [k, m] is the position of word k
        with the slots of the m-th pair of triu_indices(n, 1) swapped."""
        # swapping the letters x_a, x_b moves a code by (x_a - x_b)(r_b - r_a)
        # for the radix weights r, so no (dim, pairs, n) array of words is built
        a, b = np.triu_indices(self.n, 1)
        x, r = self.array, self._radix
        codes = self._codes[:, None] + (x[:, a] - x[:, b]) * (r[b] - r[a])
        swaps = np.searchsorted(self._codes, codes)
        swaps.setflags(write=False)
        return swaps


@lru_cache(maxsize=None)
def _weight_basis_cached(N: int, n: int, weight: tuple[int, ...]) -> WeightBasis:
    word = tuple(
        letter for letter, mult in enumerate(weight, start=1) for _ in range(mult)
    )
    indices = tuple(sorted(set(permutations(word))))
    return WeightBasis(N, n, weight, indices)


def _require_entries(words: int, columns: int) -> None:
    if words * columns > MAX_ENTRIES:
        raise ValueError(
            f"weight space dimension {words} x {columns} columns exceeds "
            f"the supported {MAX_ENTRIES} entries"
        )


def _weight_dim(n: int, weight: tuple[int, ...]) -> int:
    return math.factorial(n) // math.prod(math.factorial(w) for w in weight)


def weight_basis(N: int, n: int, weight) -> WeightBasis:
    """Lexicographically ordered multi-indices with the given letter counts.

    Refuses a weight space of dimension n!/prod(weight!) above MAX_ENTRIES,
    as it could not hold a single column.
    """
    weight = tuple(int(w) for w in weight)
    if len(weight) != N:
        raise ValueError(f"weight must have {N} entries")
    if any(w < 0 for w in weight):
        raise ValueError(f"negative weight entry in {weight}")
    if sum(weight) != n:
        raise ValueError(f"weight {weight} does not sum to {n}")
    _require_entries(_weight_dim(n, weight), 1)
    return _weight_basis_cached(N, n, weight)


@dataclass(eq=False)
class Subspace:
    """An S_n-invariant subspace of a weight space and its transposition table.

    columns holds an orthonormal basis S of the subspace on the weight basis;
    None means the whole weight space (S = identity).
    """

    basis: WeightBasis
    columns: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim if self.columns is None else self.columns.shape[1]

    @cached_property
    def transpositions(self) -> np.ndarray:
        """Read-only (n, n, dim, dim) table, [a, b] = T_ab = S^H P_ab S for
        the swap P_ab of slots a != b (0-based); [a, a] is zero.

        Built on first read from the basis's swap map.  Raises
        NumericalRankError unless every pair has ||P_ab S - S T_ab||
        <= 1e-12 max(1, ||T_ab||): then every Gaudin operator keeps S.
        """
        basis, n = self.basis, self.basis.n
        S = np.eye(basis.dim, dtype=complex) if self.columns is None else self.columns
        table = np.zeros((n, n, self.dim, self.dim), dtype=complex)
        for k, (a, b) in enumerate(zip(*np.triu_indices(n, 1))):
            PS = S[basis.swaps[:, k]]  # contiguous, for BLAS's closer rounding
            T = S.conj().T @ PS
            defect = np.linalg.norm(PS - S @ T)
            if defect > 1e-12 * max(1.0, np.linalg.norm(T)):
                raise NumericalRankError(
                    f"subspace not invariant under P_{a + 1}{b + 1}: defect {defect:.3e}"
                )
            table[a, b] = table[b, a] = T
        table.setflags(write=False)
        return table


def _content(parts) -> int:
    """c(mu), the sum of column - row over the boxes of the shape."""
    return sum(j - i for i, row in enumerate(parts) for j in range(row))


def _class_sum(basis: WeightBasis, X: np.ndarray) -> np.ndarray:
    """C X for C = sum_{a<b} P_ab, one gather per slot pair; a swap of equal
    letters fixes a word, so its pair adds X itself."""
    CX = np.zeros_like(X)
    for k in range(basis.swaps.shape[1]):
        CX += X[basis.swaps[:, k]]
    return CX


def _content_filter(basis, X, others) -> np.ndarray:
    """prod_c (C - c) X over the contents c in others, in their order."""
    for c in others:
        X = _class_sum(basis, X) - c * X
    return X


@lru_cache(maxsize=None)
def _singular_basis_cached(N: int, n: int, weight: tuple[int, ...]) -> Subspace:
    lam = Partition(weight)
    d = irrep_dimension(lam)
    _require_entries(_weight_dim(n, weight), d + 4)
    basis = weight_basis(N, n, weight)
    core = lam.trimmed
    bounds = list(accumulate(core))
    # the contents of the constituents mu > lam, ascending: relative to lam a
    # factor scales the constituent nu by (c(nu) - c) / (c(lam) - c), so the
    # late factors shrink what the early ones grew (descending, the
    # invariance defect of (2,2,1^4) reaches 8.9e-13 of its 1e-12 bound)
    others = sorted({
        _content(mu.trimmed)
        for mu in enumerate_partitions(n, len(core))
        if mu != lam
        and all(s >= b for s, b in zip(accumulate(mu.padded(len(core))), bounds))
    })
    # fixed integer start columns, drawn from no caller's generator: through
    # n = 6 the first pass is exact integer arithmetic
    X = np.random.default_rng(0).integers(-8, 9, (basis.dim, d + 4)).astype(float)
    U, sv, _ = np.linalg.svd(_content_filter(basis, X, others), full_matrices=False)
    # through n = 8 the kept values are >= 1.2e-2 of the largest, the
    # dropped ones <= 2.2e-13
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    if rank != d:
        raise NumericalRankError(
            f"singular space of {lam!r} has computed dimension {rank}, expected {d}"
        )
    # the second pass removes the first's roundoff from a span that is
    # already lam's; its output is orthonormal up to that roundoff, so
    # Cholesky QR suffices (Householder QR doubles the largest closed-forms
    # deviation over seeds 2024, 1, 7 and 21-60)
    Y = _content_filter(basis, U[:, :d], others)
    cols = Y @ np.linalg.inv(np.linalg.cholesky(Y.T @ Y).T)
    cols.setflags(write=False)
    return Subspace(basis, cols)


def singular_basis(lam: Partition, N: int | None = None) -> Subspace:
    """Orthonormal basis of the singular vectors of weight lam, cached per
    (N, n, weight) with its transposition table.

    These are the weight-lam vectors killed by every raising operator
    sum_a e_ij^(a), i < j: the lam-isotypic part, of dimension the number of
    standard tableaux of shape lam.  C = sum_{a<b} P_ab acts on an irrep mu
    as its content c(mu) (the sum of column - row over its boxes), and the
    other constituents of the weight space are the mu that strictly dominate
    lam, each with c(mu) >= c(lam) + 2 (Jucys, "Symmetric polynomials and the
    center of the symmetric group ring", 1974; Okounkov and Vershik, "A new
    approach to representation theory of symmetric groups", 1996).  So
    prod_mu (C - c(mu)), over their distinct contents, is prod_mu (c(lam) -
    c(mu)) times the projector onto the singular space, an exact filter.  It
    is applied, with C one gather per slot pair, to d_lam + 4 columns from a
    fixed generator; the numerical rank of the result must be d_lam, and its
    d_lam leading left singular vectors are filtered once more and
    orthonormalized.  No dim x dim matrix is formed: a weight space of dim
    words is refused when dim x (d_lam + 4) exceeds MAX_ENTRIES, which
    admits every partition of n = 8."""
    core = lam.trimmed
    if N is None:
        N = max(1, len(core))
    if len(core) > N:
        raise ValueError(f"{lam!r} needs more than N={N} rows")
    return _singular_basis_cached(N, lam.n, lam.padded(N))


def gaudin_hamiltonian(z, subspace: Subspace) -> np.ndarray:
    """The family H_1(z), ..., H_n(z) on an invariant subspace (a weight
    space or a singular space) as one (n, d, d) stack, [a - 1] = H_a.

    One contraction of the weights 1/(z_a - z_b), zero for a = b, with the
    transposition table; z is checked once for the whole family.  A stack
    of z, of shape (..., n), gives one family per row, (..., n, d, d), from
    the same contraction; a single z is the unbatched case.
    """
    n = subspace.basis.n
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] != n:
        raise ValueError(f"need {n} points, got {z.shape[-1]}")
    require_distinct(z, 1e-8, "evaluation points z")
    gaps = z[..., :, None] - z[..., None, :]
    diag = np.arange(n)
    gaps[..., diag, diag] = np.inf  # weight 1/inf = 0 for b = a
    return np.einsum("...ab,abij->...aij", 1.0 / gaps, subspace.transpositions)


@lru_cache(maxsize=None)
def _permutation_space(n: int) -> Subspace:
    _require_entries(math.factorial(n), math.factorial(n))
    return Subspace(weight_basis(n, n, (1,) * n))


def generalized_gaudin(z, q) -> np.ndarray:
    """The family H_a(z, q) = sum_i q_i e_ii^(a) + H_a(z), a = 1..n, on
    V^(x)n[1,...,1] with N = n = len(q), as one (n, n!, n!) stack: the
    Gaudin stack of the cached permutation space plus diag(q_{i_a}).

    Stacks of z and q, of shape (..., n) with q broadcast against z, give
    one family per row, as gaudin_hamiltonian does.
    """
    q = np.atleast_1d(np.asarray(q, dtype=complex))
    sub = _permutation_space(q.shape[-1])
    H = gaudin_hamiltonian(z, sub)
    diag = np.arange(sub.dim)
    H[..., diag, diag] += q[..., sub.basis.array.T - 1]
    return H


def _family(ops) -> np.ndarray:
    """The operators as one (..., k, d, d) stack: k >= 1 square matrices per
    family, with any leading batch axes."""
    if not isinstance(ops, np.ndarray):
        if len(ops) == 0:
            raise ValueError("need at least one operator")
        if len({np.shape(op) for op in ops}) > 1:
            raise ValueError("operators must share one square shape")
        ops = np.asarray(ops)
    if ops.ndim < 3 or ops.shape[-1] != ops.shape[-2]:
        raise ValueError("operators must share one square shape")
    if ops.shape[-3] == 0:
        raise ValueError("need at least one operator")
    return ops


def _nested(flat: list, shape: tuple):
    """A list in C order of one item per family, nested like the batch
    axes; the item itself for a single family."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nested(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def _inverses(vr: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a stack, NaN for a singular one: a
    stacked inv raises for the whole stack, so that case goes one by one."""
    try:
        return np.linalg.inv(vr)
    except np.linalg.LinAlgError:
        left = np.full_like(vr, np.nan)
        for b, v in enumerate(vr):
            try:
                left[b] = np.linalg.inv(v)
            except np.linalg.LinAlgError:
                pass
        return left


def joint_eigen(ops, tol: float = 1e-8, seed=0):
    """Joint eigenvalue tuples of a commuting family of matrices, or of
    each family of a stack.

    A random complex combination of the family is diagonalized; left and
    right eigenvectors read each operator's eigenvalue back through the
    bilinear quotient w^H A v / w^H v, for all eigenvectors at once.
    Entries are returned with the geometric multiplicity seen by the probe.
    A family whose scaled commutator defect exceeds 1e-10 is rejected.

    A stack of families, (..., k, d, d), is diagonalized as one: each
    family keeps its own commutator test, its own probes drawn from its
    own seed, its own pairing and residual tests, and its own retries; only
    the families whose probe failed draw again.  A single family is the
    unbatched case of the same code.  When some family fails, the error is
    the one the first failing family, in stack order, would raise alone.

    Parameters
    ----------
    ops : (..., k, d, d) stack or list of square ndarrays, pairwise commuting.
    tol : residual bound ||A v - p v|| <= tol (1 + ||A||) ||v|| per operator.
    seed : seeds the probe combination, one seed per family (broadcast
        against the batch axes); up to 8 probes are drawn per family.

    Returns
    -------
    list of (p, vector, residual), one entry per joint eigenvector, sorted
    lexicographically by tuple; for a stack, one such list per family,
    nested like the batch axes.
    """
    mats = _family(ops)
    batch, (k, dim) = mats.shape[:-3], mats.shape[-3:-1]
    seeds = np.broadcast_to(seed, batch).ravel()
    if dim == 0:
        return _nested([[] for _ in seeds], batch)
    mats = mats.reshape((-1, k, dim, dim))
    norms = np.linalg.norm(mats, axis=(-2, -1))
    i, j = np.triu_indices(k, 1)
    comm = mats[:, i] @ mats[:, j] - mats[:, j] @ mats[:, i]
    top = np.maximum(1.0, norms.max(axis=-1))
    defect = np.linalg.norm(comm, axis=(-2, -1)).max(axis=-1, initial=0.0) / top**2
    errors = [
        NonCommutingOperatorsError(f"commutator defect {x:.3e} exceeds 1.0e-10")
        if x > 1e-10
        else None
        for x in defect
    ]
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    problems = ["no probe attempted"] * len(seeds)
    entries = [None] * len(seeds)
    live = np.flatnonzero([e is None for e in errors])
    for _ in range(8):
        if not live.size:
            break
        c = np.array(
            [rngs[b].standard_normal(k) + 1j * rngs[b].standard_normal(k) for b in live]
        )
        c /= np.abs(c).max(axis=-1, keepdims=True)
        fam = mats[live]
        probe = (c[:, :, None, None] * fam).sum(axis=1)
        _, vr = np.linalg.eig(probe)
        vr /= np.linalg.norm(vr, axis=-2, keepdims=True)
        # vr^-1 probe vr is diagonal, so the rows of vr^-1 are the left
        # eigenvectors; a singular or non-finite vr pairs no left vector
        left = _inverses(vr)
        at = np.flatnonzero(np.isfinite(left).all(axis=(-2, -1)))
        left, vr = left[at], vr[at]
        # scaling each row by its largest entry first keeps the norm finite
        vl = (left / np.abs(left).max(axis=-1, keepdims=True)).conj().swapaxes(-1, -2)
        vl /= np.linalg.norm(vl, axis=-2, keepdims=True)
        denoms = np.einsum("...ij,...ij->...j", vl.conj(), vr)
        paired = ~(np.abs(denoms).min(axis=-1) < 1e-12)
        at, vl, vr, denoms = at[paired], vl[paired], vr[paired], denoms[paired]
        AV = fam[at] @ vr[:, None]  # [f, m, :, e] = A_m v_e
        P = np.einsum("...ie,...mie->...em", vl.conj(), AV) / denoms[..., None]
        PV = P.swapaxes(-1, -2)[..., None, :] * vr[:, None]
        defects = np.linalg.norm(AV - PV, axis=-2)
        res = (defects / (1.0 + norms[live[at], :, None])).max(axis=-2)
        for b in live:  # what a family not scored below failed
            problems[b] = "degenerate left/right pairing"
        for f, b in enumerate(live[at]):
            bad = np.flatnonzero(res[f] > tol)
            if bad.size:
                problems[b] = f"residual {res[f, bad[0]]:.3e} above tol {tol:.1e}"
                continue
            order = sorted(range(dim), key=lambda e: lex_key(P[f, e]))
            entries[b] = [(P[f, e], vr[f, :, e], float(res[f, e])) for e in order]
        live = np.array([b for b in live if entries[b] is None], dtype=int)
    for b in live:
        errors[b] = JointDiagonalizationError(f"probe retries exhausted: {problems[b]}")
    first = next((e for e in errors if e is not None), None)
    if first is not None:
        raise first
    return _nested(entries, batch)


@dataclass(eq=False)
class SpectralPoint:
    """A joint spectral point (z, p) with its diagonalization defect."""

    z: np.ndarray
    p: np.ndarray
    residual: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=complex).ravel()
        self.p = np.asarray(self.p, dtype=complex).ravel()

    def as_dict(self) -> dict:
        return {
            "z": pair_list(self.z),
            "p": pair_list(self.p),
            "residual": float(self.residual),
        }


def _points(z: np.ndarray, entries) -> list:
    """SpectralPoints of one family's joint_eigen entries at z, or of each
    family's at each row of a stack of z."""
    if z.ndim > 1:
        return [_points(zb, eb) for zb, eb in zip(z, entries)]
    return [SpectralPoint(z, p, res) for p, _, res in entries]


def spectral_points(
    lam: Partition,
    z,
    N: int | None = None,
    tol: float = 1e-8,
    seed=0,
) -> list:
    """Joint spectrum of the Gaudin family on the singular space of weight lam.

    For generic z this yields exactly irrep_dimension(lam) points, each with
    sum_a p_a = 0.  A stack of z, (..., n), with one seed per row, is one
    stack of families through one joint_eigen call and gives one list of
    points per row; a single z is the unbatched case.
    """
    ops = gaudin_hamiltonian(z, singular_basis(lam, N))
    entries = joint_eigen(ops, tol=tol, seed=seed)
    return _points(np.asarray(z, dtype=complex), entries)


def generalized_spectrum(z, q, tol: float = 1e-8, seed=0) -> list:
    """Joint spectrum of H_a(z, q) on V^(x)n[1,...,1]; n! tuples for generic
    z.  Stacks of z and q, (..., n), give one list per row, as in
    spectral_points."""
    entries = joint_eigen(generalized_gaudin(z, q), tol=tol, seed=seed)
    return _points(np.asarray(z, dtype=complex), entries)


def joint_eigenspace_dim(ops, p) -> int:
    """Dimension of the joint eigenspace for the tuple p.

    Counts the singular values of the stacked shifted family
    [A_1 - p_1; ...; A_k - p_k] at most 1e-8 times max(1, the largest).
    """
    mats = _family(ops)
    dim = mats.shape[-1]
    shifted = mats - np.asarray(p)[:, None, None] * np.eye(dim)
    sv = np.linalg.svd(shifted.reshape(-1, dim), compute_uv=False)
    cutoff = 1e-8 * max(1.0, sv[0])
    return int(np.sum(sv <= cutoff))


def sample_generic_z(n: int, seed_or_rng, radius: float = 1.0) -> np.ndarray:
    """Draw n points uniformly from a disc, rejecting near-collisions.

    Separation below 1e-2 times the disc diameter triggers a deterministic
    redraw from the same generator, up to 200 draws.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    for _ in range(200):
        r = radius * np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        z = r * np.exp(1j * theta)
        if min_gap(z) >= 1e-2 * 2.0 * radius:
            return z
    raise RuntimeError("failed to sample well-separated points")
