"""Operator algebra on weight subspaces of V^(x)n, V = C^N.

Everything is assembled on a fixed weight space, never on the full tensor
power.  Basis vectors are multi-indices (i_1, ..., i_n) with letters in
1..N; the letter multiset is the weight.  The slot-swap identity
sum_{i,j} e_ij^(a) e_ji^(b) = P_ab makes the Gaudin Hamiltonians
H_a(z) = sum_{b != a} P_ab / (z_a - z_b) combinations of transpositions.
A singular space of weight lambda is the irreducible S_n representation
lambda, the eigenspace of the class sum sum_{a<b} P_ab for the content of
lambda.  Each Subspace holds one table of d x d matrices T_ab = S^H P_ab S;
each Gaudin family H_1, ..., H_n is one (n, d, d) stack, one contraction of
that table with the weights 1/(z_a - z_b) at a z checked once, and the
generalized family adds sum_i q_i e_ii^(a).  joint_eigen and
joint_eigenspace_dim take the family as that stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np
import scipy.linalg

from .partitions import Partition, irrep_dimension
from .polyalg import lex_key, min_gap, require_distinct
from .serialize import pair_list

# largest weight space weight_basis builds; the tensor power never is
MAX_FULL_DIM = 4096


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
        pairs = np.transpose(np.triu_indices(self.n, 1))
        orders = np.tile(np.arange(self.n), (len(pairs), 1))
        orders[np.arange(len(pairs))[:, None], pairs] = pairs[:, ::-1]
        swaps = self.positions(self.array[:, orders])
        swaps.setflags(write=False)
        return swaps


@lru_cache(maxsize=None)
def _weight_basis_cached(N: int, n: int, weight: tuple[int, ...]) -> WeightBasis:
    word = tuple(
        letter for letter, mult in enumerate(weight, start=1) for _ in range(mult)
    )
    indices = tuple(sorted(set(permutations(word))))
    return WeightBasis(N, n, weight, indices)


def weight_basis(N: int, n: int, weight) -> WeightBasis:
    """Lexicographically ordered multi-indices with the given letter counts.

    Refuses a weight space of dimension n!/prod(weight!) above MAX_FULL_DIM.
    """
    weight = tuple(int(w) for w in weight)
    if len(weight) != N:
        raise ValueError(f"weight must have {N} entries")
    if any(w < 0 for w in weight):
        raise ValueError(f"negative weight entry in {weight}")
    if sum(weight) != n:
        raise ValueError(f"weight {weight} does not sum to {n}")
    dim = math.factorial(n) // math.prod(math.factorial(w) for w in weight)
    if dim > MAX_FULL_DIM:
        raise ValueError(
            f"weight space dimension {dim} exceeds the supported size {MAX_FULL_DIM}"
        )
    return _weight_basis_cached(N, n, weight)


def eij_matrix(i: int, j: int, a: int, basis: WeightBasis):
    """Matrix of e_ij acting in tensor slot a.

    Maps the given weight space into the one with weight shifted by
    +e_i - e_j.  Returns (matrix, target_basis); for an impossible target
    weight the matrix has zero rows and the basis is None.
    """
    if not (1 <= i <= basis.N and 1 <= j <= basis.N):
        raise ValueError("letters i, j must lie in 1..N")
    if not (1 <= a <= basis.n):
        raise ValueError("slot a must lie in 1..n")
    shifted = list(basis.weight)
    shifted[i - 1] += 1
    shifted[j - 1] -= 1
    if shifted[j - 1] < 0:
        return np.zeros((0, basis.dim), dtype=complex), None
    target = weight_basis(basis.N, basis.n, shifted)
    cols = np.flatnonzero(basis.array[:, a - 1] == j)
    moved = basis.array[cols]
    moved[:, a - 1] = i
    mat = np.zeros((target.dim, basis.dim), dtype=complex)
    mat[target.positions(moved), cols] = 1.0
    return mat, target


def summed_eij(i: int, j: int, basis: WeightBasis):
    """Matrix of the global action sum_a e_ij^(a)."""
    per_slot = [eij_matrix(i, j, a, basis) for a in range(1, basis.n + 1)]
    return sum(mat for mat, _ in per_slot), per_slot[0][1]


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


@lru_cache(maxsize=None)
def _singular_basis_cached(N: int, n: int, weight: tuple[int, ...]) -> Subspace:
    basis = weight_basis(N, n, weight)
    # C = sum_{a<b} P_ab; entries add up, as a swap of equal letters fixes a
    # word.  Renormalized, as a norm defect of eigh's vectors enters T_ab
    C = np.zeros((basis.dim, basis.dim))
    np.add.at(C, (basis.swaps, np.arange(basis.dim)[:, None]), 1.0)
    content = sum(j - i for i, row in enumerate(weight) for j in range(row))
    w, v = np.linalg.eigh(C)
    cols = v[:, np.abs(w - content) < 1]
    cols = np.ascontiguousarray(cols / np.linalg.norm(cols, axis=0))
    cols.setflags(write=False)
    return Subspace(basis, cols)


def singular_basis(lam: Partition, N: int | None = None) -> Subspace:
    """Orthonormal basis of the singular vectors of weight lam, cached per
    (N, n, weight) with its transposition table.

    These are the weight-lam vectors killed by every raising operator
    sum_a e_ij^(a), i < j: the lam-isotypic part, of dimension the number of
    standard tableaux of shape lam.  C = sum_{a<b} P_ab acts on an irrep mu
    as its content c(mu) (the sum of column - row over its boxes), and every
    other constituent has c(mu) >= c(lam) + 2 (Jucys, "Symmetric polynomials
    and the center of the symmetric group ring", 1974; Okounkov and Vershik,
    "A new approach to representation theory of symmetric groups", 1996), so
    the basis is C's eigenvectors with |w - c(lam)| < 1, an exact cut."""
    core = lam.trimmed
    if N is None:
        N = max(1, len(core))
    if len(core) > N:
        raise ValueError(f"{lam!r} needs more than N={N} rows")
    sub = _singular_basis_cached(N, lam.n, lam.padded(N))
    expected = irrep_dimension(lam)
    if sub.dim != expected:
        raise NumericalRankError(
            f"singular space of {lam!r} has computed dimension {sub.dim}, "
            f"expected {expected}"
        )
    return sub


def gaudin_hamiltonian(z, subspace: Subspace) -> np.ndarray:
    """The family H_1(z), ..., H_n(z) on an invariant subspace (a weight
    space or a singular space) as one (n, d, d) stack, [a - 1] = H_a.

    One contraction of the weights 1/(z_a - z_b), zero for a = b, with the
    transposition table; z is checked once for the whole family.
    """
    n = subspace.basis.n
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != n:
        raise ValueError(f"need {n} points, got {len(z)}")
    require_distinct(z, 1e-8, "evaluation points z")
    gaps = z[:, None] - z[None, :]
    np.fill_diagonal(gaps, np.inf)  # weight 1/inf = 0 for b = a
    return np.einsum("ab,abij->aij", 1.0 / gaps, subspace.transpositions)


@lru_cache(maxsize=None)
def _permutation_space(n: int) -> Subspace:
    return Subspace(weight_basis(n, n, (1,) * n))


def generalized_gaudin(z, q) -> np.ndarray:
    """The family H_a(z, q) = sum_i q_i e_ii^(a) + H_a(z), a = 1..n, on
    V^(x)n[1,...,1] with N = n = len(q), as one (n, n!, n!) stack: the
    Gaudin stack of the cached permutation space plus diag(q_{i_a})."""
    q = np.asarray(q, dtype=complex).ravel()
    sub = _permutation_space(len(q))
    H = gaudin_hamiltonian(z, sub)
    diag = np.arange(sub.dim)
    H[:, diag, diag] += q[sub.basis.array.T - 1]
    return H


def _family(ops) -> np.ndarray:
    """The operators as one (k, d, d) stack."""
    if len(ops) == 0:
        raise ValueError("need at least one operator")
    shape = np.shape(ops[0])
    square = len(shape) == 2 and shape[0] == shape[1]
    if not square or any(np.shape(op) != shape for op in ops):
        raise ValueError("operators must share one square shape")
    return np.asarray(ops)


def joint_eigen(ops, tol: float = 1e-8, seed: int = 0):
    """Joint eigenvalue tuples of a commuting family of matrices.

    A random complex combination of the family is diagonalized; left and
    right eigenvectors read each operator's eigenvalue back through the
    bilinear quotient w^H A v / w^H v, for all eigenvectors at once.
    Entries are returned with the geometric multiplicity seen by the probe.
    A family whose scaled commutator defect exceeds 1e-10 is rejected.

    Parameters
    ----------
    ops : (k, d, d) stack or list of square ndarrays, pairwise commuting.
    tol : residual bound ||A v - p v|| <= tol (1 + ||A||) ||v|| per operator.
    seed : seeds the probe combination; up to 8 probes are drawn.

    Returns
    -------
    list of (p, vector, residual), one entry per joint eigenvector, sorted
    lexicographically by tuple.
    """
    mats = _family(ops)
    k, dim = mats.shape[:2]
    if dim == 0:
        return []
    norms = np.linalg.norm(mats, axis=(1, 2))
    i, j = np.triu_indices(k, 1)
    comm = mats[i] @ mats[j] - mats[j] @ mats[i]
    top = max(1.0, norms.max())
    defect = np.linalg.norm(comm, axis=(1, 2)).max(initial=0.0) / top**2
    if defect > 1e-10:
        raise NonCommutingOperatorsError(
            f"commutator defect {defect:.3e} exceeds 1.0e-10"
        )
    rng = np.random.default_rng(seed)
    last_problem = "no probe attempted"
    for _ in range(8):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c /= np.abs(c).max()
        probe = (c[:, None, None] * mats).sum(axis=0)
        w, vl, vr = scipy.linalg.eig(probe, left=True, right=True)
        vr /= np.linalg.norm(vr, axis=0, keepdims=True)
        vl /= np.linalg.norm(vl, axis=0, keepdims=True)
        denoms = np.einsum("ij,ij->j", vl.conj(), vr)
        if np.abs(denoms).min() < 1e-12:
            last_problem = "degenerate left/right pairing"
            continue
        AV = mats @ vr  # [m, :, e] = A_m v_e
        P = np.einsum("ie,mie->em", vl.conj(), AV) / denoms[:, None]
        defects = np.linalg.norm(AV - P.T[:, None, :] * vr, axis=1)
        res = (defects / (1.0 + norms[:, None])).max(axis=0)
        bad = np.flatnonzero(res > tol)
        if bad.size:
            last_problem = f"residual {res[bad[0]]:.3e} above tol {tol:.1e}"
            continue
        entries = [(P[e], vr[:, e], float(res[e])) for e in range(dim)]
        entries.sort(key=lambda e: lex_key(e[0]))
        return entries
    raise JointDiagonalizationError(
        f"probe retries exhausted: {last_problem}"
    )


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


def spectral_points(
    lam: Partition,
    z,
    N: int | None = None,
    tol: float = 1e-8,
    seed: int = 0,
) -> list[SpectralPoint]:
    """Joint spectrum of the Gaudin family on the singular space of weight lam.

    For generic z this yields exactly irrep_dimension(lam) points, each with
    sum_a p_a = 0.
    """
    ops = gaudin_hamiltonian(z, singular_basis(lam, N))
    entries = joint_eigen(ops, tol=tol, seed=seed)
    return [SpectralPoint(z, p, res) for p, _, res in entries]


def generalized_spectrum(z, q, tol: float = 1e-8, seed: int = 0):
    """Joint spectrum of H_a(z, q) on V^(x)n[1,...,1]; n! tuples for generic z."""
    entries = joint_eigen(generalized_gaudin(z, q), tol=tol, seed=seed)
    return [SpectralPoint(z, p, res) for p, _, res in entries]


def joint_eigenspace_dim(ops, p) -> int:
    """Dimension of the joint eigenspace for the tuple p.

    Counts the singular values of the stacked shifted family
    [A_1 - p_1; ...; A_k - p_k] at most 1e-8 times max(1, the largest).
    """
    mats = _family(ops)
    dim = mats.shape[1]
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
