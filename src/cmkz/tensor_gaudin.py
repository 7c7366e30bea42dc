"""Operator algebra on weight subspaces of V^(x)n, V = C^N.

Everything is assembled on a fixed weight space, never on the full tensor
power.  Basis vectors are multi-indices (i_1, ..., i_n) with letters in
1..N; the letter multiset is the weight.  The slot-swap identity
sum_{i,j} e_ij^(a) e_ji^(b) = P_ab (transposition of tensor slots a, b)
makes the Gaudin Hamiltonians

    H_a(z) = sum_{b != a} P_ab / (z_a - z_b)

cheap to realize directly on multi-indices; the generalized family adds
the diagonal term sum_i q_i e_ii^(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
import scipy.linalg

from .partitions import Partition, irrep_dimension
from .polyalg import lex_key, min_gap, require_distinct
from .serialize import pair_list

# largest weight space weight_basis builds; the tensor power never is
MAX_FULL_DIM = 4096


class NumericalRankError(RuntimeError):
    """A computed kernel or restriction has unexpected dimension."""


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
        object.__setattr__(
            self, "_lookup", {idx: k for k, idx in enumerate(self.indices)}
        )

    @property
    def dim(self) -> int:
        return len(self.indices)

    def index_of(self, idx: tuple[int, ...]) -> int:
        return self._lookup[idx]


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


def _shifted_weight(weight: tuple[int, ...], i: int, j: int) -> tuple[int, ...] | None:
    w = list(weight)
    w[j - 1] -= 1
    w[i - 1] += 1
    if w[j - 1] < 0:
        return None
    return tuple(w)


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
    target_weight = _shifted_weight(basis.weight, i, j)
    if target_weight is None:
        return np.zeros((0, basis.dim), dtype=complex), None
    target = weight_basis(basis.N, basis.n, target_weight)
    mat = np.zeros((target.dim, basis.dim), dtype=complex)
    for col, idx in enumerate(basis.indices):
        if idx[a - 1] == j:
            moved = idx[: a - 1] + (i,) + idx[a:]
            mat[target.index_of(moved), col] += 1.0
    return mat, target


def apply_eij(i: int, j: int, a: int, vec, basis: WeightBasis):
    """Apply e_ij^(a) to a coefficient vector on the weight basis.

    Returns (out_vec, target_basis); target_basis is None when the shifted
    weight does not exist (the result is then the zero vector of length 0).
    """
    vec = np.asarray(vec, dtype=complex).ravel()
    if len(vec) != basis.dim:
        raise ValueError("vector length does not match basis dimension")
    mat, target = eij_matrix(i, j, a, basis)
    return mat @ vec, target


def summed_eij(i: int, j: int, basis: WeightBasis):
    """Matrix of the global action sum_a e_ij^(a)."""
    per_slot = [eij_matrix(i, j, a, basis) for a in range(1, basis.n + 1)]
    return sum(mat for mat, _ in per_slot), per_slot[0][1]


@dataclass(eq=False)
class Subspace:
    """A subspace of a weight space; columns orthonormal, None = the whole space."""

    basis: WeightBasis
    columns: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim if self.columns is None else self.columns.shape[1]

    def restrict(self, full_matrix: np.ndarray) -> np.ndarray:
        """Compress an operator on the weight space onto this subspace.

        The subspace must be invariant: the off-subspace defect is checked
        against 1e-12 times the restricted norm.
        """
        if self.columns is None:
            return full_matrix
        S = self.columns
        M = S.conj().T @ full_matrix @ S
        defect = np.linalg.norm(full_matrix @ S - S @ M)
        if defect > 1e-12 * max(1.0, np.linalg.norm(M)):
            raise NumericalRankError(
                f"subspace not invariant: defect {defect:.3e} vs norm "
                f"{np.linalg.norm(M):.3e}"
            )
        return M


@lru_cache(maxsize=None)
def _singular_basis_cached(N: int, n: int, weight: tuple[int, ...]):
    basis = weight_basis(N, n, weight)
    blocks = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            mat, target = summed_eij(i, j, basis)
            if target is not None and target.dim > 0:
                blocks.append(mat)
    if not blocks:
        cols = np.eye(basis.dim, dtype=complex)
    else:
        stack = np.vstack(blocks)
        del blocks  # the stack alone is held through the SVD
        # only vh is read, and it is square either way; a tall stack skips
        # building its full U
        _, sv, vh = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
        tol = max(stack.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 0.0)
        rank = int(np.sum(sv > tol))
        cols = vh[rank:].conj().T
    cols = np.ascontiguousarray(cols)
    cols.setflags(write=False)
    return basis, cols


def singular_basis(lam: Partition, N: int | None = None) -> Subspace:
    """Orthonormal basis of the singular vectors of weight lam.

    These are the weight-lam vectors killed by every raising operator
    sum_a e_ij^(a), i < j; the dimension equals the number of standard
    tableaux of shape lam.
    """
    core = lam.trimmed
    if N is None:
        N = max(1, len(core))
    if len(core) > N:
        raise ValueError(f"{lam!r} needs more than N={N} rows")
    n = lam.n
    basis, cols = _singular_basis_cached(N, n, lam.padded(N))
    expected = irrep_dimension(lam)
    if cols.shape[1] != expected:
        raise NumericalRankError(
            f"singular space of {lam!r} has computed dimension {cols.shape[1]}, "
            f"expected {expected}"
        )
    return Subspace(basis, cols)


def _check_z(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != n:
        raise ValueError(f"need {n} points, got {len(z)}")
    return require_distinct(z, 1e-8, "evaluation points z")


def _swap_interaction_matrix(a: int, z: np.ndarray, basis: WeightBasis) -> np.ndarray:
    """sum_{b != a} P_ab / (z_a - z_b) on the weight basis (a is 1-based)."""
    n = basis.n
    dim = basis.dim
    H = np.zeros((dim, dim), dtype=complex)
    ai = a - 1
    for col, idx in enumerate(basis.indices):
        for b in range(n):
            if b == ai:
                continue
            w = 1.0 / (z[ai] - z[b])
            if idx[ai] == idx[b]:
                H[col, col] += w
            else:
                swapped = list(idx)
                swapped[ai], swapped[b] = swapped[b], swapped[ai]
                H[basis.index_of(tuple(swapped)), col] += w
    return H


def gaudin_hamiltonian(a: int, z, subspace: Subspace) -> np.ndarray:
    """H_a(z) = sum_{i,j} sum_{b != a} e_ij^(a) e_ji^(b) / (z_a - z_b),
    restricted to an invariant subspace (a weight space or singular space)."""
    basis = subspace.basis
    z = _check_z(z, basis.n)
    if not (1 <= a <= basis.n):
        raise ValueError("slot index a out of range")
    H = _swap_interaction_matrix(a, z, basis)
    return subspace.restrict(H)


def generalized_gaudin(a: int, z, q, n: int) -> np.ndarray:
    """H_a(z, q) = sum_i q_i e_ii^(a) + swap interactions, on V^(x)n[1,...,1]
    with local dimension N = n."""
    basis = weight_basis(n, n, (1,) * n)
    z = _check_z(z, n)
    q = np.asarray(q, dtype=complex).ravel()
    if len(q) != n:
        raise ValueError(f"q must have {n} entries")
    H = _swap_interaction_matrix(a, z, basis)
    for col, idx in enumerate(basis.indices):
        H[col, col] += q[idx[a - 1] - 1]
    return H


def _commutation_defect(mats) -> float:
    norms = [max(np.linalg.norm(m), 1.0) for m in mats]
    top = max(norms)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            worst = max(worst, np.linalg.norm(comm) / top**2)
    return worst


def joint_eigen(ops, tol: float = 1e-8, seed: int = 0):
    """Joint eigenvalue tuples of a commuting family of matrices.

    A random complex combination of the family is diagonalized; left and
    right eigenvectors read each operator's eigenvalue back through the
    bilinear quotient w^H A v / w^H v.  Entries are returned with the
    geometric multiplicity seen by the probe.  A family whose scaled
    commutator defect exceeds 1e-10 is rejected.

    Parameters
    ----------
    ops : list of square ndarrays, pairwise commuting.
    tol : residual bound ||A v - p v|| <= tol (1 + ||A||) ||v|| per operator.
    seed : seeds the probe combination; up to 8 probes are drawn.

    Returns
    -------
    list of (p, vector, residual), one entry per joint eigenvector, sorted
    lexicographically by tuple.
    """
    mats = [np.asarray(op) for op in ops]
    if not mats:
        raise ValueError("need at least one operator")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("operators must share one square shape")
    if dim == 0:
        return []
    defect = _commutation_defect(mats)
    if defect > 1e-10:
        raise NonCommutingOperatorsError(
            f"commutator defect {defect:.3e} exceeds 1.0e-10"
        )
    norms = [np.linalg.norm(m) for m in mats]
    rng = np.random.default_rng(seed)
    last_problem = "no probe attempted"
    for _ in range(8):
        c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        c /= np.abs(c).max()
        probe = sum(ci * m for ci, m in zip(c, mats))
        w, vl, vr = scipy.linalg.eig(probe, left=True, right=True)
        vr /= np.linalg.norm(vr, axis=0, keepdims=True)
        vl /= np.linalg.norm(vl, axis=0, keepdims=True)
        denoms = np.einsum("ij,ij->j", vl.conj(), vr)
        if np.abs(denoms).min() < 1e-12:
            last_problem = "degenerate left/right pairing"
            continue
        entries = []
        ok = True
        for k in range(dim):
            v = vr[:, k]
            wl = vl[:, k]
            p = np.array([wl.conj() @ (m @ v) for m in mats]) / denoms[k]
            res = max(
                np.linalg.norm(m @ v - pk * v) / (1.0 + nm)
                for m, pk, nm in zip(mats, p, norms)
            )
            if res > tol:
                ok = False
                last_problem = f"residual {res:.3e} above tol {tol:.1e}"
                break
            entries.append((p, v, float(res)))
        if ok:
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
    n = lam.n
    z = _check_z(z, n)
    sub = singular_basis(lam, N)
    ops = [gaudin_hamiltonian(a, z, sub) for a in range(1, n + 1)]
    entries = joint_eigen(ops, tol=tol, seed=seed)
    return [SpectralPoint(z, p, res) for p, _, res in entries]


def generalized_spectrum(z, q, tol: float = 1e-8, seed: int = 0):
    """Joint spectrum of H_a(z, q) on V^(x)n[1,...,1]; n! tuples for generic z."""
    z = np.asarray(z, dtype=complex).ravel()
    n = len(z)
    ops = [generalized_gaudin(a, z, q, n) for a in range(1, n + 1)]
    entries = joint_eigen(ops, tol=tol, seed=seed)
    return [SpectralPoint(z, p, res) for p, _, res in entries]


def joint_eigenspace_dim(ops, p) -> int:
    """Dimension of the joint eigenspace for the tuple p.

    Counts the singular values of the stacked shifted family
    [A_1 - p_1; ...; A_k - p_k] at most 1e-8 times max(1, the largest).
    """
    mats = [np.asarray(op) for op in ops]
    dim = mats[0].shape[0]
    stack = np.vstack([m - pk * np.eye(dim) for m, pk in zip(mats, p)])
    sv = np.linalg.svd(stack, compute_uv=False)
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
