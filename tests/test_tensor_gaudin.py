import math
import tracemalloc

import numpy as np
import pytest

from cmkz.calogero_moser import l0_residual
from cmkz.partitions import Partition, enumerate_partitions, irrep_dimension
from cmkz.polyalg import require_distinct
from cmkz import tensor_gaudin
from cmkz.tensor_gaudin import (
    JointDiagonalizationError,
    NonCommutingOperatorsError,
    NumericalRankError,
    Subspace,
    _singular_basis_cached,
    gaudin_hamiltonian,
    generalized_gaudin,
    generalized_spectrum,
    joint_eigen,
    joint_eigenspace_dim,
    sample_generic_z,
    singular_basis,
    spectral_points,
    weight_basis,
)


def eij_matrix(i: int, j: int, a: int, basis):
    """Matrix of e_ij acting in tensor slot a.

    Maps the given weight space into the one with weight shifted by
    +e_i - e_j.  Returns (matrix, target_basis); for an impossible target
    weight the matrix has zero rows and the basis is None.
    """
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


def summed_eij(i: int, j: int, basis):
    """Matrix of the global action sum_a e_ij^(a)."""
    per_slot = [eij_matrix(i, j, a, basis) for a in range(1, basis.n + 1)]
    return sum(mat for mat, _ in per_slot), per_slot[0][1]


def content(parts) -> int:
    return sum(j - i for i, row in enumerate(parts) for j in range(row))


def dense_class_sum(basis) -> np.ndarray:
    """C = sum_{a<b} P_ab on the weight basis, built word by word."""
    n = basis.n
    position = {word: k for k, word in enumerate(basis.indices)}
    C = np.zeros((basis.dim, basis.dim))
    for k, word in enumerate(basis.indices):
        for a in range(n):
            for b in range(a + 1, n):
                swapped = list(word)
                swapped[a], swapped[b] = word[b], word[a]
                C[position[tuple(swapped)], k] += 1.0
    return C


def test_weight_basis_examples():
    b = weight_basis(2, 2, (1, 1))
    assert b.indices == ((1, 2), (2, 1))
    assert weight_basis(2, 2, (2, 0)).indices == ((1, 1),)
    b3 = weight_basis(3, 3, (1, 1, 1))
    assert b3.dim == 6
    assert b3.indices[0] == (1, 2, 3)


def test_weight_basis_counts_and_order():
    b = weight_basis(3, 4, (2, 1, 1))
    assert b.dim == math.factorial(4) // 2
    assert list(b.indices) == sorted(b.indices)


def test_weight_basis_validation():
    with pytest.raises(ValueError):
        weight_basis(2, 2, (1, 2))
    with pytest.raises(ValueError):
        weight_basis(2, 3, (-1, 4))


def test_swap_map_swaps_the_letters_word_by_word():
    for N, n, weight in ((1, 3, (3,)), (3, 4, (2, 1, 1)), (4, 5, (2, 2, 1, 0))):
        basis = weight_basis(N, n, weight)
        pairs = list(zip(*np.triu_indices(n, 1)))
        assert basis.swaps.shape == (basis.dim, len(pairs))
        for k, word in enumerate(basis.indices):
            for m, (a, b) in enumerate(pairs):
                swapped = list(word)
                swapped[a], swapped[b] = word[b], word[a]
                assert basis.indices[basis.swaps[k, m]] == tuple(swapped)


def test_weight_basis_cap_is_on_the_weight_space():
    # the cap counts words x columns: N^n = 7776 is no limit, the weight
    # space is 5! = 120, and every partition of 8 is admitted
    assert weight_basis(6, 5, (1, 1, 1, 1, 1, 0)).dim == 120
    assert tensor_gaudin.MAX_ENTRIES == 2**20
    with pytest.raises(ValueError, match="weight space dimension 3628800 x 1 columns"):
        weight_basis(10, 10, (1,) * 10)
    # (1^9): 9! words x (1 + 4) filtered columns; the permutation space of
    # n = 7 is 7! words x 7! columns
    with pytest.raises(ValueError, match="weight space dimension 362880 x 5 columns"):
        singular_basis(Partition((1,) * 9))
    with pytest.raises(ValueError, match="weight space dimension 5040 x 5040 columns"):
        generalized_gaudin(sample_generic_z(7, 0), np.zeros(7))


def test_eij_matrix_examples():
    b = weight_basis(2, 2, (2, 0))
    vec = np.array([1.0])  # e1 (x) e1
    mat, target = eij_matrix(2, 1, 2, b)
    out = mat @ vec
    assert target.weight == (1, 1)
    k = target.index_of((1, 2))  # e1 (x) e2
    assert abs(out[k] - 1.0) < 1e-15 and np.abs(np.delete(out, k)).max() == 0.0

    b11 = weight_basis(2, 2, (1, 1))
    e12 = np.zeros(2)
    e12[b11.index_of((1, 2))] = 1.0
    mat, target = eij_matrix(1, 2, 1, b11)
    assert np.abs(mat @ e12).max() == 0.0  # slot 1 holds letter 1, not 2

    mat, target = eij_matrix(1, 1, 1, b11)
    assert target is b11 or target.weight == (1, 1)
    assert np.allclose(mat @ e12, e12)


def test_gaudin_matches_explicit_generator_composition():
    rng = np.random.default_rng(8)
    for N, n, weight in ((2, 2, (1, 1)), (2, 3, (2, 1)), (3, 3, (1, 1, 1))):
        basis = weight_basis(N, n, weight)
        z = sample_generic_z(n, rng)
        family = gaudin_hamiltonian(z, Subspace(basis))
        assert family.shape == (n, basis.dim, basis.dim)
        for a in range(1, n + 1):
            ref = np.zeros((basis.dim, basis.dim), dtype=complex)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    for b in range(1, n + 1):
                        if b == a:
                            continue
                        mji, mid = eij_matrix(j, i, b, basis)
                        if mid is None:
                            continue
                        mij, back = eij_matrix(i, j, a, mid)
                        if back is None:
                            continue
                        ref += (mij @ mji) / (z[a - 1] - z[b - 1])
            assert np.abs(family[a - 1] - ref).max() < 1e-12


def test_singular_basis_small_cases():
    sub = singular_basis(Partition((2,)), 2)
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.columns[:, 0]), [1.0])  # e1 (x) e1

    sub = singular_basis(Partition((1, 1)), 2)
    assert sub.dim == 1
    v = sub.columns[:, 0]
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    overlap = abs(np.vdot(expected, v))
    assert abs(overlap - 1.0) < 1e-12

    assert singular_basis(Partition((2, 1)), 2).dim == 2


def test_singular_basis_dimension_matches_tableau_count():
    for n in range(2, 6):
        for lam in enumerate_partitions(n, min(n, 3)):
            rows = max(1, len(lam.trimmed))
            assert singular_basis(lam, rows).dim == irrep_dimension(lam)


def test_singular_basis_skips_the_full_left_factor():
    # (1^7) has a weight space of 7! = 5040 words; the filter works on
    # 5040 x 5 columns and never forms the 5040 x 5040 class sum
    weight = Partition((1,) * 7).padded(7)
    weight_basis(7, 7, weight).swaps  # cached outside the traced window
    tracemalloc.start()
    try:
        cols = _singular_basis_cached.__wrapped__(7, 7, weight).columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5040 * 5040 * 8 / 10
    assert cols.shape == (5040, 1)


def test_raising_operators_kill_the_singular_columns():
    # every raising operator sum_a e_ij^(a), i < j, kills the columns: a
    # check that reads neither the class sum nor its contents
    for n in range(2, 7):
        for lam in enumerate_partitions(n, n):
            for N in (len(lam.trimmed), len(lam.trimmed) + 1):
                sub = singular_basis(lam, N)
                for i in range(1, N + 1):
                    for j in range(i + 1, N + 1):
                        mat, target = summed_eij(i, j, sub.basis)
                        if target is not None:
                            assert np.abs(mat @ sub.columns).max() < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_filter_span_is_the_dense_content_eigenspace(n):
    for lam in enumerate_partitions(n, n):
        sub = singular_basis(lam)
        w, v = np.linalg.eigh(dense_class_sum(sub.basis))
        dense = v[:, np.abs(w - content(lam.trimmed)) < 1]
        S = sub.columns
        assert np.abs(S @ S.T - dense @ dense.T).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_filter_columns_are_bit_identical_across_builds_and_row_counts(n):
    # two cold builds, and the extra zero row of n-independence, which no
    # word uses: same words, same start columns, same bits
    for lam in enumerate_partitions(n, n):
        rows = len(lam.trimmed)
        first = _singular_basis_cached.__wrapped__(rows, n, lam.padded(rows))
        again = _singular_basis_cached.__wrapped__(rows, n, lam.padded(rows))
        wider = _singular_basis_cached.__wrapped__(rows + 1, n, lam.padded(rows + 1))
        assert np.array_equal(first.columns, again.columns)
        assert np.array_equal(first.columns, wider.columns)
        assert np.array_equal(first.transpositions, wider.transpositions)


def test_singular_basis_measures_its_rank(monkeypatch):
    # the filter's rank is measured, not taken from the tableau count
    monkeypatch.setattr(tensor_gaudin, "irrep_dimension", lambda lam: 3)
    with pytest.raises(NumericalRankError, match="computed dimension 2, expected 3"):
        _singular_basis_cached.__wrapped__(2, 3, (2, 1))


def test_every_partition_of_7_has_its_singular_space():
    # (1^7), at 5040 words, was past the cap of the dense eigensolve
    for lam in enumerate_partitions(7, 7):
        sub = singular_basis(lam)
        assert sub.columns.shape == (sub.basis.dim, irrep_dimension(lam))
        sub.transpositions  # the 1e-12 invariance check


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sum_spectrum_has_the_content_gap(n):
    # C = sum_{a<b} P_ab, built word by word, acts on the irrep mu as its
    # content c(mu); on the weight space of lam every constituent other than
    # lam itself strictly dominates it and sits at least 2 higher, so no
    # factor C - c(mu) of singular_basis's filter touches lam and together
    # they kill everything else
    partitions = enumerate_partitions(n, n)
    for lam in partitions:
        basis = weight_basis(len(lam.trimmed), n, lam.trimmed)
        w = np.linalg.eigvalsh(dense_class_sum(basis))
        levels = np.round(w)
        assert np.abs(w - levels).max() < 1e-9
        c = content(lam.trimmed)
        assert np.count_nonzero(levels == c) == irrep_dimension(lam)
        assert levels[levels != c].min(initial=np.inf) >= c + 2
        dominating = {
            content(mu.trimmed)
            for mu in partitions
            if mu != lam
            and all(
                sum(mu.padded(n)[:k]) >= sum(lam.padded(n)[:k]) for k in range(n)
            )
        }
        assert set(levels[levels != c]) <= dominating


@pytest.mark.parametrize("extra_rows", [0, 1])
def test_transposition_table_is_the_irrep(extra_rows):
    # T_ab is the irrep lambda of S_n: involutions, braid-conjugation
    # T_ab T_bc T_ab = T_ac, and Frobenius's character of a transposition
    for n in range(2, 6):
        for lam in enumerate_partitions(n, n):
            sub = singular_basis(lam, len(lam.trimmed) + extra_rows)
            T = sub.transpositions
            d = irrep_dimension(lam)
            eye = np.eye(d)
            content = sum(j - i for i, row in enumerate(lam.trimmed) for j in range(row))
            character = d * content / math.comb(n, 2)
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    assert np.abs(T[a, b] @ T[a, b] - eye).max() < 1e-13
                    assert abs(np.trace(T[a, b]) - character) < 1e-13
                    for c in range(n):
                        if c not in (a, b):
                            conj = T[a, b] @ T[b, c] @ T[a, b]
                            assert np.abs(conj - T[a, c]).max() < 1e-13


def test_transposition_table_rejects_a_non_invariant_subspace():
    basis = weight_basis(2, 2, (1, 1))
    sub = Subspace(basis, np.array([[1.0], [0.0]], dtype=complex))  # e1 (x) e2
    with pytest.raises(NumericalRankError, match="not invariant under P_12"):
        sub.transpositions


def test_transposition_table_is_read_only():
    T = singular_basis(Partition((2, 1)), 3).transpositions
    with pytest.raises(ValueError):
        T[0, 1, 0, 0] = 0.0


def test_singular_basis_rejects_narrow_N():
    with pytest.raises(ValueError):
        singular_basis(Partition((1, 1, 1)), 2)


def test_gaudin_one_by_one_and_sum_rule():
    z = np.array([0.2 + 0.1j, -0.4 - 0.3j])
    H = gaudin_hamiltonian(z, singular_basis(Partition((2,)), 2))
    assert H.shape == (2, 1, 1)
    assert abs(H[0, 0, 0] - 1.0 / (z[0] - z[1])) < 1e-14
    assert abs(H[0, 0, 0] + H[1, 0, 0]) < 1e-14


def test_gaudin_sum_vanishes_on_weight_space():
    rng = np.random.default_rng(9)
    basis = weight_basis(2, 3, (2, 1))
    z = sample_generic_z(3, rng)
    total = gaudin_hamiltonian(z, Subspace(basis)).sum(axis=0)
    assert np.abs(total).max() < 1e-13


def test_gaudin_commutators_and_gl_symmetry():
    rng = np.random.default_rng(10)
    basis = weight_basis(3, 4, (2, 1, 1))
    z = sample_generic_z(4, rng)
    mats = gaudin_hamiltonian(z, Subspace(basis))
    top = max(np.linalg.norm(m) for m in mats)
    for i in range(4):
        for j in range(i + 1, 4):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            assert np.linalg.norm(comm) < 1e-10 * max(1.0, top**2)
    # H_a intertwines with the global raising action
    for i in range(1, 4):
        for j in range(i + 1, 4):
            E, target = summed_eij(i, j, basis)
            if target is None or target.dim == 0:
                continue
            Ht = gaudin_hamiltonian(z, Subspace(target))
            assert np.abs(E @ mats - Ht @ E).max() < 1e-12


def test_gaudin_rejects_coincident_z():
    sub = singular_basis(Partition((2,)), 2)
    with pytest.raises(ValueError):
        gaudin_hamiltonian([0.5, 0.5 + 1e-12], sub)
    with pytest.raises(ValueError, match="need 2 points, got 3"):
        gaudin_hamiltonian([0.5, 1.0, 1.5], sub)


def test_one_family_checks_z_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return require_distinct(*args)

    monkeypatch.setattr(tensor_gaudin, "require_distinct", counted)
    z = sample_generic_z(4, 17)
    assert len(spectral_points(Partition((2, 1, 1)), z, seed=1)) == 3
    assert len(calls) == 1


def test_generalized_gaudin_two_by_two():
    z = np.array([0.0, 1.0])
    q = np.array([0.3 + 0.1j, -0.9 + 0.4j])
    H = generalized_gaudin(z, q)
    s = 1.0 / (z[0] - z[1])
    # basis order: (1,2), (2,1)
    assert np.abs(H[0] - np.array([[q[0], s], [s, q[1]]])).max() < 1e-14
    assert np.abs(H[1] - np.array([[q[1], -s], [-s, q[0]]])).max() < 1e-14
    H0 = generalized_gaudin(z, np.zeros(2))
    b = weight_basis(2, 2, (1, 1))
    Hg = gaudin_hamiltonian(z, Subspace(b))
    assert np.abs(H0 - Hg).max() == 0.0


def test_generalized_gaudin_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="need 3 points, got 2"):
        generalized_gaudin([0.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="need 2 points, got 3"):
        generalized_gaudin([0.0, 1.0, 2.0], [0.1, 0.2])


def test_generalized_gaudin_trace_identity():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        z = sample_generic_z(n, rng)
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        total = generalized_gaudin(z, q).sum(axis=0)
        dim = math.factorial(n)
        assert abs(np.trace(total) - np.sum(q) * dim) < 1e-10
        assert np.abs(total - np.sum(q) * np.eye(dim)).max() < 1e-12


def test_joint_eigen_diagonal_and_identity():
    entries = joint_eigen([np.diag([3.0, 5.0])], seed=1)
    assert sorted(p[0].real for p, _, _ in entries) == pytest.approx([3.0, 5.0])
    entries = joint_eigen([np.eye(2)], seed=1)
    assert len(entries) == 2
    for p, _, res in entries:
        assert abs(p[0] - 1.0) < 1e-12
        assert res < 1e-12


def test_joint_eigen_generalized_pair():
    z = np.array([0.0, 1.0])
    q = np.array([0.2, 1.4])
    mats = generalized_gaudin(z, q)
    entries = joint_eigen(mats, seed=2)
    assert len(entries) == 2
    for p, v, res in entries:
        assert abs(p[0] + p[1] - q.sum()) < 1e-12
        # the stacked residual against the operator-by-operator loop
        loop = max(
            np.linalg.norm(m @ v - pk * v) / (1.0 + np.linalg.norm(m))
            for m, pk in zip(mats, p)
        )
        assert abs(res - loop) < 1e-15
    # a list of the same operators is the same family
    as_list = joint_eigen(list(mats), seed=2)
    for (p, v, res), (pl, vl, resl) in zip(entries, as_list):
        assert np.array_equal(p, pl) and np.array_equal(v, vl) and res == resl


def test_joint_eigen_rejects_non_commuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NonCommutingOperatorsError):
        joint_eigen([a, b], seed=0)


@pytest.mark.filterwarnings("error")
def test_joint_eigen_rejects_a_defective_operator():
    # a Jordan block's left and right eigenvectors are orthogonal
    with pytest.raises(JointDiagonalizationError, match="degenerate left/right pairing"):
        joint_eigen([np.array([[0.0, 1.0], [0.0, 0.0]])], seed=0)


@pytest.mark.filterwarnings("error")
def test_joint_eigen_rejects_an_exactly_singular_eigenvector_matrix():
    # the 3x3 nilpotent Jordan block's eigenvectors underflow to parallel
    # columns, so the eigenvector matrix has no inverse at all
    _, vr = np.linalg.eig(np.eye(3, k=1))
    assert np.linalg.matrix_rank(vr) < 3
    with pytest.raises(JointDiagonalizationError, match="degenerate left/right pairing"):
        joint_eigen([np.eye(3, k=1)], seed=0)


def test_joint_eigen_reports_the_residual_above_tol():
    op = np.random.default_rng(0).standard_normal((3, 3))
    with pytest.raises(JointDiagonalizationError, match="residual 2.147e-16 above tol"):
        joint_eigen([op], tol=1e-300, seed=0)


def test_joint_eigen_rejects_ragged_and_empty_families():
    with pytest.raises(ValueError, match="operators must share one square shape"):
        joint_eigen([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="operators must share one square shape"):
        joint_eigen([np.ones((2, 3))])
    with pytest.raises(ValueError, match="need at least one operator"):
        joint_eigen([])
    with pytest.raises(ValueError, match="need at least one operator"):
        joint_eigen(np.zeros((0, 2, 2)))


def _same_entries(a, b):
    """Entries of joint_eigen, or SpectralPoints, equal bit for bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, tuple):
            assert all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(x, y))
        else:
            assert x.z.tobytes() == y.z.tobytes() and x.p.tobytes() == y.p.tobytes()
            assert x.residual == y.residual


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_families_equal_one_family_calls_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for lam in enumerate_partitions(n, n):
        Z = np.array([sample_generic_z(n, rng) for _ in range(5)])
        seeds = rng.integers(2**31, size=5)
        ops = gaudin_hamiltonian(Z, singular_basis(lam))
        assert ops.shape[:2] == (5, n)
        for b, z in enumerate(Z):
            assert np.array_equal(ops[b], gaudin_hamiltonian(z, singular_basis(lam)))
        for got, z, seed in zip(joint_eigen(ops, seed=seeds), Z, seeds):
            _same_entries(got, joint_eigen(gaudin_hamiltonian(z, singular_basis(lam)), seed=seed))
        for got, z, seed in zip(spectral_points(lam, Z, seed=seeds), Z, seeds):
            _same_entries(got, spectral_points(lam, z, seed=seed))


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_permutation_spaces_equal_one_family_calls_bit_for_bit(n):
    rng = np.random.default_rng(50 + n)
    Z = np.array([sample_generic_z(n, rng) for _ in range(5)])
    Q = np.array([sample_generic_z(n, rng, radius=1.5) for _ in range(5)])
    seeds = rng.integers(2**31, size=5)
    ops = generalized_gaudin(Z, Q)
    for b, (z, q) in enumerate(zip(Z, Q)):
        assert np.array_equal(ops[b], generalized_gaudin(z, q))
    for got, z, q, seed in zip(joint_eigen(ops, seed=seeds), Z, Q, seeds):
        _same_entries(got, joint_eigen(generalized_gaudin(z, q), seed=seed))
    for got, z, q, seed in zip(generalized_spectrum(Z, Q, seed=seeds), Z, Q, seeds):
        _same_entries(got, generalized_spectrum(z, q, seed=seed))


def test_batch_axes_nest_the_results():
    lam = Partition((2, 1))
    Z = np.array([[sample_generic_z(3, 10 * i + j) for j in range(3)] for i in range(2)])
    seeds = np.arange(6).reshape(2, 3)
    pts = spectral_points(lam, Z, seed=seeds)
    assert [len(row) for row in pts] == [3, 3]
    for i in range(2):
        for j in range(3):
            _same_entries(pts[i][j], spectral_points(lam, Z[i, j], seed=seeds[i, j]))
    assert joint_eigen(np.zeros((0, 1, 2, 2))) == []


def test_only_the_families_whose_probe_failed_draw_again(monkeypatch):
    # at tol 5e-16 some (2,1,1) families pass the first probe, and others
    # only a later one
    rows, real = [], np.linalg.eig

    def counted(a):
        rows.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    sub = singular_basis(Partition((2, 1, 1)))
    seeds, alone, probes = [], [], []
    for s in range(12):
        rows.clear()
        try:
            alone.append(joint_eigen(gaudin_hamiltonian(sample_generic_z(4, s), sub), 5e-16, s))
        except JointDiagonalizationError:
            continue
        seeds.append(s)
        probes.append(len(rows))
    assert min(probes) == 1 and max(probes) > 1
    rows.clear()
    Z = np.array([sample_generic_z(4, s) for s in seeds])
    stacked = joint_eigen(gaudin_hamiltonian(Z, sub), tol=5e-16, seed=seeds)
    # round r diagonalizes exactly the families that needed more than r probes
    assert rows == [sum(p > r for p in probes) for r in range(max(probes))]
    for got, want in zip(stacked, alone):
        _same_entries(got, want)


def _error_of(ops, **kw):
    with pytest.raises((JointDiagonalizationError, NonCommutingOperatorsError)) as info:
        joint_eigen(ops, **kw)
    return type(info.value), str(info.value)


@pytest.mark.filterwarnings("error")
def test_a_failing_family_raises_its_own_error_from_the_stack():
    good = generalized_gaudin(sample_generic_z(2, 1), [0.2, 1.4])
    jordan = np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2)  # pairs no left vector
    clash = np.array([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    assert _error_of(np.stack([good, jordan, good]), seed=[1, 0, 2]) == _error_of(jordan, seed=0)
    assert _error_of(np.stack([good, clash]), seed=0) == _error_of(clash)
    # the first failing family in stack order decides
    assert _error_of(np.stack([jordan, clash]))[0] is JointDiagonalizationError
    assert _error_of(np.stack([clash, jordan]))[0] is NonCommutingOperatorsError


@pytest.mark.filterwarnings("error")
def test_a_singular_eigenvector_matrix_fails_only_its_family():
    # the nilpotent 3x3 block's eigenvectors are parallel: a stacked inv
    # raises for the whole stack, so each family is inverted on its own
    _, singular = np.linalg.eig(np.eye(3, k=1))
    rng = np.random.default_rng(3)
    regular = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    left = tensor_gaudin._inverses(np.stack([regular[0], singular, regular[1]]))
    assert np.isnan(left[1]).all()
    for got, vr in zip(left[[0, 2]], regular):
        assert got.tobytes() == np.linalg.inv(vr).tobytes()
    good = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([0.5, -1.0, 2.0])])
    assert len(joint_eigen(good)) == 3
    nilpotent = np.array([np.eye(3, k=1)] * 2)
    stack = np.stack([good, nilpotent, good])
    assert _error_of(stack, seed=[1, 0, 2]) == _error_of(nilpotent, seed=0)


def test_spectral_points_closed_forms():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        z = sample_generic_z(n, rng)
        expected = np.array([np.sum(1.0 / (z[a] - np.delete(z, a))) for a in range(n)])
        pts = spectral_points(Partition((n,)), z, seed=3)
        assert len(pts) == 1
        assert np.abs(pts[0].p - expected).max() < 1e-10
        pts = spectral_points(Partition((1,) * n), z, seed=3)
        assert len(pts) == 1
        assert np.abs(pts[0].p + expected).max() < 1e-10


def test_spectral_points_land_on_zero_level():
    rng = np.random.default_rng(13)
    lam = Partition((2, 1))
    z = sample_generic_z(3, rng)
    pts = spectral_points(lam, z, seed=5)
    assert len(pts) == 2
    for sp in pts:
        assert l0_residual(sp.z, sp.p) < 1e-8
        assert abs(np.sum(sp.p)) < 1e-10


def test_spectral_points_independent_of_row_count():
    rng = np.random.default_rng(14)
    lam = Partition((2, 2))
    z = sample_generic_z(4, rng)
    a = spectral_points(lam, z, N=2, seed=1)
    b = spectral_points(lam, z, N=3, seed=9)
    da = sorted((round(p.real, 8), round(p.imag, 8)) for sp in a for p in sp.p)
    db = sorted((round(p.real, 8), round(p.imag, 8)) for sp in b for p in sp.p)
    assert da == db


def test_generalized_spectrum_count_and_eigenspace_dim():
    rng = np.random.default_rng(15)
    n = 3
    z = sample_generic_z(n, rng)
    q = sample_generic_z(n, rng, radius=1.5)
    pts = generalized_spectrum(z, q, seed=4)
    assert len(pts) == 6
    mats0 = generalized_gaudin(z, np.zeros(n))
    ref = spectral_points(Partition((2, 1)), z, seed=6)
    assert joint_eigenspace_dim(mats0, ref[0].p) == 2
    assert joint_eigenspace_dim(list(mats0), ref[0].p) == 2


def test_sample_generic_z_determinism_and_separation():
    a = sample_generic_z(5, 42)
    b = sample_generic_z(5, 42)
    assert np.array_equal(a, b)
    d = np.abs(a[:, None] - a[None, :])[np.triu_indices(5, 1)]
    assert d.min() >= 0.02


def test_spectral_point_json():
    rng = np.random.default_rng(16)
    z = sample_generic_z(2, rng)
    sp = spectral_points(Partition((2,)), z, seed=0)[0]
    d = sp.as_dict()
    assert set(d) == {"z", "p", "residual"}
    assert len(d["z"]) == 2 and len(d["z"][0]) == 2
