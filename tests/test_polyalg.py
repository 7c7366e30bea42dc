import itertools

import numpy as np
import pytest

from cmkz.calogero_moser import cm_matrix
from cmkz.harness import collision_study
from cmkz.master_function import grad_t_q, solve_bethe_q
from cmkz.partitions import Partition, enumerate_partitions
from cmkz.polyalg import (
    char_coefficients,
    distinct_count,
    elementary_symmetric,
    excluded_products,
    from_roots,
    is_new_point,
    match_within,
    min_gap,
    pder,
    poly_det,
    require_distinct,
)
from cmkz.tensor_gaudin import gaudin_hamiltonian, generalized_gaudin, singular_basis
from cmkz.wronski import (
    PolyTuple,
    QuasiExpTuple,
    _derivative_rows,
    free_positions,
    poly_tuple_from_vector,
    psi,
    psi_q,
    random_poly_tuple,
)
from test_wronski import _fraction_poly_from_roots


def test_require_distinct_threshold_is_relative():
    v = require_distinct([0.0, 2e-8, 1.0], 1e-8, "values")
    assert v.dtype == complex and len(v) == 3
    require_distinct([1e3, 1e3 + 2e-5], 1e-8, "values")
    with pytest.raises(ValueError, match="values must be pairwise distinct"):
        require_distinct([1e3, 1e3 + 5e-6], 1e-8, "values")
    require_distinct([], 1.0, "values")
    require_distinct([4.0], 1.0, "values")


def test_min_gap_matches_the_upper_triangle_minimum():
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for trial in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 4 == 0:
                v[-1] = v[0]  # a repeated value: the minimum is 0
            ref = np.abs(v[:, None] - v[None, :])[np.triu_indices(n, 1)].min()
            assert min_gap(v) == ref
    assert min_gap([]) == np.inf
    assert min_gap([3.0 + 1j]) == np.inf


def test_stacked_separation_is_read_row_by_row():
    rng = np.random.default_rng(13)
    V = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    assert min_gap(V).tolist() == [min_gap(row) for row in V]
    assert min_gap(np.zeros((3, 1))).tolist() == [np.inf] * 3
    # each row is measured against its own scale
    rows = np.array([[1e3, 1e3 + 2e-5], [0.0, 1.0]])
    assert require_distinct(rows, 1e-8, "values").shape == (2, 2)
    with pytest.raises(ValueError, match="values must be pairwise distinct"):
        require_distinct(np.array([[0.0, 1.0], [1.0, 1.0 + 2e-9]]), 1e-8, "values")


def _psi_pair(e):
    # (2, 0) tuple with Wronskian (u - 1)(u - 1 - e)
    lam = Partition((2, 0))
    return psi(lam, PolyTuple(lam, {(1, 1): -1.5 * (2.0 + e), (1, 2): 3.0 * (1.0 + e)}))


def _psi_q_pair(e):
    # for q = (1, 3) the Wronskian is (u + c1)(u + c2) + (c1 - c2)/2, which
    # has a double root at 0 when (c1, c2) = (1, -1)
    return psi_q(QuasiExpTuple([1.0, 3.0], [1.0, -1.0 + e]))


_Z3 = [0.0, 1.0, 2.0j]
_T3 = [np.array([0.3 + 0.4j, -0.6 + 0.2j]), np.array([0.1 - 0.7j])]

# every call site of require_distinct, as a function of the separation e
SITES = {
    "gaudin_hamiltonian": lambda e: gaudin_hamiltonian(
        [0.3, 0.3 + e, -1.0], singular_basis(Partition((2, 1)))
    ),
    "generalized_gaudin": lambda e: generalized_gaudin(
        [0.3, 0.3 + e, -1.0], [1.0, 2.0, 3.0]
    ),
    "cm_matrix": lambda e: cm_matrix([0.3, 0.3 + e], [1.0, 2.0]),
    "psi": _psi_pair,
    "psi_q": _psi_q_pair,
    "QuasiExpTuple": lambda e: QuasiExpTuple([0.5, 0.5 + e], [0.0, 1.0]),
    "grad_t_q": lambda e: grad_t_q([0.5, 0.5 + e, -1.0], _Z3, _T3),
    "solve_bethe_q": lambda e: solve_bethe_q([0.5, 0.5 + e], [0.0, 1.0]),
    "collision_study": lambda e: collision_study(2, [0.3, 0.3 + e]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_distinctness_call_sites_reject_near_coincident_input(site):
    SITES[site](0.5)  # well separated: accepted
    with pytest.raises(ValueError, match="pairwise distinct"):
        SITES[site](1e-14)


def _leibniz_det(mat):
    """Permutation-sum determinant of a matrix of polynomials."""
    n = len(mat)
    total = np.zeros(1, dtype=complex)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = np.ones(1, dtype=complex)
        for r in range(n):
            term = np.convolve(term, np.asarray(mat[r][perm[r]], dtype=complex))
        term = (-1) ** inversions * term
        if len(term) > len(total):
            total, term = term, total
        total[: len(term)] += term
    return total


def _padded(c, length):
    return np.concatenate([c, np.zeros(length - len(c), dtype=complex)])


def _assert_same_poly(a, b):
    length = max(len(a), len(b))
    assert np.array_equal(_padded(a, length), _padded(b, length))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_det_matches_leibniz_exactly_on_integer_matrices(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(6):
        mat = [
            [
                rng.integers(-4, 5, size=int(rng.integers(1, 4)))
                + 1j * rng.integers(-4, 5, size=1)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        # sprinkle structural zeros so the DP skips some row choices
        for r, c in zip(*np.nonzero(rng.uniform(size=(n, n)) < 0.3)):
            mat[r][c] = [0]
        _assert_same_poly(poly_det(mat), _leibniz_det(mat))


def test_poly_det_structurally_zero_minor():
    c = 3.0
    # rows (1, 0) and (u + c, 0): the second column is empty
    assert np.array_equal(poly_det([[1, 0], [[c, 1], 0]]), np.zeros(1))
    # the same rows inside a 3 x 3: every choice that uses both rows in
    # columns 0 and 1 is structurally zero
    mat = [[1, 0, [2, -1]], [[c, 1], 0, [0, 1j]], [[1, 1], [0, 2], 5]]
    _assert_same_poly(poly_det(mat), _leibniz_det(mat))
    assert np.array_equal(poly_det([]), np.ones(1))
    with pytest.raises(ValueError, match="square"):
        poly_det([[1, 2], [3]])


def _wronski_rows(x):
    """The derivative matrix (f_i^(j)) of a polynomial tuple."""
    return _derivative_rows(x.polys(), x.lam.n)[1]


@pytest.mark.parametrize("n", [5, 6])
def test_poly_det_matches_leibniz_exactly_on_integer_wronskians(n):
    # distinct degrees make the column supports nested; every partial sum is
    # a Gaussian integer far below 2^53, so both sums are exact
    rng = np.random.default_rng(50 + n)
    for lam in enumerate_partitions(n, n):
        m = len(free_positions(lam))
        vec = rng.integers(-2, 3, m) + 1j * rng.integers(-2, 3, m)
        mat = _wronski_rows(poly_tuple_from_vector(lam, vec))
        _assert_same_poly(poly_det(mat), _leibniz_det(mat))


def test_poly_det_undoes_an_odd_column_order():
    # column c is nonzero in the rows r < counts[c]: nested supports taken
    # in the column order 1, 3, 0, 2, 4, which has three inversions
    counts = [3, 1, 4, 2, 5]
    order = sorted(range(5), key=counts.__getitem__)
    assert sum(a > b for a, b in itertools.combinations(order, 2)) % 2 == 1
    rng = np.random.default_rng(57)
    mat = [
        [
            rng.integers(-4, 5, size=2) + 1j * rng.integers(-4, 5, size=2)
            if r < counts[c] else [0]
            for c in range(5)
        ]
        for r in range(5)
    ]
    det = poly_det(mat)
    assert det.any()
    _assert_same_poly(det, _leibniz_det(mat))


@pytest.mark.parametrize("n", range(1, 9))
def test_poly_det_takes_at_most_n_squared_convolutions_on_a_wronskian(
    monkeypatch, n
):
    calls = []
    convolve = np.convolve

    def counted(a, b):
        calls.append(1)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", counted)
    rng = np.random.default_rng(60 + n)
    for lam in enumerate_partitions(n, n):
        mat = _wronski_rows(random_poly_tuple(lam, rng))
        calls.clear()
        poly_det(mat)
        assert 0 < len(calls) <= n * n, lam


def test_poly_det_frozen_bits():
    # coefficients of the subset-DP determinant of this fixed matrix, as
    # hex floats: the summation order of the DP is part of its contract
    def entry(r, c):
        return [
            complex(((3 * r + 5 * c + 7 * k) % 11 - 5) / 7, ((2 * r + 3 * c + k) % 13 - 6) / 9)
            for k in range(1 + (r + c) % 3)
        ]

    frozen = [
        ("-0x1.6a179fce82ec6p-1", "0x1.95fd6ef7ff264p-3"),
        ("-0x1.270d1e4d3f02cp-2", "0x1.00a131bb67dd0p+0"),
        ("-0x1.9343513c3626dp-1", "0x1.065dff6367f15p+0"),
        ("0x1.73f411cd1e1fap-2", "-0x1.e1e6b10477362p-3"),
        ("0x1.f2d5351b9d13ap-1", "0x1.efcd1b8f7ec9fp+0"),
        ("0x1.19b72defcbdc5p-1", "0x1.70a56f3b38ec0p-3"),
        ("-0x1.b6bf32cb3ff30p-4", "-0x1.1e0c449e63271p+0"),
        ("-0x1.1e41ad0a033e0p-4", "0x1.d15fcdd3d0fd4p-3"),
        ("-0x1.85108823cb78fp-3", "0x1.39d03a22c9746p-1"),
    ]
    det = poly_det([[entry(r, c) for c in range(5)] for r in range(5)])
    assert [(v.real.hex(), v.imag.hex()) for v in det] == frozen

    # a derivative-table minor of a (3, 1) tuple, signed zeros included
    lam = Partition((3, 1))
    x = PolyTuple(lam, {(1, 1): -1 - 0.25j, (1, 2): 0.25j, (1, 4): 1 - 0.25j, (2, 1): -1 + 0.25j})
    det = poly_det([[pder(f, k) for k in (0, 1, 3, 4)] for f in x.polys()])
    assert [(v.real.hex(), v.imag.hex()) for v in det] == [
        ("0x0.0p+0", "0x1.2000000000000p+5"),
        ("-0x1.6800000000000p+9", "-0x1.6800000000000p+7"),
        ("0x1.0e00000000000p+11", "0x0.0p+0"),
    ]


@pytest.mark.parametrize("n", range(9))
def test_stacked_symmetric_functions_equal_per_row_calls_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    scale = 10.0 ** rng.uniform(-2, 2, (2000, 1))
    roots = scale * (rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n)))
    monic, e = from_roots(roots), elementary_symmetric(roots)
    assert monic.shape == (2000, n + 1) and e.shape == (2000, n)
    for row in range(2000):
        assert monic[row].tobytes() == from_roots(roots[row]).tobytes()
        assert e[row].tobytes() == elementary_symmetric(roots[row]).tobytes()
    grid = from_roots(roots.reshape(40, 50, n))
    assert grid.reshape(2000, n + 1).tobytes() == monic.tobytes()


def _principal_minor_sums(A):
    """e_0..e_n of the integer matrix A as sums of its principal minors,
    each minor by the Leibniz formula in exact integer arithmetic."""
    n = len(A)
    out = [1]
    for k in range(1, n + 1):
        total = 0
        for rows in itertools.combinations(range(n), k):
            for perm in itertools.permutations(range(k)):
                inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
                term = (-1) ** inversions
                for i, j in enumerate(perm):
                    term *= A[rows[i]][rows[j]]
                total += term
        out.append(total)
    return out


@pytest.mark.parametrize("n", range(7))
def test_char_coefficients_are_the_principal_minor_sums_on_gaussian_integers(n):
    rng = np.random.default_rng(110 + n)
    for _ in range(4 if n < 6 else 2):
        re, im = rng.integers(-3, 4, (2, n, n))
        exact = [
            [complex(int(a), int(b)) for a, b in zip(row_re, row_im)]
            for row_re, row_im in zip(re, im)
        ]
        assert char_coefficients(re + 1j * im).tolist() == _principal_minor_sums(exact)


@pytest.mark.parametrize("n", range(9))
def test_char_coefficients_of_a_nilpotent_jordan_block_are_exact(n):
    e = char_coefficients(np.eye(n, k=1) * (2.0 + 1j))
    assert e.tolist() == [1.0] + [0.0] * n


@pytest.mark.parametrize("n", range(9))
def test_stacked_char_coefficients_equal_per_matrix_calls_bit_for_bit(n):
    # a C-ordered stack and one with the batch axes innermost in memory
    rng = np.random.default_rng(120 + n)
    scale = 10.0 ** rng.uniform(-2, 2, (300, 1, 1))
    A = scale * (rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n)))
    e = char_coefficients(A)
    assert e.shape == (300, n + 1)
    for row in range(300):
        assert e[row].tobytes() == char_coefficients(A[row]).tobytes()
    grid = char_coefficients(A.reshape(15, 20, n, n))
    assert grid.reshape(300, n + 1).tobytes() == e.tobytes()
    batch_inner = np.moveaxis(np.moveaxis(A, 0, -1).copy(), -1, 0)
    assert char_coefficients(batch_inner).tobytes() == e.tobytes()


def test_char_coefficients_agree_with_eigenvalues():
    rng = np.random.default_rng(130)
    for n in range(1, 8):
        A = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
        ref = elementary_symmetric(np.linalg.eigvals(A))
        e = char_coefficients(A)
        assert np.all(e[:, 0] == 1.0)
        assert np.abs(e[:, 1:] - ref).max() < 1e-12 * np.abs(ref).max()


def test_from_roots_is_exact_on_integer_roots():
    rng = np.random.default_rng(80)
    for n in range(9):
        roots = rng.integers(-9, 10, size=(50, n))
        monic, e = from_roots(roots), elementary_symmetric(roots)
        for row in range(50):
            ref = [complex(c) for c in _fraction_poly_from_roots(roots[row].tolist())]
            assert monic[row].tolist() == ref
            assert e[row].tolist() == [(-1) ** a * ref[n - a] for a in range(1, n + 1)]


def test_excluded_products():
    v = np.array([[2.0, 3.0, 0.0, 5.0], [1.0, -1.0, 4.0, 0.5]])
    expected = np.array([[np.prod(np.delete(row, w)) for w in range(4)] for row in v])
    assert np.array_equal(excluded_products(v), expected)
    assert np.array_equal(excluded_products(np.array([7.0])), np.ones(1))


def test_is_new_point_threshold_is_relative():
    assert is_new_point(np.array([0.1]), [])
    assert not is_new_point(np.array([0.1]), [np.array([0.1 + 5e-7])])
    assert is_new_point(np.array([0.1]), [np.array([0.1 + 2e-6])])
    # at sup norm 1e3 the threshold is 1e-3
    x = np.array([1e3, 1.0j])
    assert not is_new_point(x, [x + 5e-4])
    assert is_new_point(x, [x + 2e-3])
    assert not is_new_point(x, [x + 2e-3, x - 5e-4j])


def test_distinct_count_follows_is_new_point():
    x = np.array([1e3, 1.0j])
    # at sup norm 1e3 the cutoff is 1e-3: x + 5e-4 repeats x, x + 2e-3 does not
    family = np.stack([x, x + 5e-4, x + 2e-3, x - 2e-3])
    assert distinct_count(family) == 3
    kept = []
    for p in family:
        if is_new_point(p, kept):
            kept.append(p)
    assert len(kept) == 3
    # one count per family of a stack, and a lone point counts once
    stack = np.stack([family, family[[0, 2, 3, 2]]])
    assert distinct_count(stack).tolist() == [3, 3]
    assert distinct_count(family[:1]) == 1


def test_match_within_is_a_maximum_matching():
    # the greedy pick 0 -> 0 would strand row 1
    close = np.array([[True, True], [True, False]])
    assert match_within(close).tolist() == [1, 0]
    # rows 0 and 1 compete for column 0; row 2 has no edge
    close = np.array([[True, False, False], [True, False, False], [False] * 3])
    partner = match_within(close)
    assert sorted(partner.tolist()) == [-1, -1, 0]
    for rows, cols in ((0, 0), (2, 0), (0, 3)):
        assert match_within(np.zeros((rows, cols), dtype=bool)).tolist() == [-1] * rows


def _max_matching_size(close):
    """Largest number of rows a matching covers, by trying every assignment."""
    rows, cols = close.shape
    if rows * cols == 0:
        return 0
    m = max(rows, cols)
    padded = np.zeros((m, m), dtype=bool)
    padded[:rows, :cols] = close
    perms = np.array(list(itertools.permutations(range(m))))
    return int(padded[np.arange(m), perms].sum(axis=1).max())


def _assert_valid_matching(close, partner):
    rows = np.flatnonzero(partner >= 0)
    assert len(partner) == close.shape[0]
    assert len(set(partner[rows].tolist())) == len(rows)
    assert close[rows, partner[rows]].all()


def test_match_within_is_maximum_on_every_small_graph():
    for rows, cols in itertools.product(range(4), repeat=2):
        for bits in itertools.product((False, True), repeat=rows * cols):
            close = np.array(bits, dtype=bool).reshape(rows, cols)
            partner = match_within(close)
            _assert_valid_matching(close, partner)
            assert (partner >= 0).sum() == _max_matching_size(close)


def test_match_within_is_maximum_on_random_rectangular_graphs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = rng.integers(1, 7), rng.integers(1, 8)
        close = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
        partner = match_within(close)
        _assert_valid_matching(close, partner)
        assert (partner >= 0).sum() == _max_matching_size(close)


def test_match_within_follows_one_long_augmenting_path():
    # the greedy pass pairs row i with column i, which strands the last row;
    # the only augmenting path runs through every row
    n = 3000
    close = np.zeros((n, n), dtype=bool)
    idx = np.arange(n - 1)
    close[idx, idx] = close[idx, idx + 1] = True
    close[n - 1, 0] = True
    assert match_within(close).tolist() == list(range(1, n)) + [0]
